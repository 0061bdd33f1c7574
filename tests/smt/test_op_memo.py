"""The builder's constructor memo.

``eq``, ``bvadd``, ``bvsub`` and ``bvneg`` go through the linear form, and
each keeps its results in one process-wide memo keyed by the constructor's
name and its interned arguments; the unmemoised body is the same name with
a leading underscore.  A hit must be the very object the body returns, the
memo must be bounded and emptied by ``clear_check_cache``, and a real case
study must leave no entry a recomputation disagrees with.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.casestudies import verify_case
from repro.smt import builder as B
from repro.smt.solver import clear_check_cache

from .test_properties import VARS, WIDTH, bool_terms, bv_terms

BINARY = ("eq", "bvadd", "bvsub")


def _body(name):
    return getattr(B, f"_{name}")


class RecordingMemo(dict):
    """A stand-in for ``builder._OP_MEMO`` that keeps every entry ever
    stored (``entries``) and counts how often it was emptied."""

    def __init__(self):
        super().__init__()
        self.entries = []
        self.generation = 0

    def __setitem__(self, key, value):
        self.entries.append((self.generation, key, value))
        super().__setitem__(key, value)

    def clear(self):
        self.generation += 1
        super().clear()


def _leaves():
    return [*VARS, *(B.bv(c, WIDTH) for c in (0, 1, 2, 0x80, 0xFF))]


class TestMemoParity:
    @given(bv_terms(), bv_terms())
    @settings(max_examples=200, deadline=None)
    def test_bitvector_constructors_match_their_bodies(self, a, b):
        for name in BINARY:
            assert getattr(B, name)(a, b) is _body(name)(a, b)
            assert getattr(B, name)(a, b) is _body(name)(a, b)  # warm
        assert B.bvneg(a) is B._bvneg(a)
        assert B.bvneg(a) is B._bvneg(a)

    @given(bool_terms(depth=1), bool_terms(depth=1))
    @settings(max_examples=100, deadline=None)
    def test_boolean_eq_matches_its_body(self, p, q):
        assert B.eq(p, q) is B._eq(p, q)
        assert B.eq(p, q) is B._eq(p, q)

    def test_every_argument_is_part_of_the_key(self):
        """One first argument under many second arguments, in both orders:
        a memo that dropped an argument from its key would return one
        pair's result for another."""
        leaves = _leaves()
        for name in BINARY:
            for a in leaves:
                for b in leaves:
                    assert getattr(B, name)(a, b) is _body(name)(a, b), (name, a, b)
                    assert getattr(B, name)(b, a) is _body(name)(b, a), (name, b, a)
        for a in leaves:
            assert B.bvneg(a) is B._bvneg(a)

    def test_case_study_entries_match_a_recomputation(self, monkeypatch):
        memo = RecordingMemo()
        monkeypatch.setattr(B, "_OP_MEMO", memo)
        clear_check_cache()
        _case, report = verify_case("memcpy_arm", {"n": 6})
        assert report.ok
        assert len(memo.entries) > 100
        for _generation, (name, *args), value in memo.entries:
            assert _body(name)(*args) is value, (name, args)


class TestMemoBounds:
    def test_memo_is_bounded_and_emptied_wholesale(self, monkeypatch):
        memo = RecordingMemo()
        monkeypatch.setattr(B, "_OP_MEMO", memo)
        monkeypatch.setattr(B, "_OP_MEMO_LIMIT", 20)
        sizes = []
        x = VARS[0]
        for k in range(100):
            B.bvadd(x, B.bv(k, WIDTH))
            sizes.append(len(memo))
        assert max(sizes) <= 21
        assert memo.generation >= 4
        # Each call adds one entry after an emptying: never more.
        assert all(b in (a + 1, 1) for a, b in zip(sizes, sizes[1:]))

    def test_clear_check_cache_empties_memo(self):
        B.eq(VARS[0], B.bv(3, WIDTH))
        assert B._OP_MEMO
        clear_check_cache()
        assert not B._OP_MEMO

    @given(st.sampled_from(BINARY), bv_terms(depth=1), bv_terms(depth=1))
    @settings(max_examples=50, deadline=None)
    def test_recomputation_after_clearing_is_the_same_object(self, name, a, b):
        first = getattr(B, name)(a, b)
        clear_check_cache()
        assert getattr(B, name)(a, b) is first
