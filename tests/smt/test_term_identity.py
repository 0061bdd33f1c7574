"""Interned terms are equal exactly when they are the same object.

``mk_term`` is the only place a ``Term`` is built, and it returns the
existing node for a structurally equal term, so ``Term`` keeps
``object``'s C-level ``__hash__`` and ``__eq__``.  Set iteration order
then follows object addresses instead of the string hash seed; the
subprocess test pins that the verification work and the certificates do
not depend on either.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.smt import builder as B
from repro.smt import solver as S
from repro.smt import terms as T
from repro.smt.sorts import BOOL, bv_sort

SRC = Path(__file__).resolve().parents[2] / "src"


def test_hash_and_equality_are_objects_own():
    assert T.Term.__hash__ is object.__hash__
    assert T.Term.__eq__ is object.__eq__
    assert "_hash" not in T.Term.__slots__


def _x():
    return B.bv_var("id_x", 8)


def _y():
    return B.bv_var("id_y", 8)


def _p():
    return B.bool_var("id_p")


def _q():
    return B.bool_var("id_q")


RAW = {
    "mk_var": lambda: T.mk_var("id_raw", bv_sort(16)),
    "mk_bv_value": lambda: T.mk_bv_value(0x1234, 16),
    "mk_bool_value": lambda: T.mk_bool_value(True),
    "mk_term": lambda: T.mk_term(T.BVADD, (_x(), _y()), (), bv_sort(8)),
    "mk_term extract": lambda: T.mk_term(T.EXTRACT, (_x(),), (3, 0), bv_sort(4)),
    "mk_term and": lambda: T.mk_term(T.AND, (_p(), _q()), (), BOOL),
}

BUILDER = {
    "var": lambda: B.var("id_v", bv_sort(32)),
    "bv_var": _x,
    "bool_var": _p,
    "bv": lambda: B.bv(-3, 8),
    "bool_val": lambda: B.bool_val(False),
    "not_": lambda: B.not_(_p()),
    "and_": lambda: B.and_(_p(), _q()),
    "or_": lambda: B.or_(_p(), _q()),
    "xor": lambda: B.xor(_p(), _q()),
    "implies": lambda: B.implies(_p(), _q()),
    "eq": lambda: B.eq(_x(), _y()),
    "distinct": lambda: B.distinct(_x(), _y()),
    "ite": lambda: B.ite(_p(), _x(), _y()),
    "bvadd": lambda: B.bvadd(_x(), _y()),
    "bvsub": lambda: B.bvsub(_x(), _y()),
    "bvneg": lambda: B.bvneg(_x()),
    "bvmul": lambda: B.bvmul(_x(), _y()),
    "bvudiv": lambda: B.bvudiv(_x(), _y()),
    "bvurem": lambda: B.bvurem(_x(), _y()),
    "bvand": lambda: B.bvand(_x(), _y()),
    "bvor": lambda: B.bvor(_x(), _y()),
    "bvxor": lambda: B.bvxor(_x(), _y()),
    "bvnot": lambda: B.bvnot(_x()),
    "bvshl": lambda: B.bvshl(_x(), _y()),
    "bvlshr": lambda: B.bvlshr(_x(), _y()),
    "bvashr": lambda: B.bvashr(_x(), _y()),
    "concat": lambda: B.concat(_x(), _y()),
    "concat_many": lambda: B.concat_many(_x(), _y(), _x()),
    "extract": lambda: B.extract(5, 2, _x()),
    "zero_extend": lambda: B.zero_extend(8, _x()),
    "sign_extend": lambda: B.sign_extend(8, _x()),
    "zext_to": lambda: B.zext_to(32, _x()),
    "truncate": lambda: B.truncate(4, _x()),
    "bvult": lambda: B.bvult(_x(), _y()),
    "bvule": lambda: B.bvule(_x(), _y()),
    "bvugt": lambda: B.bvugt(_x(), _y()),
    "bvuge": lambda: B.bvuge(_x(), _y()),
    "bvslt": lambda: B.bvslt(_x(), _y()),
    "bvsle": lambda: B.bvsle(_x(), _y()),
    "bvsgt": lambda: B.bvsgt(_x(), _y()),
    "bvsge": lambda: B.bvsge(_x(), _y()),
    "substitute": lambda: B.substitute(B.bvadd(_x(), _y()), {_y(): B.bv(1, 8)}),
    "substitute_value": lambda: S._instantiate([B.eq(B.bvmul(_x(), _y()), _x())], _y(), 3)[0],
    "rebuild": lambda: B.rebuild(T.BVOR, (_x(), _y()), ()),
}


@pytest.mark.parametrize("build", [*RAW.values(), *BUILDER.values()],
                         ids=[*RAW, *BUILDER])
def test_equal_inputs_give_the_same_object(build):
    first, second = build(), build()
    assert first is second
    assert hash(first) == object.__hash__(first)
    assert len({first, second}) == 1


def test_distinct_terms_are_unequal():
    assert B.bv_var("id_w", 8) != B.bv_var("id_w", 16)
    assert B.bvadd(_x(), _y()) != B.bvsub(_x(), _y())
    assert B.bv(1, 8) != 1


@pytest.mark.parametrize(
    "duplicate", [lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_terms_cannot_be_duplicated(duplicate):
    with pytest.raises(AttributeError, match="immutable"):
        duplicate(B.bvadd(_x(), _y()))


def _verify_all(hash_seed: str, cert_dir: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-m", "repro.tools.verify", "--all", "--no-cache",
         "--stats-json", "-", "--cert-dir", str(cert_dir)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    stats = json.loads(run.stdout[run.stdout.index("\n{") + 1:])
    return _without_timings(stats)


def _without_timings(value):
    if isinstance(value, dict):
        return {k: _without_timings(v) for k, v in value.items() if not k.endswith("_us")}
    return value


def test_work_and_certificates_do_not_depend_on_the_hash_seed(tmp_path):
    first = _verify_all("0", tmp_path / "seed0")
    second = _verify_all("1", tmp_path / "seed1")
    assert first["ok"] and first == second
    names = sorted(p.name for p in (tmp_path / "seed0").iterdir())
    assert names and names == sorted(p.name for p in (tmp_path / "seed1").iterdir())
    for name in names:
        assert (tmp_path / "seed0" / name).read_bytes() == (
            tmp_path / "seed1" / name
        ).read_bytes(), name
