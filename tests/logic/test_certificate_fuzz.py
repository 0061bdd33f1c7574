"""A certificate is untrusted input: a malformed one is a typed rejection.

``check_certificate`` (and ``tools/check`` on top of it) must end every
input in either an accepted report or a :class:`CheckFailure` — never a
``KeyError``, ``ValueError`` or any other traceback.  The fuzz base is a
real certificate (``rbit``) plus one residual obligation and an outcome
map, so every optional field of the format is present; hypothesis then
drops fields, retypes them, cuts strings (term s-expressions included) and
truncates the JSON text.
"""

from __future__ import annotations

import functools
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.logic.checker import CheckFailure, CheckReport, check_certificate
from repro.resilience.outcome import DEGRADED, ResidualObligation

#: A block the base certificate marks degraded, so its residual is excused.
RESIDUAL_BLOCK = 0x10

#: Replacement values, one or more of every JSON type.
VALUES = (None, True, False, 0, -1, 2**70, 1.5, "", "x", "bv0", [], [0], {}, {"x": 0})


@functools.lru_cache(maxsize=None)
def base_text() -> str:
    from repro.casestudies import rbit

    proof = rbit.verify(rbit.build())
    condition = next(sc for step in proof.steps for sc in step.side_conditions)
    proof.residual_obligations.append(
        ResidualObligation(
            RESIDUAL_BLOCK, "fuzz residual", condition.goal,
            condition.assumptions, "budget exhausted: conflicts",
        )
    )
    proof.outcomes = {RESIDUAL_BLOCK: DEGRADED}
    return proof.to_json()


@functools.lru_cache(maxsize=None)
def paths() -> tuple[tuple, ...]:
    """Every key/index path into the base certificate's JSON tree."""
    found = []

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else (
            enumerate(node) if isinstance(node, list) else ()
        )
        for key, child in items:
            found.append(path + (key,))
            walk(child, path + (key,))

    walk(json.loads(base_text()), ())
    return tuple(found)


def _mutate(path: tuple, change) -> str:
    data = json.loads(base_text())
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    change(parent, path[-1])
    return json.dumps(data)


def _accepted_or_rejected(text: str) -> None:
    try:
        report = check_certificate(text)
    except CheckFailure:
        return
    assert isinstance(report, CheckReport)


def test_base_certificate_is_accepted():
    report = check_certificate(base_text())
    assert report.residuals_discharged == 1
    assert report.steps_checked > 0


def _drop(parent, key):
    del parent[key]


@given(st.sampled_from(paths()))
@settings(max_examples=150, deadline=None)
def test_dropped_field(path):
    _accepted_or_rejected(_mutate(path, _drop))


@given(st.sampled_from(paths()), st.sampled_from(VALUES))
@settings(max_examples=200, deadline=None)
def test_retyped_field(path, value):
    def retype(parent, key):
        parent[key] = value

    _accepted_or_rejected(_mutate(path, retype))


@given(st.sampled_from(paths()), st.integers(0, 200))
@settings(max_examples=150, deadline=None)
def test_cut_string(path, keep):
    def cut(parent, key):
        if isinstance(parent[key], str):
            parent[key] = parent[key][:keep]

    _accepted_or_rejected(_mutate(path, cut))


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_truncated_text(cut):
    text = base_text()
    _accepted_or_rejected(text[: cut % len(text)])


@given(st.binary(max_size=64))
@settings(max_examples=50, deadline=None)
def test_arbitrary_bytes(data):
    _accepted_or_rejected(data)


class TestCheckCli:
    """The three malformed certificates that used to end in a traceback."""

    @pytest.mark.parametrize("mangle", [
        lambda text: text[: len(text) // 2],
        lambda text: text.replace('"side_conditions": ', '"dropped": ', 1),
        lambda text: text.replace('"version": 1', '"version": 99', 1),
    ], ids=["truncated", "no-side-conditions", "version-99"])
    def test_rejected_with_exit_1(self, tmp_path, capsys, mangle):
        from repro.tools.check import main

        path = tmp_path / "cert.json"
        path.write_text(mangle(base_text()))
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("REJECTED: malformed certificate: ")

    def test_unreadable_file_is_a_usage_error(self, tmp_path):
        from repro.tools.check import main

        with pytest.raises(SystemExit) as exit_info:
            main([str(tmp_path / "missing.json")])
        assert exit_info.value.code == 2
