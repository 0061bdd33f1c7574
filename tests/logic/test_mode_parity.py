"""Slicing-independence of verification: goal slicing is a pure
optimisation — outcome maps and proof certificates must be byte-identical
to a run whose solver sees every goal whole (``whole_goals``)."""

import json
from contextlib import nullcontext

from repro.casestudies import verify_case
from repro.smt.solver import clear_check_cache

from .._reference import whole_goals


def _certificate(name: str, engine, **kwargs) -> str:
    clear_check_cache()
    try:
        with engine():
            _case, report = verify_case(name, kwargs)
        assert report.ok
        return json.dumps(report.proof.to_json(), sort_keys=True)
    finally:
        clear_check_cache()


def test_certificates_byte_identical_memcpy():
    reference = _certificate("memcpy_arm", whole_goals, n=2)
    assert _certificate("memcpy_arm", nullcontext, n=2) == reference


def test_certificates_byte_identical_binsearch():
    reference = _certificate("binsearch_riscv", whole_goals)
    assert _certificate("binsearch_riscv", nullcontext) == reference
