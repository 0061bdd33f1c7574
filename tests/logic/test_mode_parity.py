"""Engine-independence of verification: the incremental backend and goal
slicing are pure optimisations — outcome maps and proof certificates must
be byte-identical to a serial run on the reference solver (a fresh SAT
core per query, no slicing)."""

import json
from contextlib import ExitStack

import pytest

from repro.casestudies import verify_case
from repro.smt.solver import clear_check_cache

from .._reference import throwaway_engine, whole_goals

#: Reference engines to swap in, per configuration under test.
ENGINES = {
    "inc+slice": (),
    "inc": (whole_goals,),
    "slice": (throwaway_engine,),
    "fresh": (throwaway_engine, whole_goals),
}


def _certificate(name: str, engines, **kwargs) -> str:
    clear_check_cache()
    try:
        with ExitStack() as stack:
            for engine in engines:
                stack.enter_context(engine())
            _case, report = verify_case(name, kwargs)
        assert report.ok
        return json.dumps(report.proof.to_json(), sort_keys=True)
    finally:
        clear_check_cache()


@pytest.mark.parametrize("config", ["inc+slice", "inc", "slice"])
def test_certificates_byte_identical_memcpy(config):
    reference = _certificate("memcpy_arm", ENGINES["fresh"], n=2)
    assert _certificate("memcpy_arm", ENGINES[config], n=2) == reference


def test_certificates_byte_identical_binsearch():
    reference = _certificate("binsearch_riscv", ENGINES["fresh"])
    assert _certificate("binsearch_riscv", ENGINES["inc+slice"]) == reference
