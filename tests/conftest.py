"""Suite-wide guards."""

from __future__ import annotations

import sys

import pytest


def _installed_check_store():
    """The solver's process-wide verdict store; ``None`` until the solver
    is imported, which is also what a fresh import installs."""
    solver = sys.modules.get("repro.smt.solver")
    return None if solver is None else solver.persistent_check_store()


@pytest.fixture(autouse=True, scope="module")
def no_leaked_check_store():
    """Fail a module that leaves a different persistent check store
    installed from the one it found: a leaked store answers later
    modules' queries, so their budget and fault tests would depend on
    test order."""
    before = _installed_check_store()
    yield
    after = _installed_check_store()
    assert after is before, (
        f"module left check store {after!r} installed (found {before!r})"
    )
