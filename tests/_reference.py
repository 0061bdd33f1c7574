"""Reference engines for parity tests.

The pipeline has one configuration: incremental solving with goal slicing,
and family-first (parametric) Isla dispatch.  The simpler engines those
optimisations replaced stay in the source as code paths the default
pipeline still uses internally — the throwaway CDCL core
(``Solver._solve``) and the direct symbolic path behind every parametric
guard fallback.  These context managers route whole runs through them so
tests can assert that the optimisations never change a verdict, a trace
or a certificate.

Patches are class- or module-level and last for the ``with`` block only;
they reach in-process work, not worker processes.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.isla.parametric import ParametricEngine
from repro.smt import solver as _solver


def _throwaway(self, goal, max_conflicts):
    return self._solve(goal, max_conflicts)


@contextmanager
def throwaway_engine():
    """Answer every query on a fresh CDCL core instead of the solver's
    persistent incremental context."""
    with mock.patch.object(_solver.Solver, "_solve_incremental", _throwaway):
        yield


@contextmanager
def whole_goals():
    """Make goal slicing see every goal as one component."""
    with mock.patch.object(_solver, "partition_goal", lambda goal: [list(goal)]):
        yield


@contextmanager
def fresh_solver():
    """The pre-incremental solver: a fresh core per query, no slicing."""
    with throwaway_engine(), whole_goals():
        yield


@contextmanager
def direct_isla():
    """Run every opcode on the direct symbolic path: family dispatch
    declines, exactly as it does when an instantiation guard fails."""
    with mock.patch.object(
        ParametricEngine, "try_parametric", lambda self, *args, **kwargs: None
    ):
        yield
