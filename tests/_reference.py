"""Reference implementations for parity tests.

The pipeline has one configuration: incremental solving with goal slicing.
The simpler engine that optimisation replaced stays in the source as a
code path the default pipeline still uses internally — the throwaway CDCL
core (``Solver._solve``).  The context managers below route whole runs
through it so tests can assert that the optimisations never change a
verdict, a trace or a certificate.  Patches are class- or module-level and
last for the ``with`` block only; they reach in-process work, not worker
processes.

The plain functions are the straightforward versions of code the pipeline
now runs faster: the brute-force inverse of Arm's ``DecodeBitMasks`` and
the always-sorted state comparison.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

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


def brute_force_bitmask_immediate(value: int, datasize: int) -> tuple[int, int, int]:
    """Invert DecodeBitMasks by trying every ``(N, immr, imms)`` in turn;
    raises ValueError when no encoding produces ``value``."""
    from repro.arch.arm.model import decode_bit_masks

    for esize_log in range(1, 7):
        esize = 1 << esize_log
        if esize > datasize:
            break
        for s in range(esize - 1):
            for r in range(esize):
                immn = 1 if esize == 64 else 0
                imms = ((~(esize * 2 - 1) & 0x3F) | s) & 0x3F
                if esize == 64:
                    imms = s
                try:
                    if decode_bit_masks(immn, imms, r, datasize) == value:
                        return immn, r, imms
                except ValueError:
                    continue
    raise ValueError(f"0x{value:x} is not a logical immediate")


def sorted_diff(a, b, labels_a=None, labels_b=None,
                a_name: str = "interp", b_name: str = "itl") -> list[str]:
    """``diff_states`` without its equality fast path: always walk the
    sorted union of registers, then of memory addresses, then labels."""
    out: list[str] = []
    for reg in sorted(set(a.regs) | set(b.regs), key=str):
        va, vb = a.read_reg(reg), b.read_reg(reg)
        if va != vb:
            out.append(
                f"register {reg} diverges: {a_name}={va!r} vs {b_name}={vb!r}"
            )
    for addr in sorted(set(a.mem) | set(b.mem)):
        va, vb = a.mem.get(addr), b.mem.get(addr)
        if va != vb:
            out.append(
                f"memory 0x{addr:x} diverges: {a_name}={va!r} vs {b_name}={vb!r}"
            )
    if labels_a is not None and labels_b is not None and labels_a != labels_b:
        out.append(
            f"labels diverge: {a_name}={labels_a} vs {b_name}={labels_b}"
        )
    return out
