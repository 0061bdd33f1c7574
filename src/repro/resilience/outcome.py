"""The verification outcome lattice and per-run reports.

Outcomes are ordered ``verified > degraded > unknown > failed``; every
governance mechanism (budgets, the degradation ladder, fault handling) may
only move a result *down* this order — the fail-safe invariant.  A
``degraded`` block has a complete proof skeleton but carries residual
obligations (side conditions the solver could not decide); an ``unknown``
block's proof could not be completed at all within budget; a ``failed``
block has a genuine refutation or structural proof error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

VERIFIED = "verified"
DEGRADED = "degraded"
UNKNOWN = "unknown"
FAILED = "failed"

OUTCOMES = (VERIFIED, DEGRADED, UNKNOWN, FAILED)

_RANK = {VERIFIED: 3, DEGRADED: 2, UNKNOWN: 1, FAILED: 0}


def worst(*outcomes: str) -> str:
    """The meet of the given outcomes (``verified`` if none given)."""
    result = VERIFIED
    for outcome in outcomes:
        if outcome not in _RANK:
            raise ValueError(f"unknown outcome {outcome!r}")
        if _RANK[outcome] < _RANK[result]:
            result = outcome
    return result


@dataclass(frozen=True)
class ResidualObligation:
    """A side condition the automation could not discharge.

    Instead of guessing (unsound) or crashing (useless), the pipeline
    converts an undecided query into this structured leftover: the goal,
    the pure assumptions it must hold under, and the *reason* it was left
    behind (exhausted budget, injected fault, unsupported operation, or a
    genuinely undecided query).  The independent checker re-attempts each
    residual and fails hard if one is refutable.
    """

    block: int
    description: str
    goal: Any  # smt Term (opaque here to keep this package dependency-free)
    assumptions: tuple  # tuple of smt Terms
    reason: str


@dataclass
class BlockOutcome:
    """Per-block verdict."""

    addr: int
    outcome: str
    reason: str = ""
    residuals: int = 0

    def render(self) -> str:
        extra = []
        if self.residuals:
            extra.append(f"{self.residuals} residual obligations")
        if self.reason:
            extra.append(self.reason)
        suffix = f" — {'; '.join(extra)}" if extra else ""
        return f"0x{self.addr:x}: {self.outcome}{suffix}"


@dataclass
class RunReport:
    """The result of a governed verification run.

    ``verify_program`` returns one of these instead of crashing: per-block
    outcomes, the (possibly partial) proof object, aggregate solver/cache
    statistics, budget consumption, and any injected faults observed.
    """

    blocks: dict[int, BlockOutcome] = field(default_factory=dict)
    proof: Any = None  # logic Proof (opaque to avoid an import cycle)
    budget: Any = None  # resilience Budget
    solver_stats: dict[str, int] = field(default_factory=dict)
    cache_stats: dict[str, int] = field(default_factory=dict)
    faults: tuple = ()  # tuple[FaultEvent, ...]

    @property
    def outcome(self) -> str:
        return worst(*(b.outcome for b in self.blocks.values()))

    @property
    def ok(self) -> bool:
        return self.outcome == VERIFIED

    @property
    def residual_count(self) -> int:
        return sum(b.residuals for b in self.blocks.values())

    def render(self) -> str:
        lines = [f"outcome: {self.outcome}"]
        for addr in sorted(self.blocks):
            lines.append("  " + self.blocks[addr].render())
        interesting = {
            k: v
            for k, v in self.solver_stats.items()
            if v and k not in ("checks", "sat_results", "unsat_results")
        }
        if interesting:
            stats = ", ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
            lines.append(f"  solver: {stats}")
        if self.cache_stats.get("evictions") or self.cache_stats.get("injected_drops"):
            lines.append(
                "  cache: evictions={evictions}, injected_drops={injected_drops}".format(
                    **{
                        "evictions": self.cache_stats.get("evictions", 0),
                        "injected_drops": self.cache_stats.get("injected_drops", 0),
                    }
                )
            )
        if self.budget is not None and getattr(self.budget, "exhausted", None):
            lines.append(f"  budget exhausted: {self.budget.exhausted}")
        if self.faults:
            lines.append(f"  faults: {len(self.faults)} injected")
        return "\n".join(lines)
