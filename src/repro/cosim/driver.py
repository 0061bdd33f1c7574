"""Lockstep co-simulation driver and the differential-testing shrinker.

For every generated case the driver steps the fast interpreter and the
concrete ITL operational semantics (the authoritative side) from the same
start state, one instruction at a time, and diffs registers, memory, and
visible MMIO labels after every step.  Any mismatch is a
:class:`Divergence`.  The conformance suite's second oracle, the mini-Sail
model on one-word cases, reuses the trace cache, :class:`Divergence`,
:func:`shrink_case` and :func:`record_reproducer`.

Traces come from the same Isla pipeline the proof stack uses
(``trace_for_opcode`` under the architecture's pinned assumptions) and
are cached per opcode for the process, behind a lock: in-process shards
(several daemons in one process, as the tests and the chaos harness run
them) share the cache.  Only exhaustive enumerations are eligible for
replay from arbitrary states.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..arch import registry
from ..isla import IslaError, trace_for_opcode
from ..itl.opsem import Discarded, Failure, Runner
from .archs import COSIM_ARCHS, CosimArch
from .generate import CoverageMap, ProgramGenerator
from .interp import CosimDomainError, CosimUnsupported, interp_for
from .state import ProgramCase, build_machine_state, diff_states

#: ``(arch_name, opcode) -> Trace | None`` — None caches "out of scope".
_TRACE_CACHE: dict[tuple[str, int], object] = {}
_TRACE_LOCK = threading.Lock()

#: ``(arch_name, opcode) -> decode arm | None`` — None caches "undecodable".
#: Decoding is pure, so shards share it without a lock.
_ARM_CACHE: dict[tuple[str, int], str | None] = {}


def _decode_arm(arch: CosimArch, opcode: int) -> str | None:
    """``opcode``'s decode arm, or None when the decoder rejects it;
    decoded once per process."""
    key = (arch.name, opcode)
    try:
        return _ARM_CACHE[key]
    except KeyError:
        pass
    try:
        arm = arch.decode.decode_arm(opcode)
    except arch.decode.UnknownInstruction:
        arm = None
    _ARM_CACHE[key] = arm
    return arm


def cached_trace(arch: CosimArch, opcode: int):
    """The exhaustive ITL trace for ``opcode``, or None when out of scope.

    Generation happens at most once per opcode across the process's
    threads (one per in-process shard); replay
    of the returned trace is pure, so the cached object is shared freely.
    """
    key = (arch.name, opcode)
    try:
        return _TRACE_CACHE[key]
    except KeyError:
        pass
    with _TRACE_LOCK:
        if key not in _TRACE_CACHE:
            try:
                result = trace_for_opcode(arch.model, opcode, arch.assumptions())
                trace = result.trace if result.exhausted is None else None
            except IslaError:
                trace = None
            _TRACE_CACHE[key] = trace
        return _TRACE_CACHE[key]


@dataclass
class Divergence:
    """A witness that an oracle and the ITL trace disagree on a case;
    ``kind`` is ``"cosim"`` (fast interpreter) or ``"differential"``
    (mini-Sail model, the conformance suite)."""

    arch: str
    case: ProgramCase
    step: int
    pc: int
    opcode: int
    arm: str
    details: list[str]
    kind: str = "cosim"

    @property
    def signature(self) -> str:
        """What shrinking preserves: the diverging opcode plus the
        subject of the first difference (``register R3 diverges``,
        ``memory 0x5008 diverges``, ``labels diverge``) without its
        values; an ITL ⊥ keeps its full reason text."""
        first = self.details[0] if self.details else ""
        if "⊥" not in first:
            first = first.split(":", 1)[0]
        return f"{self.opcode:#010x}: {first}"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "arch": self.arch,
            "case": self.case.to_json(),
            "step": self.step,
            "pc": hex(self.pc),
            "opcode": hex(self.opcode),
            "arm": self.arm,
            "reason": self.details[0] if self.details else "",
        }


@dataclass
class BatchReport:
    """Counters for one co-simulation batch."""

    arch: str
    seed: int
    cases: int = 0
    instructions: int = 0
    skips: int = 0
    trace_misses: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    coverage: CoverageMap | None = None
    elapsed_s: float = 0.0

    def to_json(self) -> dict:
        return {
            "arch": self.arch,
            "seed": self.seed,
            "cases": self.cases,
            "instructions": self.instructions,
            "skips": self.skips,
            "trace_misses": self.trace_misses,
            "divergences": [d.to_json() for d in self.divergences],
            "coverage": self.coverage.to_json() if self.coverage else None,
            "elapsed_s": round(self.elapsed_s, 3),
        }


class CoSimDriver:
    """Steps the fast interpreter against the ITL opsem in lockstep."""

    def __init__(
        self,
        arch: CosimArch,
        defect: str | None = None,
        max_steps: int = 48,
    ) -> None:
        self.arch = arch
        self.defect = defect
        self.max_steps = max_steps

    # -- one case -----------------------------------------------------------

    def run_case(self, case: ProgramCase) -> tuple[Divergence | None, dict]:
        """Run one case to completion; returns ``(divergence, counters)``.

        The case ends without divergence when: the PC leaves the program,
        the pinned-register domain is escaped (the ITL traces are only
        authoritative inside it), the next opcode has no exhaustive trace,
        or the interpreter declares the encoding unsupported/out of domain.
        """
        counters = {"instructions": 0, "skips": 0, "trace_misses": 0, "arms": []}
        interp_state = build_machine_state(self.arch, case)
        itl_state = interp_state.copy()
        interp = interp_for(self.arch, interp_state, defect=self.defect)
        pc_reg = self.arch.model.pc_reg
        code_end = case.pc + 4 * len(case.words)

        for step in range(self.max_steps):
            if not self.arch.pins_hold(itl_state):
                break
            pc = itl_state.read_reg(pc_reg)
            if pc is None or not (case.pc <= pc < code_end) or pc % 4:
                break
            opcode = itl_state.read_mem(pc, 4)
            arm = _decode_arm(self.arch, opcode)
            if arm is None:
                break
            trace = cached_trace(self.arch, opcode)
            if trace is None:
                counters["trace_misses"] += 1
                break

            labels_before = len(interp.labels)
            try:
                interp.step()
            except (CosimUnsupported, CosimDomainError):
                counters["skips"] += 1
                break

            runner = Runner(itl_state)
            try:
                runner.run_trace(trace)
            except (Failure, Discarded) as exc:
                reason = getattr(exc, "reason", "discarded")
                return (
                    Divergence(
                        arch=self.arch.name, case=case, step=step, pc=pc,
                        opcode=opcode, arm=arm,
                        details=[f"itl-bottom: ITL replay reached ⊥ ({reason})"],
                    ),
                    counters,
                )
            itl_state = runner.state

            diff = diff_states(
                interp.state, itl_state,
                interp.labels[labels_before:], runner.labels,
            )
            if diff:
                return (
                    Divergence(
                        arch=self.arch.name, case=case, step=step, pc=pc,
                        opcode=opcode, arm=arm, details=diff,
                    ),
                    counters,
                )
            counters["instructions"] += 1
            counters["arms"].append(arm)
        return None, counters

    # -- shrinking ----------------------------------------------------------

    def shrink(self, case: ProgramCase, divergence: Divergence) -> ProgramCase:
        """Minimise ``case`` while it still diverges with ``divergence``'s
        signature (a reduction that merely fails differently is rejected)."""

        def still_fails(candidate: ProgramCase) -> bool:
            redo, _ = self.run_case(candidate)
            return redo is not None and redo.signature == divergence.signature

        return shrink_case(self.arch, case, still_fails)

    # -- batches ------------------------------------------------------------

    def run_batch(
        self,
        seed: int,
        count: int,
        shrink: bool = True,
        max_divergences: int = 10,
    ) -> BatchReport:
        """Generate and run ``count`` cases; shrink any divergences found."""
        start = time.monotonic()
        generator = ProgramGenerator(self.arch, seed)
        executed = CoverageMap(self.arch.name)
        report = BatchReport(arch=self.arch.name, seed=seed, coverage=executed)
        for _ in range(count):
            program = generator.program()
            divergence, counters = self.run_case(program.case)
            report.cases += 1
            report.instructions += counters["instructions"]
            report.skips += counters["skips"]
            report.trace_misses += counters["trace_misses"]
            for arm in counters["arms"]:
                executed.record(arm)
            if divergence is not None:
                if shrink:
                    shrunk = self.shrink(program.case, divergence)
                    redo, _ = self.run_case(shrunk)
                    if redo is not None:
                        divergence = redo
                report.divergences.append(divergence)
                if len(report.divergences) >= max_divergences:
                    break
        report.elapsed_s = time.monotonic() - start
        return report


def shrink_case(
    arch: CosimArch,
    case: ProgramCase,
    still_fails: Callable[[ProgramCase], bool],
) -> ProgramCase:
    """Greedy delta-debug of a failing case, program first, then state,
    re-checking ``still_fails`` after *every* reduction.  Callers compare
    :attr:`Divergence.signature` with the original's, so a reduction that
    merely fails differently is rejected."""
    current = case.copy()
    nop = registry.get(arch.name).nop

    # 1. Truncate the program after the diverging step's reach.
    for length in range(1, len(current.words)):
        candidate = current.copy()
        candidate.words = candidate.words[:length]
        if still_fails(candidate):
            current = candidate
            break

    # 2. Delete words one at a time, repeat to fixpoint.  Deletion shifts
    #    later words down (relative branch displacements keep their
    #    in-program targets); the re-check rejects any deletion that
    #    changes what fails, so this stays sound even for programs with
    #    absolute-target branches (bclr/bcctr).
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(current.words):
            candidate = current.copy()
            del candidate.words[i]
            if candidate.words and still_fails(candidate):
                current = candidate
                changed = True
            else:
                i += 1

    # 3. Replace words with NOPs, one at a time, repeat to fixpoint.
    changed = True
    while changed:
        changed = False
        for i, word in enumerate(current.words):
            if word == nop:
                continue
            candidate = current.copy()
            candidate.words[i] = nop
            if still_fails(candidate):
                current = candidate
                changed = True

    # 4. Drop the data memory window entirely if possible.
    candidate = current.copy()
    candidate.mem = {}
    if still_fails(candidate):
        current = candidate

    # 5. Minimise registers: delete, then 0, then 1.
    for name in sorted(current.regs):
        if name in arch.pins:
            continue
        for value in (None, 0, 1):
            candidate = current.copy()
            del candidate.regs[name]
            if value is not None:
                candidate.regs[name] = value
            if still_fails(candidate):
                current = candidate
                break
    return current


def record_reproducer(divergence: Divergence, corpus_dir: Path | str) -> Path:
    """Append a divergence to the corpus file of its architecture under
    ``corpus_dir``; the start state is stored as ``ProgramCase`` JSON
    under ``"case"``."""
    path = Path(corpus_dir) / f"{divergence.arch}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(divergence.to_json()) + "\n")
    return path


def run_service_batch(
    arch_name: str,
    seed: int = 0,
    count: int = 50,
    defect: str | None = None,
    max_steps: int = 48,
    shrink: bool = True,
) -> dict:
    """Daemon entry point: one co-sim batch as a JSON-able result payload."""
    arch = COSIM_ARCHS[arch_name]
    driver = CoSimDriver(arch, defect=defect, max_steps=max_steps)
    report = driver.run_batch(seed=seed, count=count, shrink=shrink)
    payload = report.to_json()
    payload["outcome"] = "pass" if not report.divergences else "divergence"
    return payload
