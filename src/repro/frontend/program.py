"""The Islaris frontend (Fig. 1): machine code + constraints → instruction map.

Feeds each opcode of a program through Isla under per-program default
assumptions (plus optional per-address ones), producing the address → trace
instruction map the proof engine consumes.  This plays the role of the
paper's annotated-objdump tooling that generates the Coq embedding of the
traces.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from ..isla.assumptions import Assumptions
from ..isla.executor import IslaResult, trace_for_opcode
from ..itl.machine import MachineState
from ..itl.trace import Trace
from ..sail.model import IsaModel
from ..smt.terms import Term


@dataclass
class ProgramImage:
    """Machine code laid out at addresses.

    ``opcodes`` maps address → 32-bit opcode; entries may be
    :class:`~repro.smt.Term` for partially symbolic instructions (the pKVM
    relocation patching).  ``labels`` are optional symbolic names.
    """

    opcodes: dict[int, int | Term] = field(default_factory=dict)
    labels: dict[str, int] = field(default_factory=dict)

    def place(self, addr: int, opcodes: list[int | Term], label: str | None = None) -> "ProgramImage":
        if label is not None:
            self.labels[label] = addr
        for i, op in enumerate(opcodes):
            a = addr + 4 * i
            if a in self.opcodes:
                raise ValueError(f"overlapping code at 0x{a:x}")
            self.opcodes[a] = op
        return self

    def __getitem__(self, label: str) -> int:
        return self.labels[label]

    def concrete_bytes(self) -> dict[int, bytes]:
        """Little-endian code bytes (requires all opcodes concrete)."""
        out: dict[int, bytes] = {}
        for addr, op in self.opcodes.items():
            if not isinstance(op, int):
                if op.is_value():
                    op = op.value
                else:
                    raise ValueError(f"symbolic opcode at 0x{addr:x}")
            out[addr] = op.to_bytes(4, "little")
        return out


@dataclass(frozen=True)
class PipelineConfig:
    """Ambient knobs for trace generation.

    Case studies call :func:`generate_instruction_map` from deep inside
    their ``build()`` functions; rather than thread these through every
    one, the driver scopes them with :func:`configured`.  ``cache`` is an
    optional :class:`repro.cache.DiskCache`; ``kept_traces`` an optional
    :class:`repro.service.batcher.KeptTraces`, the verification daemon's
    cross-job trace map, asked for each opcode's trace before Isla runs.
    The config is a :class:`contextvars.ContextVar`, so it is per thread
    and task and never leaks across unrelated work.
    """

    cache: Any = None
    kept_traces: Any = None


_CONFIG: contextvars.ContextVar[PipelineConfig] = contextvars.ContextVar(
    "repro_pipeline_config", default=PipelineConfig()
)


def current_config() -> PipelineConfig:
    return _CONFIG.get()


@contextmanager
def configured(cache: Any = None, kept_traces: Any = None):
    """Scope a :class:`PipelineConfig` for the dynamic extent of a block."""
    token = _CONFIG.set(PipelineConfig(cache=cache, kept_traces=kept_traces))
    try:
        yield _CONFIG.get()
    finally:
        _CONFIG.reset(token)


@dataclass
class FrontendResult:
    """The generated instruction map plus per-instruction Isla metrics."""

    traces: dict[int, Trace]
    results: dict[int, IslaResult]

    @property
    def total_events(self) -> int:
        return sum(t.num_events() for t in self.traces.values())

    @property
    def total_model_steps(self) -> int:
        return sum(r.model_steps for r in self.results.values())

    @property
    def total_paths(self) -> int:
        return sum(r.paths for r in self.results.values())


def generate_instruction_map(
    model: IsaModel,
    image: ProgramImage,
    default_assumptions: Assumptions | None = None,
    per_address: dict[int, Assumptions] | None = None,
    *,
    cache=None,
) -> FrontendResult:
    """Run Isla on every opcode of the image, in address order.

    ``cache`` defaults to the ambient :class:`PipelineConfig` (scoped by
    the driver via :func:`configured`), so the case-study ``build()``
    functions pick up on-disk caching and the daemon's kept traces without
    signature changes.  Counts (cache lookups) land in the caller's run
    scope (:mod:`repro.obs`), whichever tier served them.
    """
    config = current_config()
    if cache is None:
        cache = config.cache
    # The daemon's cross-job trace map.  Builds never run under fault
    # injection (``verify_case`` injects around the verify step only), so
    # no run's fault schedule can leak into a kept trace.
    run = trace_for_opcode
    if config.kept_traces is not None:
        run = config.kept_traces.trace_for_opcode
    per_address = per_address or {}
    traces: dict[int, Trace] = {}
    results: dict[int, IslaResult] = {}
    for addr in sorted(image.opcodes):
        opcode = image.opcodes[addr]
        assumptions = (default_assumptions or Assumptions()).merged_with(
            per_address.get(addr)
        )
        result = run(model, opcode, assumptions, cache=cache)
        traces[addr] = result.trace
        results[addr] = result
    return FrontendResult(traces, results)


def load_image_into_state(image: ProgramImage, state: MachineState) -> None:
    """Install the image's code bytes into a concrete machine state (for
    opsem/adequacy runs and for concrete model execution)."""
    for addr, code in image.concrete_bytes().items():
        state.load_bytes(addr, code)


def install_traces(image_traces: dict[int, Trace], state: MachineState) -> None:
    """Install traces as the instruction map of an ITL machine state."""
    for addr, trace in image_traces.items():
        state.set_instr(addr, trace)
