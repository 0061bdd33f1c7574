"""Context-scoped pipeline configuration.

Case studies call :func:`repro.frontend.program.generate_instruction_map`
from deep inside their ``build()`` functions; threading a ``cache``
argument through every one of them would couple all nine modules to the
driver.  Instead the driver scopes a :class:`PipelineConfig` via
:func:`configured` and the frontend consults :func:`current_config` — the
same ambient-context pattern the fault injector uses.

The config is a :class:`contextvars.ContextVar`, so it is per-thread/task
and never leaks across unrelated work.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class PipelineConfig:
    """Ambient knobs for trace generation.

    ``cache`` an optional :class:`repro.cache.DiskCache`; ``kept_traces``
    an optional :class:`repro.service.batcher.KeptTraces`, the verification
    daemon's cross-job trace map — when set, the frontend's loop asks it
    for each opcode's trace before running Isla.
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
