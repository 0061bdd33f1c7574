"""Cache-aware orchestration of the verification pipeline.

Each block specification's proof is independent (the paper proves its
per-instruction specs the same way), so the driver proves blocks one at a
time on the case it built, each with its own budget share and fault seed:

- :func:`~repro.parallel.scheduler.verify_case_parallel` — builds a case
  study, then verifies each block as its own fail-soft task and merges the
  results into one deterministic
  :class:`~repro.resilience.outcome.RunReport`;
- :class:`~repro.parallel.config.PipelineConfig` — a context-scoped knob
  (``cache``, ``kept_traces``) so case-study ``build()`` functions pick up
  the on-disk cache and the daemon's kept traces without signature changes.

Everything runs in the calling process.  Parallelism across jobs comes
from separate processes: fleet shards (:mod:`repro.service.supervisor`).
The merge runs in block-address order, so outcome maps, certificates and
budget accounting are byte-identical to the serial CLI's.
"""

from .config import PipelineConfig, configured, current_config
from .scheduler import verify_case_parallel

__all__ = [
    "PipelineConfig",
    "configured",
    "current_config",
    "verify_case_parallel",
]
