"""The names of the case studies, one per Fig. 12 row of the paper.

The one list of them: :mod:`repro.casestudies` builds its ``__all__``
from it and imports each module it names.  It lives outside that package
so that a process which only names cases (the fleet router admitting a
job, ``tools/submit`` parsing its arguments) loads no case module.
"""

CASE_STUDIES = (
    "binsearch_arm", "binsearch_riscv", "hvc", "memcpy_arm", "memcpy_ppc",
    "memcpy_riscv", "pkvm", "rbit", "sign_ppc", "uart", "unaligned",
)
