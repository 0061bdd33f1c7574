"""``repro.casestudies`` — one module per Fig. 12 row of the paper.

Each module exposes ``build()`` (assemble + run Isla + package specs) and
``verify(case)`` (run the Islaris proof automation).  The modules are the
ones :data:`repro.cases.CASE_STUDIES` names, all imported here.
"""

import importlib

from ..cases import CASE_STUDIES

__all__ = list(CASE_STUDIES)

for _name in __all__:
    globals()[_name] = importlib.import_module(f".{_name}", __name__)
del _name
