"""The pipeline has one engine configuration.

Incremental solving and goal slicing are always on; their parity with
the simpler reference engines is tested through ``tests/_reference.py``,
not selected at run time.  This guard keeps kill switches from creeping
back in as environment variables or CLI flags (``--no-parametric`` names
an engine that no longer exists).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.tools.verify import main

SRC = Path(repro.__file__).resolve().parent  # .../src/repro


def test_no_module_reads_a_kill_switch_variable():
    pattern = re.compile(r"REPRO_NO_\w*")
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


@pytest.mark.parametrize("flag", ["--no-parametric", "--no-incremental", "--no-slice"])
def test_verify_rejects_engine_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--all", flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
