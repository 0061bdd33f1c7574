"""Whole-program parametric parity: for every Fig. 12 case study at its
default size, ``tools/verify`` writes a byte-identical certificate whether
opcodes are served from parametric families (the default) or executed
directly by the reference path."""

import json

import pytest

from repro import casestudies
from repro.tools.verify import main

from .._reference import direct_isla


def _run(name, out_dir):
    """Verify one case; returns (certificate bytes, parametric stats)."""
    stats_path = out_dir / "stats.json"
    argv = [name, "--no-cache", "--cert-dir", str(out_dir),
            "--stats-json", str(stats_path)]
    assert main(argv) == 0
    cert = (out_dir / f"{name}.cert.json").read_bytes()
    return cert, json.loads(stats_path.read_text())["cases"][name]["parametric"]


@pytest.mark.parametrize("name", casestudies.__all__)
def test_certificate_identical_to_direct_isla(name, tmp_path):
    with direct_isla():
        direct_cert, direct_stats = _run(name, tmp_path / "direct")
    cert, stats = _run(name, tmp_path / "parametric")
    assert direct_stats.get("family_instantiations", 0) == 0
    assert stats.get("family_instantiations", 0) > 0
    assert cert == direct_cert
