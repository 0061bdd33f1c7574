"""The benchmark's own checks: negative controls and metric coverage.

Run from the root of a checkout::

    python3 -m pytest -q perfbench

Every run here uses ``--size smoke``, the smallest inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracer  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
         "--size", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_cosim_defect_is_reported_as_failure():
    code, out = bench("--workload", "cosim", "--trace", "0",
                      "--defect", "arm-adds-carry-inverted")
    result = result_of(out)
    assert code != 0
    assert result["failed"] > 0 and not result["correct"]
    assert "error_rate" in out


def test_zero_conflict_budget_is_reported_as_failure():
    code, out = bench("--workload", "verify_cold", "--trace", "0",
                      "--conflicts", "0")
    result = result_of(out)
    assert code != 0
    assert result["failed"] > 0 and not result["correct"]


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, group):
    code, out = bench("--workload", "all", "--trace", str(trace))
    result = result_of(out)
    assert code == 0 and result["correct"] and result["failed"] == 0, out
    for workload in spec()["workloads"]:
        for metric in spec()[group]:
            key = f"{workload['name']}.{metric['name']}"
            assert key in result["metrics"], key
            assert result["metrics"][key]["unit"] == metric["unit"], key
            if group == "end_to_end":
                assert result["metrics"][key]["value"] > 0, key
    if trace:
        assert "unattributed share of verify_s" in out
        assert "tracing overhead" in out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = bench("--workload", "cosim", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not out.strip()


def test_scale_is_identity_at_nominal_speed_and_halves_when_host_is_slow():
    nominal = hostspeed.REFERENCE_S
    assert hostspeed.scale(3.0, nominal, nominal) == pytest.approx(3.0)
    assert hostspeed.scale(3.0, 2 * nominal) == pytest.approx(1.5)


def test_sampler_mean_uses_samples_inside_the_interval_or_the_next():
    sampler = hostspeed.Sampler()
    sampler.stamps = [10.0, 11.0, 12.0, 13.0]
    sampler.times = [1.0, 2.0, 3.0, 4.0]
    sampler.ticks = [(0, 0), (0, 100), (0, 200), (0, 300)]
    assert sampler.mean() == pytest.approx(2.5)
    assert sampler.mean(10.5, 12.5) == pytest.approx(2.5)
    assert sampler.mean(11.2, 11.8) == 3.0
    assert sampler.mean(20.0, 21.0) == 4.0
    # Half the CPU ticks between 12 and 13 were stolen: half the capacity.
    sampler.ticks[3] = (50, 300)
    assert sampler.mean(12.5, 12.9) == pytest.approx(8.0)
    with hostspeed.Sampler(period_s=0.01) as live:
        sum(range(100000))
    assert live.times and all(t > 0 for t in live.times)


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()

    def inner():
        return sum(range(20000))

    inner_span = t.span(inner, "inner")

    def outer():
        return inner_span() + sum(range(20000))

    t.span(outer, "outer")()
    assert t.calls == {"inner": 1, "outer": 1}
    assert 0 < t.self_s["outer"] < t.root_s
    assert t.self_s["outer"] + t.self_s["inner"] == pytest.approx(t.root_s)
