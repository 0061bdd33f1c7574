"""Service telemetry: counters, percentiles, exposition formats."""

from __future__ import annotations

import io
import json
import threading

from repro.service.telemetry import Telemetry


class TestCounters:
    def test_inc_and_snapshot(self):
        telemetry = Telemetry()
        telemetry.inc("jobs")
        telemetry.inc("jobs", 2)
        telemetry.gauge("queue_depth", 7)
        snap = telemetry.snapshot()
        assert snap["counters"]["jobs"] == 3
        assert snap["gauges"]["queue_depth"] == 7

    def test_merge_prefixes_numeric_stats(self):
        # A run report's stats join the daemon's counters through the one
        # additive merge, repro.obs.Counters.add.
        telemetry = Telemetry()
        report_stats = {"checks": 10, "mode": "incremental", "ok": True, "us": 1.5}
        telemetry.counters.add(report_stats, "solver_")
        telemetry.counters.add({"checks": 5}, "solver_")
        counters = telemetry.snapshot()["counters"]
        assert counters["solver_checks"] == 15
        assert counters["solver_us"] == 1.5
        assert "solver_mode" not in counters  # non-numeric dropped
        assert "solver_ok" not in counters  # bools are not counters

    def test_thread_safety_no_lost_updates(self):
        telemetry = Telemetry()
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            for _ in range(500):
                telemetry.inc("n")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert telemetry.snapshot()["counters"]["n"] == 4000


class TestLatency:
    def test_percentiles(self):
        telemetry = Telemetry()
        for ms in range(1, 101):
            telemetry.observe_latency(ms / 1000)
        lat = telemetry.snapshot()["latency"]
        assert lat["count"] == 100
        assert 0.045 <= lat["p50_s"] <= 0.055
        assert lat["p99_s"] >= 0.095
        assert lat["max_s"] == 0.1

    def test_reservoir_bounded(self):
        telemetry = Telemetry()
        for i in range(Telemetry.RESERVOIR + 100):
            telemetry.observe_latency(float(i))
        assert telemetry.snapshot()["latency"]["count"] <= Telemetry.RESERVOIR

    def test_empty_reservoir(self):
        lat = Telemetry().snapshot()["latency"]
        assert lat == {"count": 0, "p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0, "max_s": 0.0}


class TestExposition:
    def test_prometheus_render(self):
        telemetry = Telemetry()
        telemetry.inc("jobs_submitted", 3)
        telemetry.gauge("queue_depth", 2)
        telemetry.observe_latency(0.5)
        text = telemetry.render_prometheus()
        assert "repro_service_jobs_submitted_total 3" in text
        assert "repro_service_queue_depth 2" in text
        assert 'repro_service_job_latency_seconds{quantile="0.5"} 0.5' in text
        assert text.endswith("\n")

    def test_latency_summary_count_is_monotonic(self):
        """The reservoir trims itself, but the summary's ``_count`` and
        ``_sum`` keep every observation, and each sample belongs to a
        family with exactly one ``# TYPE`` line."""
        telemetry = Telemetry()
        telemetry.inc("jobs_completed")
        observations = Telemetry.RESERVOIR + 100
        for _ in range(observations):
            telemetry.observe_latency(0.5)
        text = telemetry.render_prometheus()
        samples = {}
        types: dict[str, list[str]] = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _hash, _type, family, kind = line.split()
                types.setdefault(family, []).append(kind)
            else:
                assert not line.startswith("#"), line
                name, value = line.split()
                samples[name] = float(value)
        assert all(len(kinds) == 1 for kinds in types.values()), types
        for name in samples:
            family = name.split("{")[0]
            if family not in types:
                family = family.removesuffix("_sum").removesuffix("_count")
                assert types[family] == ["summary"], name
        metric = "repro_service_job_latency_seconds"
        assert samples[f"{metric}_count"] == observations
        assert samples[f"{metric}_sum"] == 0.5 * observations
        assert types[metric] == ["summary"]

    def test_structured_log_is_ndjson(self):
        stream = io.StringIO()
        telemetry = Telemetry(log_stream=stream)
        telemetry.log("job-done", job="job-000001", outcome="verified")
        telemetry.log("job-failed", job="job-000002")
        lines = stream.getvalue().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["event"] for r in records] == ["job-done", "job-failed"]
        assert all("ts" in r and r["service"] == "repro.service" for r in records)

    def test_dead_log_sink_is_ignored(self):
        class Dead:
            def write(self, _):
                raise OSError("gone")

            def flush(self):
                raise OSError("gone")

        telemetry = Telemetry(log_stream=Dead())
        telemetry.log("event")  # must not raise
