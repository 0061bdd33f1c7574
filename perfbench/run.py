"""The pipeline benchmark: cold verify, a cosim soak and a 2-shard fleet.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload verify_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Every workload drives the program through the surfaces users call —
``repro.tools.verify``, ``CoSimDriver``, ``repro.tools.fleet`` with
``ServiceClient`` — from processes started here, checks every output
(verdicts, certificate digests against ``golden_certs.json``, cosim
divergences, fleet job states) and prints a human report followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer metrics, measured by wrapping the
pipeline's public functions (see ``tracer.py``) in every other pass, with
the untraced passes giving the tracing overhead.  The exit status is 0
only when every operation succeeded.

See ``WORKLOADS.md`` for why each workload exists and what it measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_REL = ".perfbench-work"

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ["verify_cold", "cosim", "fleet"]
CHILD_TIMEOUT_S = 150.0

#: Nominal seconds of one pass (one fleet round) on a 2-core host.  A run
#: makes ``--seconds`` / this many passes: a fixed count, so that neither
#: a slow spell of the host nor a slower commit gets fewer repetitions
#: than a faster one.
PASS_S = {"verify_cold": 7.5, "cosim": 3.5, "fleet": 15.0}

#: Sizes per ``--size``: the full benchmark and the smallest smoke run.
SIZES = {
    "full": {
        "verify_small": False, "min_passes": 2, "min_setups": 9,
        "cosim_cases": 300, "cosim_batch": 10,
        "fleet_small": False, "fleet_repeats": 9, "fleet_cosim": 40,
        "fleet_cosim_count": 20, "fleet_min_setups": 3,
    },
    "smoke": {
        "verify_small": True, "min_passes": 1, "min_setups": 1,
        "cosim_cases": 20, "cosim_batch": 10,
        "fleet_small": True, "fleet_repeats": 1, "fleet_cosim": 3,
        "fleet_cosim_count": 5, "fleet_min_setups": 1,
    },
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to an operation failing)."""


# -- helpers ------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: int):
    """The q-th percentile (inclusive method); the median for few samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def dir_bytes(path: Path) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def child_env(work: "Work", hash_seed: int) -> dict:
    """The environment of a process under test.  String hashing changes
    set iteration order and with it how much work the solver does, so the
    hash seed is an input too: ``--seed``, the same for every process of a
    run, so that every pass repeats the same work.
    Temporary files (the fleet's per-job ephemeral caches) stay inside
    the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = str(hash_seed % (1 << 32))
    env["TMPDIR"] = str(work.tmp)
    return env


def load_golden() -> dict:
    with open(HERE / "golden_certs.json") as handle:
        return json.load(handle)["certificates"]


class Work:
    """A scratch directory inside the checkout, removed at the end."""

    def __init__(self) -> None:
        self.path = ROOT / WORK_REL / str(os.getpid())
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self.tmp = self.path / "tmp"
        self.tmp.mkdir()
        self._counter = 0

    def fresh(self, stem: str) -> Path:
        self._counter += 1
        path = self.path / f"{stem}-{self._counter}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            (ROOT / WORK_REL).rmdir()
        except OSError:
            pass


def run_child(spec: dict, work: Work, hash_seed: int) -> tuple[float, dict]:
    """Start one process under test; returns (launch-to-READY s, result).

    The set-up time is normalised (see :mod:`hostspeed`) by the reference
    times the process took at its start and at ``READY``."""
    spec_dir = work.fresh("child")
    spec_path = spec_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    stderr_path = spec_dir / "stderr.txt"
    with open(stderr_path, "wb") as stderr:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            stdout=subprocess.PIPE, stderr=stderr, cwd=ROOT,
            env=child_env(work, hash_seed),
            text=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            result_line = proc.stdout.readline()
            proc.stdout.close()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        detail = stderr_path.read_text()[-3000:]
        raise BenchError(f"process under test exited {proc.returncode}:\n{detail}")
    result = json.loads(result_line)
    shutil.rmtree(spec_dir, ignore_errors=True)
    refs = result.pop("setup_refs")
    return hostspeed.scale(setup_s - sum(refs), *refs), result


def serial_pass(result: dict, ops: list[dict], traced: bool, instrs: int) -> dict:
    """One pass of operations run back to back in one process: each
    operation's raw and normalised time, and the normalised glue between
    them (argument handling, certificate digests)."""
    refs = result["refs"]
    raw_glue = result["wall_s"] - sum(op["seconds"] for op in ops) - sum(refs)
    glue = hostspeed.scale(raw_glue, *refs)
    costs = [op["cost"] for op in ops]
    return {
        "traced": traced, "serial": True, "raw_s": result["wall_s"],
        "glue_s": glue, "costs": costs, "verify_s": glue + sum(costs),
        "instrs": instrs, "peak_rss_mb": result["peak_rss_mb"],
    }


def pass_count(name: str, size, args) -> int:
    """Passes in a run; a traced run needs an untraced and a traced one."""
    count = max(size["min_passes"], int(args.seconds // PASS_S[name]))
    return max(count, 2) if args.trace else count


class Tally:
    """Attempted/failed operations plus the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.consistent = True

    def op(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    def inconsistent(self, reason: str) -> None:
        self.consistent = False
        self.reasons.append(reason)


# -- per-layer extraction ------------------------------------------------------

_SPAN_METRICS = {
    "frontend.build_s": "frontend.build",
    "arch.decode_arm_s": "arch.decode_arm",
    "isla.direct_s": "isla.direct",
    "isla.parametric_s": "isla.parametric",
    "isla.cached_s": "isla.cached",
    "isla.simplify_s": "isla.simplify",
    "analysis.wf_s": "analysis.wf",
    "logic.automation_s": "logic.automation",
    "logic.checker_s": "logic.checker",
    "smt.check_s": "smt.check",
    "smt.sat_solve_s": "smt.sat_solve",
    "cache.load_s": "cache.load",
    "cache.store_s": "cache.store",
    "itl.replay_s": "itl.replay",
    "cosim.interp_s": "cosim.interp",
    "cosim.generate_s": "cosim.generate",
    "cosim.diff_s": "cosim.diff",
}
_CALL_METRICS = {
    "arch.decode_arm_calls": "arch.decode_arm",
    "smt.checks": "smt.check",
    "smt.sat_solves": "smt.sat_solve",
    "cache.loads": "cache.load",
    "cache.stores": "cache.store",
    "itl.replays": "itl.replay",
}
_COUNT_METRICS = [
    "frontend.opcodes", "isla.direct_opcodes", "isla.parametric_opcodes",
    "isla.cached_opcodes", "isla.fallback_opcodes", "isla.paths",
    "isla.model_steps", "isla.solver_checks", "logic.proof_steps",
    "logic.side_conditions", "smt.encode_us", "smt.solve_us",
    "smt.slice_components", "smt.check.isla_s", "smt.check.automation_s",
    "smt.check.checker_s",
]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layers_from_trace(trace: dict, wall_s: float) -> dict:
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    out = {name: self_s.get(span, 0.0) for name, span in _SPAN_METRICS.items()}
    out.update({name: calls.get(span, 0) for name, span in _CALL_METRICS.items()})
    out.update({name: counts.get(name, 0) for name in _COUNT_METRICS})
    attempts = counts.get("isla.family_attempts", 0)
    out["isla.family_hit_ratio"] = _ratio(
        attempts - counts.get("isla.fallback_opcodes", 0), attempts
    )
    lru = trace.get("lru", {})
    out["smt.lru_hit_ratio"] = _ratio(
        lru.get("hits", 0), lru.get("hits", 0) + lru.get("misses", 0)
    )
    disk = trace["cache_stats"]
    out["cache.trace_hit_ratio"] = _ratio(
        disk.get("trace_hits", 0),
        disk.get("trace_hits", 0) + disk.get("trace_misses", 0),
    )
    out["cache.smt_hit_ratio"] = _ratio(
        disk.get("smt_hits", 0), disk.get("smt_hits", 0) + disk.get("smt_misses", 0)
    )
    out["trace.unattributed_share"] = max(0.0, 1.0 - _ratio(trace["root_s"], wall_s))
    return out


def median_layers(samples: list[dict]) -> dict:
    keys = {key for sample in samples for key in sample}
    return {key: median([s.get(key, 0.0) for s in samples]) for key in keys}


# -- verify_cold ----------------------------------------------------------------


def _check_verify_pass(result: dict, golden: dict, tally: Tally, label: str) -> int:
    instrs = 0
    for item in result["items"]:
        key = workloads.pair_key(item["case"], item["n"])
        expected = golden.get(key, {})
        if item["rc"] != 0:
            tally.op(False, f"{label} {key}: not verified ({item['rc']}): "
                            f"{(item['output'] or '').strip()[-300:]}")
        elif item["digest"] != expected.get("digest"):
            tally.op(False, f"{label} {key}: certificate digest {item['digest']} "
                            f"!= golden {expected.get('digest')}")
        else:
            tally.op(True)
        instrs += expected.get("instrs", 0)
    return instrs


def bench_verify(args, size, work: Work) -> dict:
    golden = load_golden()
    items = workloads.verify_list(args.seed, small=size["verify_small"])
    tally = Tally()
    base = {"kind": "verify", "items": items, "conflicts": args.conflicts}
    missing = []
    passes = []
    while len(passes) < pass_count("verify_cold", size, args):
        traced = bool(args.trace) and len(passes) % 2 == 1
        cache_dir = work.fresh("cold-cache")
        setup_s, result = run_child(
            dict(base, cache_dir=str(cache_dir), cert_dir=str(work.fresh("certs")),
                 trace=traced),
            work, args.seed,
        )
        instrs = _check_verify_pass(result, golden, tally, f"pass {len(passes)}")
        bytes_on_disk = dir_bytes(cache_dir)
        shutil.rmtree(cache_dir, ignore_errors=True)
        wall = result["wall_s"]
        sample = serial_pass(result, result["items"], traced, instrs)
        sample["setup_s"] = setup_s
        if traced:
            layers = layers_from_trace(result["trace"], wall)
            layers["cache.bytes_on_disk"] = bytes_on_disk
            sample["layers"] = layers
            missing = result["trace"]["missing"]
        passes.append(sample)
    setups = extra_setups(passes, "verify", size, work, args.seed)
    return {"tally": tally, "passes": passes, "missing": missing, "setups": setups,
            "inputs": f"{len(items)} cases: " + " ".join(
                workloads.pair_key(c, n) for c, n in items)}


# -- cosim ----------------------------------------------------------------------


def bench_cosim(args, size, work: Work) -> dict:
    jobs = workloads.cosim_jobs(args.seed, size["cosim_cases"], size["cosim_batch"])
    spec = {"kind": "cosim", "arches": workloads.COSIM_ARCHES, "jobs": jobs,
            "defect": args.defect}
    tally = Tally()
    passes = []
    coverage_ref = None
    missing = []
    while len(passes) < pass_count("cosim", size, args):
        traced = bool(args.trace) and len(passes) % 2 == 1
        setup_s, result = run_child(dict(spec, trace=traced), work, args.seed)
        for job in result["jobs"]:
            tally.op(
                job["divergences"] == 0,
                f"cosim:{job['arch']} seed {job['seed']}: "
                f"{job['divergences']} divergences",
            )
        if coverage_ref is None:
            coverage_ref = result["coverage"]
        elif result["coverage"] != coverage_ref:
            tally.inconsistent(f"arm coverage not deterministic: "
                               f"{result['coverage']} != {coverage_ref}")
        wall = result["wall_s"]
        sample = serial_pass(result, result["jobs"], traced,
                             sum(job["instructions"] for job in result["jobs"]))
        sample["setup_s"] = setup_s
        if traced:
            layers = layers_from_trace(result["trace"], wall)
            layers["cosim.cases"] = sum(job["cases"] for job in result["jobs"])
            layers["cosim.divergences"] = sum(
                job["divergences"] for job in result["jobs"]
            )
            layers["cosim.arm_coverage"] = median(list(result["coverage"].values()))
            sample["layers"] = layers
            missing = result["trace"]["missing"]
        passes.append(sample)
    coverage = ", ".join(f"{a} {f:.1%}" for a, f in (coverage_ref or {}).items())
    setups = extra_setups(passes, "cosim", size, work, args.seed)
    return {"tally": tally, "passes": passes, "missing": missing, "setups": setups,
            "inputs": f"{len(jobs)} lockstep jobs of {size['cosim_batch']} cases; "
                      f"arm coverage {coverage}"}


# -- fleet ------------------------------------------------------------------------


class Fleet:
    """A ``repro.tools.fleet`` subprocess with 2 real shard processes."""

    def __init__(self, work: Work, hash_seed: int) -> None:
        from repro.service.client import ServiceClient, ServiceError

        run_dir = work.fresh("fleet")
        # Relative to the checkout root (the fleet's cwd): Unix socket
        # paths must stay short wherever the checkout lives.
        rel = run_dir.relative_to(ROOT)
        self.socket = str(rel / "router.sock")
        self.stderr = open(run_dir / "fleet.stderr", "wb")
        self.client = ServiceClient(socket_path=self.socket, timeout=30.0,
                                    connect_timeout=1.0)
        self.shard_pids: list[int] = []
        self.peak_rss_mb = 0.0
        with hostspeed.Sampler() as sampler:
            t0 = perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.tools.fleet", "--shards", "2",
                 "--runners", "1", "--socket", self.socket,
                 "--run-dir", str(rel), "--quiet"],
                stdout=subprocess.DEVNULL, stderr=self.stderr, cwd=ROOT,
                env=child_env(work, hash_seed),
            )
            deadline = time.monotonic() + 60.0
            while True:
                try:
                    health = self.client.healthz()
                    if health.get("shards_up") == 2:
                        break
                except (ServiceError, OSError):
                    pass
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.close()
                    raise BenchError("fleet never became ready")
                time.sleep(0.005)
            raw_s = perf_counter() - t0
        self.setup_s = hostspeed.scale(raw_s, sampler.mean())
        self.shard_pids = [
            shard["pid"] for shard in self.client.fleet()["shards"] if shard["pid"]
        ]

    def _reap(self, timeout_s: float | None) -> bool:
        """Wait for the fleet process; its ``wait4`` usage covers the
        shards it reaped, so ``peak_rss_mb`` is the largest of them."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            try:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            except ChildProcessError:  # already reaped by Popen.poll()
                return True
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_mb = usage.ru_maxrss / 1024.0
                return True
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.01)

    def close(self) -> bool:
        """Drain-stop the fleet; True when it and every shard exited."""
        clean = True
        try:
            self.client.shutdown()
        except Exception:  # noqa: BLE001 — fall through to signals
            pass
        if not self._reap(30):
            clean = False
            self.proc.send_signal(signal.SIGTERM)
            if not self._reap(10):
                self.proc.kill()
                self._reap(None)
        for pid in self.shard_pids:
            for _ in range(200):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
            else:
                clean = False
                os.kill(pid, signal.SIGKILL)
        self.stderr.close()
        return clean


def _drive(fleet: Fleet, stream: list[dict]) -> tuple[list[dict], float]:
    """Closed loop: 2 clients, each submits its next job only after the
    previous one is terminal.  Returns per-job records and the wall time."""
    from repro.service.client import ServiceClient

    lock = threading.Lock()
    cursor = iter(range(len(stream)))
    records: list[dict] = [None] * len(stream)  # type: ignore[list-item]
    errors: list[BaseException] = []

    def client_loop() -> None:
        client = ServiceClient(socket_path=fleet.socket, timeout=60.0,
                               connect_timeout=2.0)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            job = stream[index]
            try:
                records[index] = _one_job(client, job)
            except BaseException as exc:  # noqa: BLE001 — reported by the caller
                errors.append(exc)
                return

    threads = [threading.Thread(target=client_loop) for _ in range(2)]
    t0 = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = perf_counter() - t0
    if errors:
        raise BenchError(f"fleet client failed: {errors[0]!r}")
    return records, wall


def _one_job(client, job: dict) -> dict:
    submitted = time.time()
    t0 = perf_counter()
    snap = client.submit(job["case"], kwargs=job["kwargs"] or None,
                         priority=job["priority"])
    submit_s = perf_counter() - t0
    job_id, state = snap["id"], snap["state"]
    seq, polls, placed = 0, 0, None
    # Long-poll on the event stream: the router answers as soon as the
    # job has a new event, so no client-side sleep quantises latency.
    while state not in ("done", "failed", "cancelled"):
        batch = client.events(job_id, since=seq, wait_s=30.0)
        polls += 1
        for event in batch["events"]:
            seq = event["seq"] + 1
            if event["kind"] == "placed" and placed is None:
                placed = event["ts"]
        state = batch["state"]
    status = client.status(job_id)
    report = client.report(job_id) if status["state"] == "done" else None
    start = max(status["created"], submitted)
    started = status.get("started") or placed
    return {
        "job": job, "state": status["state"], "report": report,
        "latency_s": status["finished"] - start,
        "start": start, "finished": status["finished"],
        "submit_s": submit_s, "polls": polls,
        "queue_wait_s": (started - status["created"]) if started else None,
        "run_s": (status["finished"] - started) if started else None,
        "error": status.get("error"),
    }


def _check_fleet_job(record: dict, golden: dict, tally: Tally) -> int:
    """Count one job; returns the instructions it covered."""
    job, report = record["job"], record["report"]
    name = job["key"] or f"{job['case']} seed {job['kwargs'].get('seed')}"
    # A repeat is served by dedup: checked like any job, but it does no
    # new work, so it adds no instructions.
    work = 0 if job.get("repeat") else 1
    if record["state"] != "done" or report is None:
        tally.op(False, f"fleet {name}: {record['state']} ({record['error']})")
        return 0
    if job["key"] is None:
        ok = report.get("outcome") == "pass" and not report.get("divergences")
        tally.op(ok, f"fleet {name}: outcome {report.get('outcome')}")
        return work * report.get("instructions", 0)
    digest = hashlib.sha256(report["certificate"].encode()).hexdigest()
    expected = golden.get(job["key"], {})
    if not report.get("ok"):
        tally.op(False, f"fleet {name}: outcome {report.get('outcome')}")
    elif digest != expected.get("digest"):
        tally.op(False, f"fleet {name}: certificate digest {digest} != golden "
                        f"{expected.get('digest')}")
    else:
        tally.op(True)
    return work * report.get("instrs", 0)


def bench_fleet(args, size, work: Work) -> dict:
    golden = load_golden()

    def stream_for(round_index: int) -> list[dict]:
        return workloads.fleet_stream(
            args.seed, round_index, size["fleet_repeats"], size["fleet_cosim"],
            size["fleet_cosim_count"], small=size["fleet_small"],
        )

    tally = Tally()
    passes = []
    setups = []
    while len(passes) < pass_count("fleet", size, args):
        traced = bool(args.trace) and len(passes) % 2 == 1
        fleet = Fleet(work, args.seed)
        setups.append(fleet.setup_s)
        try:
            stream = stream_for(len(passes))
            with hostspeed.Sampler() as sampler:
                records, wall = _drive(fleet, stream)
            metrics = fleet.client.metrics()
        finally:
            if not fleet.close():
                tally.inconsistent("fleet or a shard outlived its shutdown")
        peak_rss_mb = fleet.peak_rss_mb
        instrs = sum(_check_fleet_job(r, golden, tally) for r in records)
        dedup = metrics["counters"].get("fleet_dedup_hits", 0)
        sample = {
            "traced": traced, "serial": False, "setup_s": fleet.setup_s,
            "raw_s": wall, "verify_s": hostspeed.scale(wall, sampler.mean()),
            "instrs": instrs, "peak_rss_mb": peak_rss_mb,
            "latencies": [
                hostspeed.scale(r["latency_s"], sampler.mean(r["start"], r["finished"]))
                for r in records
            ],
            "layers": {
                "service.submit_s": median([r["submit_s"] for r in records]),
                "service.queue_wait_s": median(
                    [r["queue_wait_s"] for r in records
                     if r["queue_wait_s"] is not None]),
                "service.run_s": median(
                    [r["run_s"] for r in records if r["run_s"] is not None]),
                "service.polls_per_job": statistics.mean(
                    r["polls"] for r in records),
                "service.dedup_hit_ratio": _ratio(dedup, len(records)),
                "trace.unattributed_share": 1.0,
            },
        }
        passes.append(sample)
    # Fleet start-up repeats: extra start/stop cycles until there are
    # enough set-up samples for a stable median.
    while len(setups) < size["fleet_min_setups"]:
        fleet = Fleet(work, args.seed)
        setups.append(fleet.setup_s)
        if not fleet.close():
            tally.inconsistent("fleet or a shard outlived its shutdown")
    return {"tally": tally, "passes": passes, "missing": [],
            "setups": setups,
            "inputs": f"{len(stream)} jobs per round through 2 clients"}


# -- metrics & report ------------------------------------------------------------


def extra_setups(passes: list[dict], kind: str, size, work: Work, seed: int):
    """Set-up samples: every untraced pass, plus processes that exit right
    after ``READY`` until there are ``min_setups`` of them."""
    setups = [p["setup_s"] for p in passes if not p["traced"]]
    while len(setups) < size["min_setups"]:
        setup_s, _ = run_child({"kind": kind, "setup_only": True}, work, seed)
        setups.append(setup_s)
    return setups


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    if all(p["serial"] for p in passes):
        # Every pass runs the same operations in the same order, in a
        # process with the same hash seed, so they repeat the same work:
        # a pass is the sum of each operation's median time.  The
        # percentiles are over every operation of every pass.
        columns = list(zip(*(p["costs"] for p in passes)))
        verify_s = median([p["glue_s"] for p in passes]) + sum(
            median(list(column)) for column in columns)
        latencies = [cost for p in passes for cost in p["costs"]]
        instrs, ops = median([p["instrs"] for p in passes]), len(columns)
    else:
        # Fleet rounds submit their jobs in different orders and meet
        # different queueing, so no job is matched across rounds: the
        # percentiles are over every latency the rounds produced, and the
        # rates are per mean round.
        latencies = [t for p in passes for t in p["latencies"]]
        verify_s = statistics.mean(p["verify_s"] for p in passes)
        instrs = statistics.mean(p["instrs"] for p in passes)
        ops = len(latencies) / len(passes)
    return {
        "setup_s": median(setups),
        "verify_s": verify_s,
        "instrs_per_s": instrs / verify_s,
        "job_p50_s": percentile(latencies, 50),
        "job_p90_s": percentile(latencies, 90),
        "jobs_per_s": ops / verify_s,
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "operations": ops,
    }


def run_workload(name: str, args, size, spec: dict) -> tuple[Tally, dict, list[str]]:
    work = Work()
    try:
        if name == "verify_cold":
            outcome = bench_verify(args, size, work)
        elif name == "cosim":
            outcome = bench_cosim(args, size, work)
        else:
            outcome = bench_fleet(args, size, work)
    finally:
        work.close()
    tally, passes = outcome["tally"], outcome["passes"]
    setups = outcome["setups"]
    lines = [
        f"== {name} (seed {args.seed}): {outcome['inputs']}",
        "passes, normalised (raw wall-clock) s: " + " ".join(
            f"{p['verify_s']:.3f}({p['raw_s']:.3f}){'T' if p['traced'] else ''}"
            for p in passes
        ),
    ]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.trace:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = median_layers([p["layers"] for p in traced])
        base = end_to_end(untraced, setups)
        with_trace = end_to_end(traced, [p["setup_s"] for p in traced])
        # Positive overhead is always a cost: for a metric where higher is
        # better, it is the untraced figure minus the traced one.
        for metric in units:
            sign = -1.0 if better[metric] == "higher" else 1.0
            layers[f"trace.overhead.{metric}"] = sign * (with_trace[metric] - base[metric])
        values = {metric: layers.get(metric, 0.0) for metric in layer_units}
        lines.append(f"per-layer medians over {len(traced)} traced passes "
                     f"({len(untraced)} untraced for the overhead):")
        for metric, unit in layer_units.items():
            lines.append(f"  {metric:<32} {values[metric]:>14.6g} {unit}")
        lines.append(
            f"unattributed share of verify_s: "
            f"{values['trace.unattributed_share']:.1%}"
        )
        lines.append("tracing overhead (cost of tracing; traced minus untraced, "
                     "reversed where higher is better): " + ", ".join(
            f"{m} {layers[f'trace.overhead.{m}']:+.4g} {units[m]}" for m in units
        ))
        if outcome["missing"]:
            lines.append("untraced (target missing): " + ", ".join(outcome["missing"]))
    else:
        e2e = end_to_end(passes, setups)
        values = {metric: e2e[metric] for metric in units}
        lines.append(f"end-to-end over {len(passes)} passes of "
                     f"{e2e['operations']:g} operations, {len(setups)} set-ups, "
                     f"times normalised to the nominal host speed:")
        for metric, unit in units.items():
            lines.append(f"  {metric:<16} {values[metric]:>14.6g} {unit}")
    error_rate = _ratio(tally.failed, tally.attempted)
    lines.append(f"  {'error_rate':<16} {error_rate:>14.6g} ratio "
                 f"({tally.failed} failed / {tally.attempted} attempted)")
    for reason in tally.reasons:
        lines.append(f"  FAIL {reason}")
    all_units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return tally, {
        metric: {"value": value, "unit": all_units[metric]}
        for metric, value in values.items()
    }, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'smoke' runs the smallest inputs (tests)")
    parser.add_argument("--defect", default=None,
                        help="cosim: inject this repro.cosim.DEFECTS entry "
                             "(negative control)")
    parser.add_argument("--conflicts", type=int, default=None,
                        help="verify: SAT-conflict allowance per case "
                             "(0 is a negative control)")
    args = parser.parse_args(argv)
    # A terminated run unwinds through the ``finally`` blocks that stop
    # the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    size = SIZES[args.size]
    names = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    correct = True
    metrics: dict = {}
    try:
        for name in names:
            tally, values, lines = run_workload(name, args, size, spec)
            print("\n".join(lines), flush=True)
            attempted += tally.attempted
            failed += tally.failed
            correct = correct and tally.consistent and tally.failed == 0
            if len(names) == 1:
                metrics = values
            else:
                metrics.update({f"{name}.{k}": v for k, v in values.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
