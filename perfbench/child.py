"""One process under test: a verify pass or a co-simulation soak.

Run as ``python perfbench/child.py SPEC.json`` with ``PYTHONPATH`` pointing
at the program's ``src``.  The process prints ``READY`` on stdout once the
interpreter has started, imported the pipeline and constructed the ISA
models, then runs the inputs named in the spec through the public
surfaces (``repro.tools.verify.main`` per case, ``CoSimDriver.run_batch``
per co-simulation job) and prints one JSON result line.

With ``"trace": true`` in the spec the pipeline's public functions are
wrapped by :mod:`tracer` before the inputs run.

Around every timed operation, and at the start and at ``READY``, the
process times the :mod:`hostspeed` reference loop, so that the benchmark
can report times at a nominal host speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from time import perf_counter

import hostspeed


def _emit(line: str) -> None:
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _build_models() -> None:
    from repro.arch import registry

    for name in registry.names():
        registry.get(name).model()


def run_verify(spec: dict) -> dict:
    from repro.tools import verify

    cert_dir = spec["cert_dir"]
    base_argv = ["--cert-dir", cert_dir]
    if spec.get("cache_dir"):
        base_argv += ["--cache-dir", spec["cache_dir"]]
    else:
        base_argv += ["--no-cache"]
    if spec.get("conflicts") is not None:
        base_argv += ["--conflicts", str(spec["conflicts"])]
    items = []
    t_start = perf_counter()
    refs = [hostspeed.reference()]
    for case, n in spec["items"]:
        argv = [case, *base_argv]
        if n is not None:
            argv += ["--n", str(n)]
        out = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                rc = verify.main(argv)
            except Exception as exc:  # noqa: BLE001 — a crash is a failed case
                rc = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        refs.append(hostspeed.reference())
        cert_path = os.path.join(cert_dir, f"{case}.cert.json")
        digest = None
        if rc == 0 and os.path.exists(cert_path):
            with open(cert_path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            os.unlink(cert_path)
        items.append({
            "case": case, "n": n, "rc": rc, "seconds": seconds,
            "cost": hostspeed.scale(seconds, refs[-2], refs[-1]),
            "digest": digest,
            "output": None if rc == 0 else out.getvalue()[-2000:],
        })
    return {"wall_s": perf_counter() - t_start, "items": items, "refs": refs}


def run_cosim(spec: dict) -> dict:
    from repro.cosim import COSIM_ARCHS, CoSimDriver
    from repro.cosim.archs import decode_arm_names

    drivers = {
        arch: CoSimDriver(COSIM_ARCHS[arch], defect=spec.get("defect"))
        for arch in spec["arches"]
    }
    jobs = []
    coverage: dict[str, dict[str, int]] = {arch: {} for arch in drivers}
    t_start = perf_counter()
    refs = [hostspeed.reference()]
    for arch, seed, count in spec["jobs"]:
        t0 = perf_counter()
        report = drivers[arch].run_batch(seed=seed, count=count)
        seconds = perf_counter() - t0
        refs.append(hostspeed.reference())
        for arm, hits in report.coverage.to_json().get("counts", {}).items():
            coverage[arch][arm] = coverage[arch].get(arm, 0) + hits
        jobs.append({
            "arch": arch, "seed": seed, "seconds": seconds,
            "cost": hostspeed.scale(seconds, refs[-2], refs[-1]),
            "cases": report.cases, "instructions": report.instructions,
            "divergences": len(report.divergences),
        })
    wall_s = perf_counter() - t_start
    fractions = {}
    for arch, counts in coverage.items():
        arms = decode_arm_names(arch)
        hit = sum(1 for arm in arms if counts.get(arm, 0) > 0)
        fractions[arch] = hit / len(arms) if arms else 1.0
    return {"wall_s": wall_s, "jobs": jobs, "coverage": fractions, "refs": refs}


def main(argv: list[str]) -> int:
    setup_refs = [hostspeed.reference()]
    with open(argv[0]) as handle:
        spec = json.load(handle)
    tracer = None
    if spec["kind"] == "verify":
        import repro.casestudies  # noqa: F401 — part of set-up
        import repro.tools.verify  # noqa: F401
    else:
        import repro.cosim  # noqa: F401
    _build_models()
    if spec.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
    setup_refs.append(hostspeed.reference())
    _emit("READY")
    if spec.get("setup_only"):
        _emit(json.dumps({"setup_refs": setup_refs}))
        return 0
    run = run_verify if spec["kind"] == "verify" else run_cosim
    result = run(spec)
    result["setup_refs"] = setup_refs
    if tracer is not None:
        from repro.smt.solver import check_cache_stats

        result["trace"] = tracer.summary()
        result["trace"]["lru"] = check_cache_stats()
    result["peak_rss_mb"] = _peak_rss_mb()
    _emit(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
