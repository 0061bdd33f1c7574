"""Parametric trace summaries: cold vs family-warm corpus replay.

The parametric engine symbolically executes each decode arm once with free
operand fields and instantiates per opcode by substitution.  These
benchmarks measure what that buys on realistic workloads:

* the Fig. 6 conditional-branch executor replayed across the whole
  ``b.cond`` family (every condition x a spread of offsets), and
* the >=500-case random-valid conformance corpus per architecture
  (distinct words, each executed once per pass, so the process-wide
  solver-check cache cannot amortise the cold pass).

Each benchmark first runs two uncounted build passes (the first pays the
one-time family builds, the second mints fold-signature variant forms),
then *alternating* timed pairs over the same word list:

  cold    direct_isla() — the plain per-opcode pipeline
  warm    parametric on — every serve should be a family hit

The reported speedup is the median of the per-pair cold/warm ratios:
pairing keeps a load spike on a shared machine from landing on only one
side of the division.  Gates follow the ISSUE acceptance criteria:
family-warm speedup >= 2x and family hit rate >= 70% on corpus replay.
Results merge into ``BENCH_parametric.json``.

Well-formedness checking stays ON (the default): disabling it makes the
*cold* pass cheaper by more than the warm pass, so WF-on is both the
honest and the conservative configuration for the gate.
"""

from __future__ import annotations

import pathlib
import sys
import time

import pytest

from repro.arch.arm import ArmModel, encode as A
from repro.isla import Assumptions, IslaError, trace_for_opcode
from repro import obs
from repro.isla.parametric import engine
from repro.smt.solver import clear_check_cache
from tests._reference import direct_isla

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests" / "conformance"))
from _harness import ARCHS, random_valid_word  # noqa: E402

CORPUS_DRAWS = 600  # ~545 decodable+in-scope cases per arch, comfortably >=500
CORPUS_SEED = 0xC0FFEE


def _run_pass(model, assumptions, words) -> tuple[float, int]:
    """Execute every word once; returns (wall seconds, completed count)."""
    clear_check_cache()
    done = 0
    t0 = time.perf_counter()
    for word in words:
        try:
            trace_for_opcode(model, word, assumptions)
            done += 1
        except IslaError:
            pass  # out-of-pipeline-scope corners fail identically in all passes
    return time.perf_counter() - t0, done


def _cold_warm(model, assumptions, words, pairs: int = 3) -> dict:
    engine().reset()

    # Uncounted build passes: families on the first, variants on the second.
    with obs.scope() as build:
        _run_pass(model, assumptions, words)
        _run_pass(model, assumptions, words)
    built = build.snapshot("parametric.")

    colds, warms, ratios = [], [], []
    cases = hits = delta = None
    for _ in range(pairs):
        # Both sides of a pair count in a run scope, so neither pays for
        # counting alone.
        with direct_isla(), obs.scope():
            cold_s, cold_done = _run_pass(model, assumptions, words)
        with obs.scope() as warm:
            warm_s, warm_done = _run_pass(model, assumptions, words)
        delta = warm.snapshot("parametric.")
        assert cold_done == warm_done
        cases = warm_done
        hits = delta.get("family_hits", 0)
        colds.append(cold_s)
        warms.append(warm_s)
        ratios.append(cold_s / warm_s)

    return {
        "cases": cases,
        "cold_s": round(min(colds), 4),
        "warm_s": round(min(warms), 4),
        "speedup": round(sorted(ratios)[len(ratios) // 2], 2),
        "hit_rate": round(hits / cases, 4),
        "fast_serves": delta.get("family_fast_serves", 0),
        "variant_serves": delta.get("family_variant_serves", 0),
        "guard_failures": delta.get("guard_failures", 0),
        "families_built": built.get("family_builds", 0),
    }


def test_fig6_family_replay(bench_parametric_record):
    """The Fig. 6 executor, family-warm across the whole ``b.cond`` space."""
    conds = ["eq", "ne", "hs", "lo", "mi", "pl", "vs", "vc",
             "hi", "ls", "ge", "lt", "gt", "le"]
    words = [A.b_cond(cond, off)
             for cond in conds
             for off in range(-64, 64, 16)]
    stats = _cold_warm(ArmModel(), Assumptions(), words)
    bench_parametric_record("fig6_bcond_family_replay", **stats)
    assert stats["cases"] == len(words)
    assert stats["speedup"] >= 2.0
    assert stats["hit_rate"] >= 0.70


@pytest.mark.parametrize("arch_name", ["arm", "riscv"])
def test_conformance_corpus_replay(arch_name, bench_parametric_record):
    """>=500 distinct random-valid words per arch, cold vs family-warm."""
    import random

    arch = ARCHS[arch_name]
    rng = random.Random(CORPUS_SEED)
    seen: set[int] = set()
    words: list[int] = []
    while len(words) < CORPUS_DRAWS:
        word = random_valid_word(arch, rng)
        if word not in seen:
            seen.add(word)
            words.append(word)

    stats = _cold_warm(arch.model, arch.assumptions(), words)
    bench_parametric_record(f"conformance_corpus_{arch_name}", **stats)
    assert stats["cases"] >= 500
    assert stats["speedup"] >= 2.0
    assert stats["hit_rate"] >= 0.70
