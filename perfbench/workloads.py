"""Seeded inputs for every workload.

The benchmark draws all inputs from ``--seed``; the program receives only
the generated lists.  Sizes are chosen so that every operation succeeds at
the parent commit: ``binsearch_{arm,riscv}`` FAIL at ``n >= 16`` and
``memcpy_*`` cost grows superlinearly in ``n``, so ``n`` stays in 2..12.
"""

from __future__ import annotations

import random

PARAMETRIC = [
    "binsearch_arm", "binsearch_riscv", "memcpy_arm", "memcpy_ppc", "memcpy_riscv",
]
FIXED = ["hvc", "pkvm", "rbit", "sign_ppc", "uart", "unaligned"]
COSIM_ARCHES = ["arm", "riscv", "ppc"]

#: Every parametrised case runs at each of these lengths.
N_RANGE = range(2, 11)

#: Every ``(case, n)`` pair a workload can submit: 51 distinct proofs.
ALL_PAIRS = [(case, None) for case in FIXED] + [
    (case, n) for case in PARAMETRIC for n in N_RANGE
]
SMOKE_PAIRS = [(case, None) for case in FIXED] + [(case, 2) for case in PARAMETRIC]


def pair_key(case: str, n: int | None) -> str:
    return case if n is None else f"{case}:{n}"


def verify_list(seed: int, small: bool = False) -> list[tuple[str, int | None]]:
    """The 11 Fig. 12 case studies, the parametrised ones at every length in
    ``N_RANGE``, in seeded order.  The set is fixed so that a list costs
    the same for every seed; the order decides which solver, family and
    cache state each case meets."""
    items = list(SMOKE_PAIRS if small else ALL_PAIRS)
    random.Random(f"verify-{seed}").shuffle(items)
    return items


def cosim_jobs(seed: int, cases_per_arch: int, batch: int) -> list[tuple[str, int, int]]:
    """``(arch, batch seed, count)`` lockstep jobs over all three arches,
    interleaved so every arch's trace cache warms up at the same pace."""
    rng = random.Random(f"cosim-{seed}")
    per_arch = {
        arch: [rng.randrange(1 << 30) for _ in range(cases_per_arch // batch)]
        for arch in COSIM_ARCHES
    }
    jobs = []
    for index in range(cases_per_arch // batch):
        for arch in COSIM_ARCHES:
            jobs.append((arch, per_arch[arch][index], batch))
    return jobs


def fleet_stream(
    seed: int, round_index: int, repeats: int, cosim: int, cosim_count: int,
    small: bool = False,
) -> list[dict]:
    """A seeded job stream for the fleet: one interactive job per distinct
    ``(case, n)`` pair, ``repeats`` exact resubmissions of pairs submitted
    earlier in the stream (content-hash dedup), and ``cosim`` bulk
    ``cosim:<arch>`` jobs of ``cosim_count`` cases with distinct seeds.

    The jobs depend on ``seed`` alone; their order also on ``round_index``,
    so each round of a run meets other queueing collisions.  ``op`` names
    a job across rounds."""
    rng = random.Random(f"fleet-{seed}")
    jobs = [
        {"case": case, "kwargs": {} if n is None else {"n": n},
         "priority": "interactive", "key": pair_key(case, n)}
        for case, n in (SMOKE_PAIRS if small else ALL_PAIRS)
    ]
    for index in range(cosim):
        jobs.append({
            "case": f"cosim:{COSIM_ARCHES[index % len(COSIM_ARCHES)]}",
            "kwargs": {"seed": rng.randrange(1 << 30), "count": cosim_count},
            "priority": "bulk", "key": None,
        })
    twins = rng.sample(range(len(jobs) - cosim), min(repeats, len(jobs) - cosim))
    for op, job in enumerate(jobs):
        job["op"] = op
    order = random.Random(f"fleet-{seed}-{round_index}")
    stream = list(jobs)
    order.shuffle(stream)
    # Each repeat goes somewhere after its original.
    for op in twins:
        original = next(i for i, job in enumerate(stream) if job["op"] == op)
        stream.insert(order.randrange(original + 1, len(stream) + 1),
                      dict(jobs[op], op=len(jobs) + op, repeat=True))
    return stream
