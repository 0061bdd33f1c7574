"""Regenerate ``golden_certs.json``: the certificate digest of every
``(case, n)`` pair the workloads can draw, from a serial uncached run.

Usage (from the root of a checkout)::

    python3 perfbench/golden.py

Every workload compares the certificates it gets against this table, so a
pair verified in a verify pass, through the fleet or under tracing must
produce byte-identical certificates.  Regenerate only when a change is meant to
alter certificates.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from repro import casestudies

    work = run.Work()
    try:
        _setup, result = run.run_child(
            {"kind": "verify", "items": workloads.ALL_PAIRS, "cache_dir": None,
             "cert_dir": str(work.fresh("certs"))},
            work, hash_seed=0,
        )
    finally:
        work.close()
    table = {}
    for item in result["items"]:
        key = workloads.pair_key(item["case"], item["n"])
        if item["rc"] != 0:
            print(f"{key}: not verified: {item['output']}", file=sys.stderr)
            return 1
        module = getattr(casestudies, item["case"])
        case = module.build(n=item["n"]) if item["n"] is not None else module.build()
        table[key] = {"digest": item["digest"], "instrs": case.asm_line_count}
    path = run.HERE / "golden_certs.json"
    path.write_text(json.dumps(
        {"note": "sha256 of each certificate (tools/verify --cert-dir); "
                 "instrs = assembled instructions",
         "certificates": table}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} entries to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
