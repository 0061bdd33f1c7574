"""CLI: static analysis over case studies and ISA specifications.

Two modes:

- **case mode** (default): build one case study (or all of them) and run
  the :mod:`repro.analysis` passes — every generated ITL trace goes through
  the well-sortedness / SSA checker (``WF*`` codes, widths checked against
  the architecture's register file), and the case's specs are diffed
  against the inferred per-opcode footprints (``FL001`` unframed write,
  ``FL002`` dead spec clause, ``FP001`` unknown memory shape).
- **ISA mode** (``--isa``): validate each architecture's declarative ISA
  specification (``arch/<name>/spec.py``) with the solver-backed
  :mod:`repro.analysis.isaspec` pass — field layouts, encoding overlap,
  decode coverage, encoder/decoder agreement, family audit (``ISA*``
  codes), proved exhaustively over the full word space.

Exit-code contract (both modes): **0** no error-severity findings, **1**
at least one error finding, **2** usage error.  Warnings and infos are
advisory and never affect the exit status.

``--json`` emits the stable ``repro.lint/2`` schema::

    {
      "schema": "repro.lint/2",
      "mode": "cases" | "isa",
      "targets": {"<name>": {"findings": [{code, severity, message,
                                           where, ...}, ...],
                             "errors": N, "warnings": N, "infos": N}},
      "totals": {"errors": N, "warnings": N, "infos": N},
      "ok": true | false
    }

``targets`` is keyed by case-study name in case mode and by architecture
in ISA mode; each finding is :meth:`repro.analysis.Finding.to_json`.

Building a case runs the symbolic executor, so pointing ``--cache-dir``
(or ``$REPRO_CACHE_DIR``) at the same cache the verifier uses makes case
linting near-instant.  ISA mode needs no cache — it is solver-only.

Examples::

    python -m repro.tools.lint rbit
    python -m repro.tools.lint --all
    python -m repro.tools.lint --isa
    python -m repro.tools.lint --isa --arch riscv --json -
    python -m repro.tools.lint memcpy_arm --json report.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: JSON schema identifier; bump only with a documented migration.
SCHEMA = "repro.lint/2"


def lint_one(name: str, n: int | None, cache=None):
    """Build one case study (serially) and lint it; returns the findings."""
    from .. import casestudies
    from ..analysis.framelint import lint_case
    from ..parallel.config import configured
    from .verify import _build_kwargs

    module = getattr(casestudies, name)
    with configured(jobs=1, cache=cache):
        case = module.build(**_build_kwargs(module, n))
    if cache is not None:
        cache.flush()
    return lint_case(name, case=case)


def _counts(findings) -> dict[str, int]:
    from ..analysis.findings import ERROR, INFO, WARNING

    out = {"errors": 0, "warnings": 0, "infos": 0}
    for f in findings:
        key = {ERROR: "errors", WARNING: "warnings", INFO: "infos"}[f.severity]
        out[key] += 1
    return out


def _payload(mode: str) -> dict:
    return {
        "schema": SCHEMA,
        "mode": mode,
        "targets": {},
        "totals": {"errors": 0, "warnings": 0, "infos": 0},
        "ok": True,
    }


def _report(payload: dict, name: str, findings, quiet: bool,
            to_stdout: bool) -> None:
    from ..analysis.findings import render_findings

    counts = _counts(findings)
    payload["targets"][name] = {
        "findings": [f.to_json() for f in findings],
        **counts,
    }
    for key, value in counts.items():
        payload["totals"][key] += value
    if to_stdout:
        return
    print(
        f"{name}: {counts['errors']} error(s), "
        f"{counts['warnings']} warning(s), {counts['infos']} info(s)"
    )
    if findings and not quiet:
        for line in render_findings(findings).splitlines():
            print(f"  {line}")


def _run_cases(args, names, payload) -> None:
    from ..cache import resolve_cache

    cache = resolve_cache(args.cache_dir, args.no_cache)
    try:
        for name in names:
            findings = lint_one(name, args.n, cache=cache)
            _report(payload, name, findings, args.quiet, args.json == "-")
    finally:
        if cache is not None:
            cache.flush()


def _run_isa(args, payload) -> None:
    from ..analysis.findings import ERROR, Finding
    from ..analysis.isaspec import SpecError, available_archs, validate_arch

    archs = [args.arch] if args.arch else list(available_archs())
    for arch in archs:
        # A spec module that fails to load (or a decoder that crashes while
        # grounding witnesses) is itself a spec defect: report it as a
        # synthetic ISA010 error finding so the documented 0/1 exit-code
        # contract holds, reserving exit 2 for usage errors.
        try:
            findings = validate_arch(arch)
        except SpecError as exc:
            findings = [Finding("ISA010", ERROR,
                                f"spec failed to load: {exc}", where=arch)]
        except Exception as exc:
            findings = [Finding("ISA010", ERROR,
                                f"validator crashed: {exc!r}", where=arch)]
        _report(payload, arch, findings, args.quiet, args.json == "-")


def main(argv: list[str] | None = None) -> int:
    from .. import casestudies

    all_names = list(casestudies.__all__)
    parser = argparse.ArgumentParser(prog="repro.tools.lint", description=__doc__)
    parser.add_argument("case", nargs="?", choices=all_names)
    parser.add_argument("--all", action="store_true", help="lint every case study")
    parser.add_argument(
        "--isa", action="store_true",
        help="validate the declarative ISA specs instead of case studies",
    )
    parser.add_argument(
        "--arch", default=None,
        help="restrict --isa to one architecture (default: all)",
    )
    parser.add_argument(
        "--n", type=int, default=None, help="array length where applicable"
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write findings as JSON to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="on-disk trace cache (default: $REPRO_CACHE_DIR if set)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="ignore any configured cache"
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress per-finding output (summary lines only)",
    )
    args = parser.parse_args(argv)

    if args.isa:
        if args.case or args.all:
            parser.error("--isa does not take a case study")
        if args.arch:
            from ..analysis.isaspec import available_archs

            if args.arch not in available_archs():
                parser.error(
                    f"unknown architecture {args.arch!r}"
                    f" (choose from {', '.join(available_archs())})"
                )
        payload = _payload("isa")
        _run_isa(args, payload)
    else:
        if args.arch:
            parser.error("--arch only applies to --isa")
        if not args.all and not args.case:
            parser.error("give a case study name, --all, or --isa")
        names = all_names if args.all else [args.case]
        payload = _payload("cases")
        _run_cases(args, names, payload)

    payload["ok"] = payload["totals"]["errors"] == 0

    if args.json == "-":
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    elif args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
