"""CLI: re-check a serialised proof certificate.

The independent-checker workflow across process boundaries::

    python -m repro.tools.verify memcpy_arm --cert-dir certs  # (or API)
    python -m repro.tools.check certs/memcpy_arm.cert.json

Example of producing a certificate from the API::

    proof = ProofEngine(traces, specs, PC).verify_all()
    open("proof.json", "w").write(proof.to_json())

Exit status: 0 prints ``OK``; 1 prints ``REJECTED: <reason>`` for a
certificate that is malformed or does not re-validate; 2 is a usage error,
an unreadable file included.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.tools.check", description=__doc__)
    parser.add_argument("proof", help="path to a serialised proof (JSON)")
    args = parser.parse_args(argv)

    from ..logic.checker import CheckFailure, check_certificate

    try:
        with open(args.proof, "rb") as handle:
            text = handle.read()
    except OSError as exc:
        parser.error(f"cannot read {args.proof}: {exc.strerror}")
    try:
        report = check_certificate(text)
    except CheckFailure as exc:
        print(f"REJECTED: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {report}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
