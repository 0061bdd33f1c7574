"""CLI: generate the Isla trace of one opcode.

Examples::

    python -m repro.tools.trace arm 0x910103ff --pin PSTATE.EL=2 --pin PSTATE.SP=1
    python -m repro.tools.trace riscv 0x00058683
    python -m repro.tools.trace arm 0x910103ff            # unconstrained
    python -m repro.tools.trace arm 0x910103ff --cache-dir .repro-cache
"""

from __future__ import annotations

import argparse
import sys

from ..arch import registry
from ..cache import resolve_cache
from ..isla import Assumptions, IslaError, trace_for_opcode
from ..itl.printer import trace_to_sexpr


def parse_pin(text: str) -> tuple[str, int]:
    name, _, value = text.partition("=")
    if not value:
        raise argparse.ArgumentTypeError(f"expected REG=VALUE, got {text!r}")
    return name, int(value, 0)


def width_of(model, name: str) -> int:
    from ..itl.events import Reg

    return model.regfile.width_of(Reg.parse(name))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.trace", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("arch", choices=list(registry.names()))
    parser.add_argument("opcode", help="32-bit opcode (0x-prefixed or decimal)")
    parser.add_argument(
        "--pin", action="append", default=[], type=parse_pin, metavar="REG=VAL",
        help="pin a register (may be repeated)",
    )
    parser.add_argument("--disassemble", action="store_true", help="show the mnemonic")
    parser.add_argument(
        "--cache-dir", default=None,
        help="on-disk trace cache directory (default: $REPRO_CACHE_DIR if "
             "set, else no cache); warm reruns skip symbolic execution",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk cache even if --cache-dir/$REPRO_CACHE_DIR is set",
    )
    args = parser.parse_args(argv)

    info = registry.get(args.arch)
    model = info.model()
    opcode = int(args.opcode, 0)

    if args.disassemble:
        print(f"; {info.decode().try_disassemble(opcode)}")
    assumptions = Assumptions()
    for name, value in args.pin:
        assumptions.pin(name, value, width_of(model, name))
    cache = resolve_cache(args.cache_dir, args.no_cache)
    try:
        result = trace_for_opcode(model, opcode, assumptions, cache=cache)
    except IslaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if cache is not None:
            cache.flush()
    print(trace_to_sexpr(result.trace))
    source = " (cached)" if result.cached else ""
    print(
        f"; {result.paths} path(s), {result.trace.num_events()} events, "
        f"{result.model_calls} model functions{source}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
