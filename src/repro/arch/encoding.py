"""The one word packer every encoder builds through.

Each architecture's ``spec.py`` gives every decode arm one field table: a
tuple of ``(name, hi, lo)`` tiling the 32-bit word MSB-first.  The arm's
fixed bits come from its claim (:func:`repro.analysis.isaspec.fixed_bits_of`),
so the spec is the only place an encoding's bits are written down.
``encode.py`` builds every word with :meth:`Encoding.pack`, and ``asm.py``
parses operand syntax and calls ``encode.py``.
"""

from __future__ import annotations

from ..analysis.isaspec import fixed_bits_of


class Encoding:
    """Per-arm packing tables, built once from an ISA's spec arms."""

    def __init__(self, arms) -> None:
        self._tables = {}
        for arm in arms:
            mask, fixed = fixed_bits_of(arm.match)
            fields = {}
            required = set()
            for name, hi, lo in arm.fields:
                width = hi - lo + 1
                span = ((1 << width) - 1) << lo
                fields[name] = (lo, width, span & mask)
                if span & ~mask:
                    required.add(name)
            self._tables[arm.name] = (fields, fixed, frozenset(required))

    def pack(self, arm: str, **values: int) -> int:
        """The word of ``arm`` with each named field set to its value.

        Raises ``ValueError`` for an unknown field, a value that does not
        fit its field, a value that clashes with one of the arm's fixed
        bits, or a missing field the claim does not fix.
        """
        fields, fixed, required = self._tables[arm]
        word = fixed
        for name, value in values.items():
            entry = fields.get(name)
            if entry is None:
                raise ValueError(f"{arm} has no field {name!r}")
            lo, width, fixed_span = entry
            if value < 0 or value >> width:
                raise ValueError(f"{arm}.{name} = {value} does not fit {width} bits")
            value <<= lo
            if (value ^ fixed) & fixed_span:
                raise ValueError(f"{arm}.{name} clashes with a fixed bit")
            word |= value
        if not values.keys() >= required:
            missing = ", ".join(sorted(required - values.keys()))
            raise ValueError(f"{arm} needs field(s) {missing}")
        return word


def signed(value: int, bits: int, what: str) -> int:
    """``value`` as a ``bits``-wide two's-complement field."""
    if not -(1 << (bits - 1)) <= value < 1 << (bits - 1):
        raise ValueError(f"{what} {value} does not fit {bits} signed bits")
    return value & ((1 << bits) - 1)


def aligned(value: int, scale: int, what: str) -> int:
    """``value`` divided by ``2**scale``; it must be a multiple of it."""
    if value % (1 << scale):
        raise ValueError(f"{what} {value} is not a multiple of {1 << scale}")
    return value >> scale


def bits(value: int, hi: int, lo: int) -> int:
    """``value[hi:lo]``: the slice an immediate contributes to a field."""
    return (value >> lo) & ((1 << (hi - lo + 1)) - 1)
