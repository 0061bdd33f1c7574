"""Arm's logical-immediate encoder agrees with the brute-force inverse.

``encode_bitmask_immediate`` looks values up in a table built once per
datasize; the brute-force search it replaced (``tests/_reference.py``)
tries every ``(N, immr, imms)`` per call.  Both keep the first encoding
in the same walk order, so every encoding must be byte-identical.
"""

from __future__ import annotations

import pytest

from repro.arch.arm.encode import _bitmask_table, encode_bitmask_immediate
from repro.arch.arm.model import decode_bit_masks

from .._reference import brute_force_bitmask_immediate


def _walk(datasize: int):
    """Every encoding in the brute force's order: element size, s, r."""
    for esize_log in range(1, 7):
        esize = 1 << esize_log
        if esize > datasize:
            return
        immn = 1 if esize == 64 else 0
        for s in range(esize - 1):
            imms = s if esize == 64 else (~(esize * 2 - 1) & 0x3F) | s
            for r in range(esize):
                yield esize, (immn, r, imms)


def test_datasize_32_agrees_with_brute_force_on_every_value():
    table = _bitmask_table(32)
    assert len(table) == 1302
    for value, encoding in table.items():
        assert encode_bitmask_immediate(value, 32) == encoding
        assert brute_force_bitmask_immediate(value, 32) == encoding


@pytest.mark.parametrize("datasize", [32, 64])
def test_every_encoding_maps_to_its_first_encoding(datasize):
    """Exhaustive over the encoding space: each value's table entry
    decodes back to it and is the first encoding in walk order that
    does — exactly the encoding the brute force returns."""
    table = _bitmask_table(datasize)
    first: dict[int, tuple[int, int, int]] = {}
    for _esize, (immn, r, imms) in _walk(datasize):
        value = decode_bit_masks(immn, imms, r, datasize)
        first.setdefault(value, (immn, r, imms))
    assert first == table
    for value, (immn, r, imms) in table.items():
        assert decode_bit_masks(immn, imms, r, datasize) == value


def test_datasize_64_agrees_with_brute_force():
    """Every value whose first encoding has an element below 64 bits,
    and every 16th 64-bit-element value (each brute-force call walks up
    to 5334 encodings, so the whole space takes too long for tier 1)."""
    table = _bitmask_table(64)
    assert len(table) == 5334
    wide = 0
    for esize, encoding in _walk(64):
        immn, r, imms = encoding
        value = decode_bit_masks(immn, imms, r, 64)
        if table[value] != encoding:
            continue
        if esize == 64:
            wide += 1
            if wide % 16:
                continue
        assert brute_force_bitmask_immediate(value, 64) == encoding
        assert encode_bitmask_immediate(value, 64) == encoding


NOT_ENCODABLE = [0, -1, 0b101, 0x5A5A5A5A, 1 << 64]


@pytest.mark.parametrize("datasize", [32, 64])
@pytest.mark.parametrize("value", NOT_ENCODABLE)
def test_non_encodable_values_raise(datasize, value):
    with pytest.raises(ValueError):
        brute_force_bitmask_immediate(value, datasize)
    with pytest.raises(ValueError, match="not a logical immediate"):
        encode_bitmask_immediate(value, datasize)


@pytest.mark.parametrize("datasize", [32, 64])
def test_all_ones_is_not_encodable(datasize):
    ones = (1 << datasize) - 1
    with pytest.raises(ValueError):
        encode_bitmask_immediate(ones, datasize)
    with pytest.raises(ValueError):
        brute_force_bitmask_immediate(ones, datasize)
