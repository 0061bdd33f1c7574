"""Property (hypothesis): corrupt cache files read as counted misses.

Whatever bytes sit in the trace log, opening the cache and loading from
it never raises.  Each load returns a miss or a
well-formed hit, and every record the loader rejects is counted in
``corrupt_entries``.  A same-length change to a valid record (bit rot, a
lying disk) is never served, under any key: the record's digest covers
its key and rejects it.
"""

from __future__ import annotations

import functools
import tempfile

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.wellformed import is_wellformed
from repro.arch.arm import ArmModel
from repro.cache import DiskCache
from repro.isla import trace_for_opcode
from repro.itl.trace import Trace

from ._log import record_span

ARM = ArmModel()
ADD_X1_X2_X3 = 0x8B030041
KEY = "ab" * 32


@functools.lru_cache(maxsize=None)
def _valid_entry() -> bytes:
    """The bytes of one well-formed record, as the store writes them."""
    result = trace_for_opcode(ARM, ADD_X1_X2_X3)
    with tempfile.TemporaryDirectory() as root:
        DiskCache(root).store_trace(KEY, result.trace, {"paths": result.paths})
        log, start, end = record_span(root, KEY)
        return log.read_bytes()[start:end]


@st.composite
def _mutated_entry(draw) -> bytes:
    """A valid record with one byte range replaced: mostly near-misses
    that get past the first parse step."""
    data = _valid_entry()
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, min(len(data), start + 16)))
    return data[:start] + draw(st.binary(max_size=16)) + data[end:]


entry_bytes = st.one_of(st.binary(max_size=512), _mutated_entry())


@st.composite
def _flipped_entry(draw) -> bytes:
    """A valid record with one to three bytes changed in place."""
    data = bytearray(_valid_entry())
    for i in draw(st.sets(st.integers(0, len(data) - 1), min_size=1, max_size=3)):
        data[i] ^= draw(st.integers(1, 255))
    return bytes(data)


def _well_formed_hit(hit) -> bool:
    trace, meta = hit
    return isinstance(trace, Trace) and isinstance(meta, dict)


def _open_log(root, data: bytes) -> DiskCache:
    """A fresh handle on a cache whose trace log holds ``data``."""
    DiskCache(root)._log_path.write_bytes(data)
    return DiskCache(root)


@settings(max_examples=150, deadline=None)
@given(entry_bytes)
def test_trace_entry_is_a_hit_or_a_counted_miss(data):
    with tempfile.TemporaryDirectory() as root:
        cache = _open_log(root, data)
        indexed = KEY in cache._index
        hit = cache.load_trace(KEY)
        if hit is None:
            assert cache.stats["trace_misses"] == 1
            # A record indexed under the key and then rejected is counted,
            # and so is a damaged tail the open cut off.
            assert cache.stats["corrupt_entries"] >= indexed
        else:
            # Bytes damaged around an intact record may still be counted.
            assert _well_formed_hit(hit) and is_wellformed(hit[0])


@settings(max_examples=300, deadline=None)
@given(_flipped_entry())
def test_same_length_flips_never_load(data):
    with tempfile.TemporaryDirectory() as root:
        cache = _open_log(root, data)
        for key in [KEY, *cache._index]:
            assert cache.load_trace(key) is None
        assert cache.stats["corrupt_entries"] >= 1

