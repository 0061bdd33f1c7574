"""Property (hypothesis): corrupt cache files read as counted misses.

Whatever bytes sit in a trace entry, a family entry or the verdict log,
opening the cache and loading from it never raises.  Each load returns a
miss or a well-formed hit, and every entry the loader rejects is counted
in ``corrupt_entries``.  A same-length change to a valid entry (bit rot,
a lying disk) is never served: the entry's digest rejects it.
"""

from __future__ import annotations

import functools
import json
import tempfile

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.wellformed import is_wellformed
from repro.arch.arm import ArmModel
from repro.cache import CACHE_FORMAT_VERSION, DiskCache
from repro.isla import trace_for_opcode
from repro.itl.trace import Trace

ARM = ArmModel()
ADD_X1_X2_X3 = 0x8B030041
KEY = "ab" * 32


@functools.lru_cache(maxsize=None)
def _valid_entry() -> bytes:
    """The bytes of one well-formed entry, as the store writes them."""
    result = trace_for_opcode(ARM, ADD_X1_X2_X3)
    with tempfile.TemporaryDirectory() as root:
        cache = DiskCache(root)
        cache.store_trace(KEY, result.trace, {"paths": result.paths})
        return cache._trace_path(KEY).read_bytes()


@st.composite
def _mutated_entry(draw) -> bytes:
    """A valid entry with one byte range replaced: mostly near-misses that
    get past the first parse step."""
    data = _valid_entry()
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, min(len(data), start + 16)))
    return data[:start] + draw(st.binary(max_size=16)) + data[end:]


entry_bytes = st.one_of(st.binary(max_size=512), _mutated_entry())


@st.composite
def _flipped_entry(draw) -> bytes:
    """A valid entry with one to three bytes changed in place."""
    data = bytearray(_valid_entry())
    for i in draw(st.sets(st.integers(0, len(data) - 1), min_size=1, max_size=3)):
        data[i] ^= draw(st.integers(1, 255))
    return bytes(data)


def _is_verdict_record(line: bytes) -> bool:
    try:
        record = json.loads(line)
    except (ValueError, RecursionError):
        return False
    return (
        isinstance(record, dict)
        and isinstance(record.get("k"), str)
        and record.get("r") in ("sat", "unsat")
    )


_record_line = st.one_of(
    st.builds(
        lambda k, r: json.dumps({"k": k, "r": r}).encode(),
        st.one_of(st.text(max_size=8), st.integers(), st.none()),
        st.one_of(st.sampled_from(["sat", "unsat", "unknown"]), st.integers()),
    ),
    st.binary(max_size=64).filter(lambda b: b"\n" not in b),
)

verdict_log = st.builds(
    lambda lines, tail: b"\n".join(lines) + tail,
    st.lists(_record_line, max_size=12),
    st.sampled_from([b"", b"\n"]),
)


def _well_formed_hit(hit) -> bool:
    trace, meta = hit
    return isinstance(trace, Trace) and isinstance(meta, dict)


@settings(max_examples=150, deadline=None)
@given(entry_bytes)
def test_trace_entry_is_a_hit_or_a_counted_miss(data):
    with tempfile.TemporaryDirectory() as root:
        cache = DiskCache(root)
        path = cache._trace_path(KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        hit = cache.load_trace(KEY)
        if hit is None:
            assert cache.stats.corrupt_entries == 1
            assert cache.stats.trace_misses == 1
        else:
            assert _well_formed_hit(hit) and is_wellformed(hit[0])
            assert cache.stats.corrupt_entries == 0


@settings(max_examples=150, deadline=None)
@given(entry_bytes)
def test_family_entry_is_a_hit_or_a_counted_miss(data):
    with tempfile.TemporaryDirectory() as root:
        cache = DiskCache(root)
        path = cache._family_path(KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        hit = cache.load_family(KEY)
        if hit is None:
            assert cache.stats.corrupt_entries == 1
            assert cache.stats.family_misses == 1
        else:
            assert _well_formed_hit(hit)
            assert cache.stats.corrupt_entries == 0


@settings(max_examples=300, deadline=None)
@given(_flipped_entry(), st.sampled_from(["trace", "family"]))
def test_same_length_flips_never_load(data, kind):
    with tempfile.TemporaryDirectory() as root:
        cache = DiskCache(root)
        path = cache._trace_path(KEY) if kind == "trace" else cache._family_path(KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        load = cache.load_trace if kind == "trace" else cache.load_family
        assert load(KEY) is None
        assert cache.stats.corrupt_entries == 1


@settings(max_examples=150, deadline=None)
@given(verdict_log)
def test_verdict_log_loads_only_verdicts_and_counts_the_rest(data):
    with tempfile.TemporaryDirectory() as root:
        path = DiskCache(root)._smt_path
        path.write_bytes(data)
        cache = DiskCache(root)
        *lines, tail = data.split(b"\n")
        rejected = sum(not _is_verdict_record(line) for line in lines)
        assert cache.stats.corrupt_entries == rejected + (1 if tail else 0)
        for line in lines:
            if _is_verdict_record(line):
                key = json.loads(line)["k"]
                assert cache.smt_lookup(key) in ("sat", "unsat")
        assert cache.smt_lookup("no such key") is None
