"""Property (hypothesis): a corrupt job journal recovers to a valid prefix.

Whatever bytes sit in the journal file — garbage, torn lines, or records
whose CRC and seq are right but whose fields are not — opening it and
replaying it never raises.  Recovery keeps the longest prefix of valid
records, truncates the file after it, and counts every dropped byte in
``truncated_bytes``; the router's own replay then starts from it.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.service.fleet import FleetRouter
from repro.service.journal import KINDS, JobJournal, _checksum
from repro.service.protocol import PRIORITIES
from repro.service.supervisor import LocalShard, ShardSupervisor

_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

_FIELDS = ("kind", "job", "hash", "case", "kwargs", "priority", "result", "error")
_values = st.one_of(st.sampled_from([*KINDS, *PRIORITIES]), _json)

# Arbitrary fields under the names replay reads, including none at all.
_any_fields = st.dictionaries(st.sampled_from(_FIELDS), _values, max_size=6)

# The shapes the router writes, so valid prefixes get long.
_ids = st.sampled_from(["fleet-1", "fleet-2", "fleet-3"])
_hashes = st.sampled_from(["h1", "h2"])
_good_fields = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("accept"), "job": _ids, "hash": _hashes,
        "case": st.sampled_from(["rbit", "uart"]),
        "kwargs": st.one_of(st.none(), st.just({"n": 2})),
        "priority": st.sampled_from(PRIORITIES),
    }),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(KINDS[1:]), "job": _ids, "hash": _hashes},
        optional={
            "result": st.dictionaries(st.text(max_size=4), _json, max_size=2),
            "error": st.text(max_size=6),
        },
    ),
)


@st.composite
def _near_miss(draw) -> dict:
    """A well-shaped record with one of its fields dropped or replaced."""
    fields = dict(draw(_good_fields))
    key = draw(st.sampled_from(sorted(fields)))
    if draw(st.integers(0, 3)) == 0:
        del fields[key]
    else:
        fields[key] = draw(_values)
    return fields


# Weighted towards records that get past the CRC, so prefixes get long.
_LINE_MIX = ["good", "good", "near", "near", "near", "any", "raw"]


@st.composite
def _line(draw, seq: int) -> bytes:
    """One journal line: a CRC-valid record (well-shaped, nearly so, or
    arbitrary; usually with the expected seq) or raw bytes."""
    choice = draw(st.sampled_from(_LINE_MIX))
    if choice == "raw":
        return draw(st.binary(max_size=48).filter(lambda b: b"\n" not in b))
    fields = draw(
        {"good": _good_fields, "near": _near_miss(), "any": _any_fields}[choice]
    )
    record = {**fields, "seq": draw(st.sampled_from([seq, seq, seq, seq + 1]))}
    record["crc"] = _checksum(record)
    return json.dumps(record, sort_keys=True).encode()


@st.composite
def _journal(draw) -> bytes:
    count = draw(st.integers(0, 8))
    lines = [draw(_line(seq)) for seq in range(count)]
    tail = draw(st.sampled_from([b"", b"\n", b'{"kind": "do']))
    return b"\n".join(lines) + (b"\n" if lines else b"") + tail


_journal_bytes = st.one_of(st.binary(max_size=256), _journal())


def _router() -> FleetRouter:
    supervisor = ShardSupervisor(
        lambda _s, sid, _g, spec: LocalShard(sid, budget_spec=spec), shards=1
    )
    return FleetRouter(supervisor)


@settings(max_examples=200, deadline=None)
@given(_journal_bytes)
def test_journal_recovers_a_valid_prefix_and_counts_the_rest(data):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "jobs.journal"
        path.write_bytes(data)
        with JobJournal(path, fsync=False) as journal:
            kept = path.read_bytes()
            records = journal.records()
            journal.replay()
            router = _router()
            router.journal = journal
            router._replay_journal()
    assert data.startswith(kept)
    assert journal.stats["truncated_bytes"] == len(data) - len(kept)
    *lines, rest = kept.split(b"\n")
    assert rest == b""
    assert len(lines) == len(records)
    for seq, (line, record) in enumerate(zip(lines, records)):
        revalidated = JobJournal._validate(line, expect_seq=seq)
        assert json.dumps(revalidated, sort_keys=True) == json.dumps(
            record, sort_keys=True
        )
