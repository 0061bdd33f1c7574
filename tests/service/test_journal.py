"""The job journal: durable appends, torn-tail recovery, replay folding."""

from __future__ import annotations

import json

import pytest

from repro.service.journal import (
    ACCEPT,
    CANCELLED,
    DONE,
    FAILED,
    JobJournal,
    Replay,
    _checksum,
)


def _accept(journal, job_id, content, case="rbit"):
    return journal.append(
        ACCEPT, job=job_id, hash=content, case=case, kwargs={}, priority="batch"
    )


def _write_crc_valid(path, records) -> list[bytes]:
    """Write records with a correct seq and CRC whatever their fields hold,
    as a buggy or hostile writer could; returns the lines written."""
    lines = []
    for seq, fields in enumerate(records):
        record = {"seq": seq, **fields}
        record["crc"] = _checksum(record)
        lines.append(json.dumps(record, sort_keys=True).encode() + b"\n")
    path.write_bytes(b"".join(lines))
    return lines


class TestAppendRecover:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "jobs.journal"
        with JobJournal(path) as journal:
            _accept(journal, "fleet-1", "h1")
            journal.append(DONE, job="fleet-1", hash="h1", result={"ok": True})
        with JobJournal(path) as journal:
            records = journal.records()
        assert [r["kind"] for r in records] == [ACCEPT, DONE]
        assert records[1]["result"] == {"ok": True}
        assert [r["seq"] for r in records] == [0, 1]

    def test_appends_continue_the_seq_chain(self, tmp_path):
        path = tmp_path / "jobs.journal"
        with JobJournal(path) as journal:
            _accept(journal, "fleet-1", "h1")
        with JobJournal(path) as journal:
            record = _accept(journal, "fleet-2", "h2")
            assert record["seq"] == 1
        with JobJournal(path) as journal:
            assert len(journal.records()) == 2

    def test_torn_final_append_is_truncated(self, tmp_path):
        path = tmp_path / "jobs.journal"
        with JobJournal(path) as journal:
            _accept(journal, "fleet-1", "h1")
            _accept(journal, "fleet-2", "h2")
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "done", "job": "fleet-1", "tru')
        with JobJournal(path) as journal:
            assert len(journal.records()) == 2
            assert journal.stats["truncated_bytes"] > 0
        # The file itself was repaired, not just skipped over.
        lines = path.read_bytes().splitlines()
        assert len(lines) == 2

    def test_bitrot_mid_record_is_detected_by_crc(self, tmp_path):
        path = tmp_path / "jobs.journal"
        with JobJournal(path) as journal:
            _accept(journal, "fleet-1", "h1")
            _accept(journal, "fleet-2", "h2")
        data = bytearray(path.read_bytes())
        # Flip a byte inside the *second* record's payload (still valid JSON
        # shape-wise is irrelevant — the CRC catches it either way).
        second_start = bytes(data).find(b"\n") + 1
        flip = bytes(data).find(b"fleet-2", second_start)
        data[flip] ^= 0x01
        path.write_bytes(bytes(data))
        with JobJournal(path) as journal:
            records = journal.records()
        assert [r.get("job") for r in records] == ["fleet-1"]

    def test_corruption_invalidates_everything_after(self, tmp_path):
        """Validation stops at the first bad record: with dense seqs the
        suffix cannot be trusted to be complete, so it is dropped whole."""
        path = tmp_path / "jobs.journal"
        with JobJournal(path) as journal:
            for index in range(4):
                _accept(journal, f"fleet-{index}", f"h{index}")
        lines = path.read_bytes().splitlines(keepends=True)
        mangled = lines[0] + b"garbage\n" + lines[2] + lines[3]
        path.write_bytes(mangled)
        with JobJournal(path) as journal:
            assert [r["job"] for r in journal.records()] == ["fleet-0"]

    def test_fresh_appends_after_truncation_are_valid(self, tmp_path):
        path = tmp_path / "jobs.journal"
        with JobJournal(path) as journal:
            _accept(journal, "fleet-1", "h1")
        with open(path, "ab") as handle:
            handle.write(b"\xff\xfe torn")
        with JobJournal(path) as journal:
            _accept(journal, "fleet-2", "h2")
        with JobJournal(path) as journal:
            assert [r["job"] for r in journal.records()] == ["fleet-1", "fleet-2"]

    def test_every_line_is_valid_json_with_crc(self, tmp_path):
        path = tmp_path / "jobs.journal"
        with JobJournal(path) as journal:
            _accept(journal, "fleet-1", "h1")
            journal.append(FAILED, job="fleet-1", hash="h1", error="boom")
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert isinstance(record.pop("crc"), int)


class TestReplay:
    def test_pending_and_completed_split(self, tmp_path):
        path = tmp_path / "jobs.journal"
        with JobJournal(path) as journal:
            _accept(journal, "fleet-1", "h1")
            _accept(journal, "fleet-2", "h2")
            _accept(journal, "fleet-3", "h3")
            journal.append(DONE, job="fleet-1", hash="h1", result={"r": 1})
            journal.append(CANCELLED, job="fleet-3", hash="h3", error="user")
        with JobJournal(path) as journal:
            replay = journal.replay()
        assert isinstance(replay, Replay)
        assert list(replay.pending) == ["fleet-2"]
        assert list(replay.completed) == ["h1"]
        assert replay.completed["h1"]["result"] == {"r": 1}
        assert set(replay.terminal) == {"fleet-1", "fleet-3"}

    def test_first_done_wins_for_a_hash(self, tmp_path):
        path = tmp_path / "jobs.journal"
        with JobJournal(path) as journal:
            _accept(journal, "fleet-1", "same")
            _accept(journal, "fleet-2", "same")
            journal.append(DONE, job="fleet-1", hash="same", result={"n": 1})
            journal.append(DONE, job="fleet-2", hash="same", result={"n": 2})
            replay = journal.replay()
        assert replay.completed["same"]["result"] == {"n": 1}
        assert not replay.pending

    def test_replay_of_torn_tail_keeps_job_pending(self, tmp_path):
        """A crash between executing a job and journaling its completion
        must leave the accept record pending — never lose the job."""
        path = tmp_path / "jobs.journal"
        with JobJournal(path) as journal:
            _accept(journal, "fleet-1", "h1")
            journal.append(DONE, job="fleet-1", hash="h1", result={})
        data = path.read_bytes()
        # Tear the DONE record's tail: the crash hit mid-append.
        path.write_bytes(data[:-10])
        with JobJournal(path) as journal:
            replay = journal.replay()
        assert list(replay.pending) == ["fleet-1"]
        assert not replay.completed


class TestShape:
    """A CRC-valid record of the wrong shape stops recovery like a CRC
    failure: the tail from it on is truncated and counted."""

    GOOD = {
        "kind": ACCEPT, "job": "fleet-1", "hash": "h1", "case": "rbit",
        "kwargs": {}, "priority": "batch",
    }

    def _recover(self, path, bad):
        lines = _write_crc_valid(path, [self.GOOD, bad])
        with JobJournal(path) as journal:
            replay = journal.replay()
            assert journal.records() == [{"seq": 0, **self.GOOD}]
            assert journal.stats["truncated_bytes"] == len(lines[1])
        assert path.read_bytes() == lines[0]
        return replay

    def test_accept_with_a_list_job(self, tmp_path):
        bad = {**self.GOOD, "job": ["x"]}
        replay = self._recover(tmp_path / "jobs.journal", bad)
        assert list(replay.pending) == ["fleet-1"]

    def test_done_with_a_list_hash(self, tmp_path):
        bad = {"kind": DONE, "job": "fleet-1", "hash": ["h1"], "result": {}}
        replay = self._recover(tmp_path / "jobs.journal", bad)
        assert list(replay.pending) == ["fleet-1"] and not replay.completed

    def test_accept_without_a_case(self, tmp_path):
        bad = {key: v for key, v in self.GOOD.items() if key != "case"}
        replay = self._recover(tmp_path / "jobs.journal", {**bad, "job": "f-2"})
        assert list(replay.pending) == ["fleet-1"]

    @pytest.mark.parametrize(
        "bad",
        [
            {**GOOD, "job": "f-2", "priority": "urgent"},
            {**GOOD, "job": "f-2", "priority": 3},
            {**GOOD, "job": "f-2", "kwargs": [1]},
            {**GOOD, "job": "f-2", "case": 7},
            {"kind": DONE, "job": "fleet-1", "hash": "h1", "result": [1]},
            {"kind": FAILED, "hash": "h1", "error": "boom"},
            {"kind": "bogus", "job": "fleet-1", "hash": "h1"},
        ],
    )
    def test_other_ill_shaped_records(self, tmp_path, bad):
        replay = self._recover(tmp_path / "jobs.journal", bad)
        assert list(replay.pending) == ["fleet-1"]

    def test_done_by_reference_is_not_a_completion(self, tmp_path):
        """A ``done`` with no result (served from a journaled twin) ends
        its job, but only a ``done`` with a result can serve a hash."""
        path = tmp_path / "jobs.journal"
        with JobJournal(path) as journal:
            _accept(journal, "fleet-1", "h1")
            _accept(journal, "fleet-2", "h1")
            journal.append(DONE, job="fleet-2", hash="h1")
            journal.append(DONE, job="fleet-1", hash="h1", result={"n": 1})
            replay = journal.replay()
        assert not replay.pending
        assert replay.completed["h1"]["result"] == {"n": 1}
