"""Mutation detection: each seeded defect must be flagged with its code.

The checker's value is measured by what it *catches*.  Each test takes a
genuine executor trace (which checks clean), applies one minimal mutation
of the kind a buggy simplifier pass, version-skewed cache entry, or
hand-edited trace could introduce, and asserts the analysis reports the
expected finding code — not merely "some finding".
"""

import json

import pytest

from repro.analysis import check_trace, is_wellformed
from repro.arch.arm import ArmModel
from repro.cache import DiskCache, trace_key
from repro.isla import Assumptions, trace_for_opcode
from repro.itl import DeclareConst, DefineConst, Trace, WriteReg
from repro.smt import builder as B

ARM = ArmModel()
ADD_SP = 0x910103FF  # add sp, sp, #0x40 — a linear trace under the pins


def _assumptions():
    return Assumptions().pin("PSTATE.EL", 2, 2).pin("PSTATE.SP", 1, 1)


@pytest.fixture(scope="module")
def trace():
    res = trace_for_opcode(ARM, ADD_SP, _assumptions())
    assert check_trace(res.trace, ARM.regfile) == []  # clean baseline
    return res.trace


def _edit_record(root, key, edit) -> None:
    """Replace the text of ``key``'s record in the trace log with
    ``edit(text)``."""
    from tests.cache._log import record_span

    log, start, end = record_span(root, key)
    data = log.read_bytes()
    text = edit(data[start:end].decode()).encode()
    log.write_bytes(data[:start] + text + data[end:])


def _reseal(text: str) -> str:
    """Recompute a hand-mutated cache record's digest, as a buggy writer
    would have sealed it, so its load gets past the digest check."""
    from repro.cache.store import _entry_digest, _header_json

    header, _, body = text.partition("\n")
    meta = json.loads(header)
    meta["digest"] = _entry_digest(meta, body)
    return _header_json(meta) + "\n" + body


def _replace_event(trace: Trace, index: int, *replacement) -> Trace:
    events = list(trace.events)
    events[index : index + 1] = replacement
    return Trace(tuple(events), trace.cases)


def codes(findings):
    return {f.code for f in findings}


class TestSeededMutations:
    def test_widened_definition_is_flagged(self, trace):
        """Mutation: a pass rebuilds a definition 8 bits too wide."""
        i, j = next(
            (i, j)
            for i, j in enumerate(trace.events)
            if isinstance(j, DefineConst) and j.expr.sort.is_bv()
        )
        mutated = _replace_event(
            trace, i, DefineConst(j.var, B.zero_extend(8, j.expr))
        )
        assert "WF007" in codes(check_trace(mutated, ARM.regfile))

    def test_swapped_register_width_is_flagged(self, trace):
        """Mutation: a register write is narrowed below its declaration."""
        i, j = next(
            (i, j)
            for i, j in enumerate(trace.events)
            if isinstance(j, WriteReg) and j.value.width > 1
        )
        mutated = _replace_event(
            trace, i, WriteReg(j.reg, B.extract(j.value.width - 2, 0, j.value))
        )
        assert "WF004" in codes(check_trace(mutated, ARM.regfile))
        # Without the register file the narrow write is undetectable — the
        # width check genuinely needs the architecture's declarations.
        assert "WF004" not in codes(check_trace(mutated))

    def test_reordered_definition_is_flagged(self, trace):
        """Mutation: a declaration drifts below the first use of its var."""
        i, j = next(
            (i, j)
            for i, j in enumerate(trace.events)
            if isinstance(j, DeclareConst)
            and any(
                j.var in k.expr.free_vars()
                for k in trace.events[i + 1 :]
                if isinstance(k, DefineConst)
            )
        )
        events = list(trace.events)
        del events[i]
        events.append(j)
        mutated = Trace(tuple(events), trace.cases)
        assert "WF002" in codes(check_trace(mutated, ARM.regfile))

    def _store_mutated_entry(self, tmp_path, reseal=False):
        """Store a well-formed record, then flip the sort of its memory
        event's size field in place (same byte length, so the header's
        length check still passes)."""
        from repro.itl import ReadMem
        from repro.smt.sorts import bv_sort

        data, addr = B.bv_var("d", 64), B.bv_var("a", 64)
        stored = Trace.lin(
            DeclareConst(addr, bv_sort(64)),
            DeclareConst(data, bv_sort(64)),
            ReadMem(data, addr, 8),
        )
        assert is_wellformed(stored)
        cache = DiskCache(tmp_path)
        key = trace_key(ARM, ADD_SP, _assumptions())
        cache.store_trace(key, stored, {"paths": 1})

        def mutate(text: str) -> str:
            assert text.count(" 8)") == 1
            text = text.replace(" 8)", " 4)")  # 64-bit data, size 4
            return _reseal(text) if reseal else text

        _edit_record(tmp_path, key, mutate)
        return key

    def test_corrupted_cache_entry_is_rejected(self, tmp_path):
        """Mutation: a cached entry parses but violates the judgement.

        The record is resealed after the mutation (a writer bug, not bit
        rot), so the digest accepts it: the well-formedness gate must
        reject it, bump ``wellformed_rejects``, and evict it from the
        handle's index.
        """
        key = self._store_mutated_entry(tmp_path, reseal=True)

        cache = DiskCache(tmp_path)  # a second process reads the record
        assert cache.load_trace(key) is None
        assert cache.stats["wellformed_rejects"] == 1
        assert cache.stats["corrupt_entries"] == 1
        assert cache.stats["trace_misses"] == 1
        assert key not in cache._index  # evicted on sight

    def test_unsealed_mutation_is_a_digest_miss(self, tmp_path):
        """The same mutation without resealing stops at the digest: a
        counted corrupt miss before the entry is even parsed."""
        key = self._store_mutated_entry(tmp_path)

        cache = DiskCache(tmp_path)  # a second process reads the record
        assert cache.load_trace(key) is None
        assert cache.stats["wellformed_rejects"] == 0
        assert cache.stats["corrupt_entries"] == 1
        assert cache.stats["trace_misses"] == 1

    def test_version_skewed_entry_is_rejected(self, tmp_path):
        """Mutation: an entry written by a buggy/older writer — parses under
        today's grammar but fails SSA (double definition)."""
        from repro.smt.sorts import bv_sort

        x = B.bv_var("x", 64)
        skewed = Trace.lin(
            DeclareConst(x, bv_sort(64)), DeclareConst(x, bv_sort(64))
        )
        assert not is_wellformed(skewed)
        DiskCache(tmp_path).store_trace("ab" * 32, skewed, {"paths": 1})
        cache = DiskCache(tmp_path)  # a second process reads the entry
        assert cache.load_trace("ab" * 32) is None
        assert cache.stats["wellformed_rejects"] == 1
        assert "ab" * 32 not in cache._index  # evicted on sight
        # The rejection is sticky-safe: a later load is a plain miss.
        assert cache.load_trace("ab" * 32) is None
        assert cache.stats["wellformed_rejects"] == 1
        assert cache.stats["trace_misses"] == 2
