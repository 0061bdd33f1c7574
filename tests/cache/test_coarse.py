"""Footprint-coarsened trace cache keys.

The soundness claim under test: a trace generated under assumptions ``A``
may be served under assumptions ``B`` iff ``A`` and ``B`` agree on the
registers the original run *read* — and a coarse hit must be byte-for-byte
the trace a cold recompute would produce.
"""

from __future__ import annotations

import json

import pytest

from repro.arch.arm import ArmModel
from repro.cache import DiskCache
from repro.cache.keys import (
    coarse_trace_key,
    footprint_index_key,
    restrict_assumptions,
)
from repro.isla import Assumptions, trace_for_opcode
from repro.itl.events import Reg
from repro.itl.printer import trace_to_sexpr

ARM = ArmModel()
ADD_SP = 0x910103FF  # add sp, sp, #0x40


def el2():
    return Assumptions().pin("PSTATE.EL", 2, 2).pin("PSTATE.SP", 1, 1)


def el2_plus_unread():
    # R5 is never consulted by add sp, sp, #0x40: same trace, new full key.
    return el2().pin("R5", 0, 64)


class TestCoarseKeys:
    def test_restriction_drops_unread_registers(self):
        read = frozenset({Reg.parse("PSTATE.EL"), Reg.parse("PSTATE.SP")})
        restricted = restrict_assumptions(el2_plus_unread(), read)
        assert set(restricted.pinned) == read

    def test_agreeing_assumptions_share_a_key(self):
        read = frozenset({Reg.parse("PSTATE.EL"), Reg.parse("PSTATE.SP")})
        a = coarse_trace_key(ARM, ADD_SP, el2(), read)
        b = coarse_trace_key(ARM, ADD_SP, el2_plus_unread(), read)
        assert a == b

    def test_disagreeing_read_register_changes_the_key(self):
        read = frozenset({Reg.parse("PSTATE.EL"), Reg.parse("PSTATE.SP")})
        other = Assumptions().pin("PSTATE.EL", 1, 2).pin("PSTATE.SP", 1, 1)
        assert coarse_trace_key(ARM, ADD_SP, el2(), read) != coarse_trace_key(
            ARM, ADD_SP, other, read
        )

    def test_read_set_itself_is_part_of_the_key(self):
        # Entries recorded under different read sets must never collide,
        # even when the restricted assumptions coincide.
        small = frozenset({Reg.parse("PSTATE.EL")})
        large = small | {Reg.parse("SP_EL2")}
        assm = Assumptions().pin("PSTATE.EL", 2, 2)
        assert coarse_trace_key(ARM, ADD_SP, assm, small) != coarse_trace_key(
            ARM, ADD_SP, assm, large
        )


class TestCoarseServing:
    def test_superset_assumptions_hit_via_coarse_key(self, tmp_path):
        cache = DiskCache(tmp_path)
        cold = trace_for_opcode(ARM, ADD_SP, el2(), cache=cache)
        assert not cold.cached
        assert cache.stats.trace_writes == 1
        assert cache.stats.trace_coarse_writes == 1
        assert cache.stats.fp_index_writes == 1

        warm = trace_for_opcode(ARM, ADD_SP, el2_plus_unread(), cache=cache)
        assert warm.cached
        assert cache.stats.trace_coarse_hits == 1
        # The served trace is byte-identical to what a cold recompute under
        # the extended assumptions would generate.
        recomputed = trace_for_opcode(ARM, ADD_SP, el2_plus_unread())
        assert trace_to_sexpr(warm.trace) == trace_to_sexpr(recomputed.trace)
        assert trace_to_sexpr(warm.trace) == trace_to_sexpr(cold.trace)

    def test_changed_read_register_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        trace_for_opcode(ARM, ADD_SP, el2(), cache=cache)
        # EL is *in* the read set; disagreeing on it must miss and rerun.
        el1 = Assumptions().pin("PSTATE.EL", 1, 2).pin("PSTATE.SP", 1, 1)
        res = trace_for_opcode(ARM, ADD_SP, el1, cache=cache)
        assert not res.cached
        assert cache.stats.trace_coarse_hits == 0
        # The EL=1 run reads SP_EL1, not SP_EL2: genuinely different trace.
        assert trace_to_sexpr(res.trace) != trace_to_sexpr(
            trace_for_opcode(ARM, ADD_SP, el2()).trace
        )

    def test_exact_key_still_preferred(self, tmp_path):
        cache = DiskCache(tmp_path)
        trace_for_opcode(ARM, ADD_SP, el2(), cache=cache)
        res = trace_for_opcode(ARM, ADD_SP, el2(), cache=cache)
        assert res.cached
        assert cache.stats.trace_coarse_hits == 0  # served by the full key

    def test_coarse_hit_survives_reload(self, tmp_path):
        with DiskCache(tmp_path) as cache:
            trace_for_opcode(ARM, ADD_SP, el2(), cache=cache)
        reloaded = DiskCache(tmp_path)
        res = trace_for_opcode(ARM, ADD_SP, el2_plus_unread(), cache=reloaded)
        assert res.cached
        assert reloaded.stats.trace_coarse_hits == 1


class TestFootprintIndex:
    def test_roundtrip_and_idempotence(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = footprint_index_key(ARM, ADD_SP)
        assert cache.load_footprint(key) is None
        regs = [Reg.parse("PSTATE.EL"), Reg.parse("SP_EL2")]
        cache.store_footprint(key, regs)
        cache.store_footprint(key, regs)  # duplicate write is elided
        assert cache.stats.fp_index_writes == 1
        assert cache.load_footprint(key) == ["PSTATE.EL", "SP_EL2"]
        # Last record wins across handles.
        cache.store_footprint(key, [Reg.parse("R0")])
        assert DiskCache(tmp_path).load_footprint(key) == ["R0"]

    def test_torn_tail_line_skipped(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store_footprint("a" * 64, [Reg.parse("R0")])
        path = cache._fp_path
        path.write_text(
            json.dumps({"k": "a" * 64, "regs": ["R0"]}) + "\n" + '{"k": "bb'
        )
        reloaded = DiskCache(tmp_path)
        assert reloaded.load_footprint("a" * 64) == ["R0"]
        assert reloaded.stats.corrupt_entries == 1
