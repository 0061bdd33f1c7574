"""Each trace's well-formedness is checked once.

``trace_for_opcode`` checks every trace it emits against the register
file and records it; ITL replay then skips its own check for that trace
object.  That is sound because the emission check implies the replay
check: the register file only adds findings.  These tests pin the skip,
the ⊥ an unchecked ill-formed trace still steps to, the
``REPRO_WF_CHECK=0`` switch, and the implication itself over the
conformance corpus's traces and mutated ill-formed ones.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.analysis import wellformed
from repro.cosim import COSIM_ARCHS
from repro.cosim.driver import cached_trace
from repro.cosim.state import build_machine_state, random_case
from repro.isla import trace_for_opcode
from repro.itl import events as E
from repro.itl.opsem import Failure, Runner
from repro.itl.trace import Trace
from repro.smt import builder as B
from repro.smt.sorts import bv_sort

from ..conformance._harness import load_corpus

RISCV = COSIM_ARCHS["riscv"]
ADDI = RISCV.asm.assemble_line("addi t0, t1, 5")


@pytest.fixture
def checks(monkeypatch):
    """Counts ``check_trace`` calls: every well-formedness check runs
    through it (``is_wellformed``, ``assert_wellformed``)."""
    calls = []
    original = wellformed.check_trace

    def counted(trace, *args, **kwargs):
        calls.append(trace)
        return original(trace, *args, **kwargs)

    monkeypatch.setattr(wellformed, "check_trace", counted)
    return calls


def _replay(trace: Trace) -> Runner:
    case = random_case(RISCV, random.Random(0), [ADDI])
    runner = Runner(build_machine_state(RISCV, case))
    runner.run_trace(trace)
    return runner


def _emit() -> Trace:
    return trace_for_opcode(RISCV.model, ADDI, RISCV.assumptions()).trace


def test_emitted_trace_replays_without_a_second_check(checks):
    trace = _emit()
    assert len(checks) == 1  # the emission check
    _replay(trace)
    _replay(trace)
    assert len(checks) == 1


def test_the_memo_is_keyed_by_identity(checks):
    trace = _emit()
    twin = Trace(trace.events, trace.cases)
    assert twin == trace and twin is not trace
    _replay(twin)
    assert checks[1:] == [twin]  # an equal copy is checked once
    _replay(twin)
    assert len(checks) == 2


def test_ill_formed_trace_still_steps_to_bottom():
    x = B.bv_var("x", 64)
    bad = Trace.lin(E.DeclareConst(x, bv_sort(64)), E.DeclareConst(x, bv_sort(64)))
    with pytest.raises(Failure, match="ill-formed trace"):
        _replay(bad)


def test_wf_check_off_skips_both_checks(checks, monkeypatch):
    monkeypatch.setenv("REPRO_WF_CHECK", "0")
    trace = _emit()
    _replay(trace)
    assert checks == []
    # Nothing was recorded while the check was off: once it is back on,
    # replay checks the trace itself.
    monkeypatch.setenv("REPRO_WF_CHECK", "1")
    _replay(trace)
    assert checks == [trace]


# -- the implication: check_trace(t, regfile) clean => check_trace(t) clean --


def _corpus_traces():
    for name, arch in sorted(COSIM_ARCHS.items()):
        words = set()
        for entry in load_corpus(name):
            words.add(int(entry["opcode"], 16))
            words.update(int(w, 16) for w in entry.get("case", {}).get("words", []))
        for word in sorted(words):
            try:
                arch.decode.decode_arm(word)
            except arch.decode.UnknownInstruction:
                continue
            trace = cached_trace(arch, word)
            if trace is not None:
                yield arch, word, trace


def _mutants(trace: Trace):
    """Ill-formed variants of ``trace``, each breaking one rule."""
    events = list(trace.events)

    def with_events(new):
        return dataclasses.replace(trace, events=tuple(new))

    for i, event in enumerate(events):
        if isinstance(event, (E.ReadReg, E.WriteReg, E.AssumeReg)):
            wide = B.zero_extend(1, event.value)  # WF004, register file only
            yield with_events(events[:i] + [dataclasses.replace(event, value=wide)] + events[i + 1:])
            unknown = dataclasses.replace(event, reg=E.Reg("NO_SUCH_REG"))
            yield with_events(events[:i] + [unknown] + events[i + 1:])
            break
    for i, event in enumerate(events):
        if isinstance(event, (E.DeclareConst, E.DefineConst)):
            yield with_events(events[:i + 1] + [event] + events[i + 1:])  # WF003
            yield with_events(events[:i] + events[i + 1:])  # WF002 if used
            break
    yield with_events(events + [E.Assert(B.bv(1, 8))])  # WF006
    yield with_events(
        [E.ReadMem(B.bv(0, 16), B.bv(0x5000, 64), 4)] + events  # WF005
    )


def test_regfile_check_implies_the_replay_check():
    traces = list(_corpus_traces())
    assert {arch.name for arch, _, _ in traces} == set(COSIM_ARCHS)
    flagged = 0
    for arch, word, trace in traces:
        regfile = arch.model.regfile
        for candidate in [trace, *_mutants(trace)]:
            with_regfile = wellformed.check_trace(candidate, regfile)
            if not with_regfile:
                assert wellformed.check_trace(candidate) == [], hex(word)
            else:
                flagged += 1
        assert wellformed.check_trace(trace, regfile) == [], hex(word)
    assert flagged >= 4 * len(traces)
