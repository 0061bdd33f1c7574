"""Fig. 6: intra-instruction branching for conditional jumps (``beq -16``).

Regenerates the two-case trace structure of the paper's Fig. 6 and measures
how constraints collapse it.
"""

import pytest

from repro.arch.arm import ArmModel, encode as A
from repro.isla import Assumptions, trace_for_opcode
from repro.itl import events as E
from repro.itl import trace_to_sexpr

OPCODE = A.b_cond("eq", -16)


@pytest.fixture(scope="module")
def model():
    return ArmModel()


def test_fig6_print_trace(model, capsys):
    res = trace_for_opcode(model, OPCODE, Assumptions())
    with capsys.disabled():
        print()
        print("beq -16 (Fig. 6 reproduction)")
        print(trace_to_sexpr(res.trace))


def test_fig6_two_cases(model):
    res = trace_for_opcode(model, OPCODE, Assumptions())
    assert res.trace.cases is not None and len(res.trace.cases) == 2


def test_fig6_taken_branch_subtracts_16(model):
    res = trace_for_opcode(model, OPCODE, Assumptions())
    taken = res.trace.cases[0]
    text = trace_to_sexpr(taken)
    assert "#xfffffffffffffff0" in text  # -16 in 64-bit two's complement


def test_fig6_fallthrough_adds_4(model):
    res = trace_for_opcode(model, OPCODE, Assumptions())
    text = trace_to_sexpr(res.trace.cases[1])
    assert "#x0000000000000004" in text


def test_fig6_only_z_flag_read(model):
    res = trace_for_opcode(model, OPCODE, Assumptions())
    flags = [
        j.reg.field
        for j in res.trace.iter_events()
        if isinstance(j, E.ReadReg) and j.reg.base == "PSTATE"
    ]
    assert flags == ["Z"]


@pytest.mark.parametrize("cond", ["eq", "ne", "lt", "ge", "hi", "ls"])
def test_fig6_all_conditions_branch(model, cond):
    res = trace_for_opcode(model, A.b_cond(cond, -16), Assumptions())
    assert res.paths == 2


def test_fig6_pinned_flags_collapse(model):
    res = trace_for_opcode(model, OPCODE, Assumptions().pin("PSTATE.Z", 0, 1))
    assert res.paths == 1


def test_fig6_benchmark(benchmark, model):
    benchmark(lambda: trace_for_opcode(model, OPCODE, Assumptions()))
