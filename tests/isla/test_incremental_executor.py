"""Executor-level behaviour of the shared solver: push/pop across paths,
branch-check elision, and slicing-independence of the generated traces."""

from contextlib import ExitStack

import pytest

from repro.isla import Assumptions, trace_for_opcode
from repro.isla.executor import SymbolicMachine
from repro.itl import trace_to_sexpr
from repro.itl.events import Reg
from repro.sail.model import IsaModel
from repro.smt import builder as B
from repro.smt.solver import clear_check_cache

from .._reference import whole_goals


@pytest.fixture(autouse=True)
def _cold_cache():
    clear_check_cache()
    yield
    clear_check_cache()


def _with_engines(engines, fn):
    with ExitStack() as stack:
        for engine in engines:
            stack.enter_context(engine())
        return fn()


class _TwoBranchModel(IsaModel):
    """Forks once on x < 100, then branches on the *negation* along both
    arms — the second branch is always decided, and on the arm where the
    first query comes back UNSAT the elision fires (path known feasible
    plus an UNSAT first check implies the other arm is SAT)."""

    name = "test-two-branch"

    def _declare_registers(self, regfile):
        self.pc_reg = regfile.declare("PC", 64)
        self.x0 = regfile.declare("X0", 64)

    def execute(self, m, opcode):
        x = m.read_reg(self.x0)
        pc = m.read_reg(self.pc_reg)
        below = B.bvult(x, B.bv(100, 64))
        if m.branch(below, hint="fork"):
            pc = B.bvadd(pc, B.bv(4, 64))
        else:
            pc = B.bvadd(pc, B.bv(8, 64))
        if m.branch(B.not_(below), hint="decided"):
            pc = B.bvadd(pc, B.bv(16, 64))
        m.write_reg(self.pc_reg, pc)


def test_second_check_elided_on_unsat_after_feasible_path():
    model = _TwoBranchModel()
    res = trace_for_opcode(model, 0, Assumptions())
    assert res.paths == 2
    # On the x<100 arm the "decided" branch asks check(not below) -> UNSAT
    # with the path already known feasible: the complementary query is
    # skipped, not issued.
    assert res.checks_skipped >= 1
    # Elision changes query count, never structure: 2 cases, each with the
    # decided branch folded away.
    assert res.trace.cases is not None and len(res.trace.cases) == 2


def test_elision_flag_reset_by_unchecked_constraint():
    """read_reg assumption constraints enter via unchecked solver.add and
    must invalidate the known-feasible flag."""
    constrained = Assumptions().constrain(
        "X0", lambda v: B.bvult(v, B.bv(50, 64))
    )
    machine = SymbolicMachine(_TwoBranchModel(), constrained, forced=())
    machine._path_known_feasible = True
    machine.read_reg(Reg("X0"))
    assert machine._path_known_feasible is False


def test_elided_branch_produces_no_fork():
    """The elided verdict is decisive: the 'decided' branch folds away on
    both arms instead of forking, so each case is a leaf."""
    model = _TwoBranchModel()
    res = trace_for_opcode(model, 0, Assumptions())
    assert res.paths == 2
    for case in res.trace.cases:
        assert case.cases is None or len(case.cases) == 0


@pytest.mark.parametrize(
    "mode",
    [(), (whole_goals,)],
)
def test_trace_identical_across_modes_arm(mode):
    from repro.arch.arm import ArmModel, encode as A

    model = ArmModel()
    opcodes = [
        A.b_cond("eq", -16),
        A.cmp_reg(1, 2),
        A.cbz(3, 8),
        A.add_imm(0, 1, 12),
    ]
    reference = _with_engines(
        (whole_goals,),
        lambda: [
            trace_to_sexpr(trace_for_opcode(model, op, Assumptions()).trace)
            for op in opcodes
        ],
    )
    clear_check_cache()
    got = _with_engines(
        mode,
        lambda: [
            trace_to_sexpr(trace_for_opcode(model, op, Assumptions()).trace)
            for op in opcodes
        ],
    )
    assert got == reference


def test_shared_solver_across_paths():
    """All paths of one enumeration run on one solver (pushed/popped), so
    the trailing state is clean: no leftover assertions."""
    model = _TwoBranchModel()
    res = trace_for_opcode(model, 0, Assumptions())
    assert res.paths == 2
    # Each path re-runs its prefix; with the shared solver the constraint
    # stack must end balanced (pop per path).  Indirectly observable: a
    # second enumeration gives the identical trace.
    res2 = trace_for_opcode(model, 0, Assumptions())
    assert trace_to_sexpr(res.trace) == trace_to_sexpr(res2.trace)
    assert res2.checks_skipped == res.checks_skipped
