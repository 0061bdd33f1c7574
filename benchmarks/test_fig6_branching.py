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


# -- branch-heavy incremental comparison -------------------------------------
#
# ``beq`` itself forks only once (its flag queries are decided by the
# word-level theory layer), so to measure what the incremental backend buys
# the *executor* we scale Fig. 6's shape: an instruction whose semantics
# branch on a chain of data-dependent conditions, driven through the real
# symbolic machine (fork scheduling, path replay, trace reassembly).


class _BranchChainModel:
    """A minimal IsaModel whose one instruction forks ``depth`` times on
    SAT-core-hard conditions — Fig. 6 branching, deepened."""

    def __new__(cls, depth: int):
        from repro.sail.model import IsaModel

        class Model(IsaModel):
            name = "bench-branch-chain"

            def _declare_registers(self, regfile):
                self.pc_reg = regfile.declare("PC", 64)
                self.x0 = regfile.declare("X0", 64)

            def execute(self, m, opcode):
                from repro.smt import builder as B

                acc = m.read_reg(self.x0)
                pc = m.read_reg(self.pc_reg)
                for i in range(depth):
                    acc = B.bvadd(
                        B.bvxor(
                            acc,
                            B.bv((0x9E3779B97F4A7C15 * (i + 1)) % (1 << 64), 64),
                        ),
                        B.bv(i * 7 + 1, 64),
                    )
                    cond = B.bvult(acc, B.bv((1 << 64) - (1 << 61), 64))
                    if m.branch(cond, hint=f"chain{i}"):
                        pc = B.bvadd(pc, B.bv(4, 64))
                    else:
                        pc = B.bvadd(pc, B.bv(8, 64))
                m.write_reg(self.pc_reg, pc)

        return Model()


def test_fig6_incremental_branching_speedup(bench_smt_record):
    import time

    from repro.smt.solver import clear_check_cache
    from tests._reference import fresh_solver

    chain = _BranchChainModel(depth=5)

    def timed():
        best = None
        for _ in range(3):
            clear_check_cache()
            t0 = time.perf_counter()
            res = trace_for_opcode(chain, 0, Assumptions(), max_paths=64)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best, res

    inc_t, inc_res = timed()
    with fresh_solver():
        fresh_t, fresh_res = timed()
    # Same enumeration either way: the engines change cost, not verdicts.
    assert inc_res.paths == fresh_res.paths
    assert trace_to_sexpr(inc_res.trace) == trace_to_sexpr(fresh_res.trace)
    speedup = fresh_t / inc_t
    bench_smt_record(
        "fig6_branch_chain_executor",
        depth=5,
        paths=inc_res.paths,
        solver_checks=inc_res.solver_checks,
        checks_skipped=inc_res.checks_skipped,
        incremental_s=round(inc_t, 6),
        fresh_s=round(fresh_t, 6),
        speedup=round(speedup, 2),
    )
    assert speedup >= 1.5, f"executor incremental speedup {speedup:.2f}x < 1.5x"
