"""Regenerate the paper's Fig. 12 (example sizes and times).

Run with::

    pytest benchmarks/test_fig12_table.py --benchmark-only -s

The printed table is the reproduction's counterpart of Fig. 12; the shape
assertions at the bottom check the orderings the paper's numbers exhibit.
"""

import pytest

from repro.tools.fig12 import CASE_BUILDERS, PAPER_FIG12, format_table, run_case


@pytest.fixture(scope="module")
def all_rows():
    return {name: run_case(name) for name in CASE_BUILDERS}


def test_fig12_print_table(all_rows, capsys):
    rows = [all_rows[name] for name in CASE_BUILDERS]
    with capsys.disabled():
        print()
        print("Fig. 12 reproduction — example sizes and times")
        print(format_table(rows))
        print()
        print("paper reference (asm lines, ITL events):")
        for name, (asm, itl) in PAPER_FIG12.items():
            ours = all_rows[name]
            print(
                f"  {name:<16} paper asm={asm:>3} itl={itl:>5}   "
                f"ours asm={ours.asm_lines:>3} itl={ours.itl_events:>5}"
            )


def test_fig12_every_case_verifies(all_rows):
    for name, row in all_rows.items():
        assert row.proof_steps > 0, name


def test_fig12_itl_ordering_matches_paper(all_rows):
    """pKVM has the largest trace set in both the paper and here; rbit the
    smallest among the Arm rows (Fig. 12's ITL column ordering)."""
    itl = {name: row.itl_events for name, row in all_rows.items()}
    assert max(itl, key=itl.get) == "pkvm"
    arm_rows = [n for n, (isa, _, _) in CASE_BUILDERS.items() if isa == "arm"]
    assert min(arm_rows, key=lambda n: itl[n]) == "rbit"


def test_fig12_binsearch_exceeds_memcpy(all_rows):
    assert all_rows["binsearch/arm"].itl_events > all_rows["memcpy/arm"].itl_events
    assert all_rows["binsearch/rv"].itl_events > all_rows["memcpy/rv"].itl_events


def test_fig12_verification_time_tracks_trace_size(all_rows):
    """Larger trace sets take longer to verify (the paper's Coq column grows
    with the ITL column): the largest case is slower than the smallest."""
    biggest = max(all_rows.values(), key=lambda r: r.itl_events)
    smallest = min(all_rows.values(), key=lambda r: r.itl_events)
    assert biggest.verify_time >= smallest.verify_time


@pytest.mark.parametrize("name", list(CASE_BUILDERS))
def test_fig12_benchmark(benchmark, name):
    """pytest-benchmark timing for each row's full pipeline."""
    benchmark.pedantic(run_case, args=(name,), rounds=1, iterations=1)
