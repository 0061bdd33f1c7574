"""Property (hypothesis): the state comparator's equality fast path
changes no answer.

``diff_states`` returns at once when both register maps, both memories
and both label streams are equal, and otherwise walks the sorted union.
For generated pairs — equal, one register off, one byte off, a key on
one side only, labels differing — it must return exactly what the
always-sorted walk (``tests/_reference.py``) returns, and nothing exactly
when the pair agrees.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itl.events import LabelEnd, LabelRead, LabelWrite, Reg
from repro.itl.machine import MachineState, diff_states

from .._reference import sorted_diff

REGS = [Reg(f"R{i}") for i in range(6)] + [Reg("PSTATE", "N"), Reg("PSTATE", "Z")]
ADDRS = st.integers(0x5000, 0x5010)
LABEL = st.one_of(
    st.builds(LabelRead, ADDRS, st.integers(0, 255), st.just(1)),
    st.builds(LabelWrite, ADDRS, st.integers(0, 255), st.just(1)),
    st.builds(LabelEnd, ADDRS),
)
LABELS = st.one_of(st.none(), st.lists(LABEL, max_size=3))


@st.composite
def state_pairs(draw):
    regs = draw(st.dictionaries(st.sampled_from(REGS), st.integers(0, 2**64 - 1)))
    mem = draw(st.dictionaries(ADDRS, st.integers(0, 255)))
    a = MachineState(regs=dict(regs), mem=dict(mem))
    b = MachineState(regs=dict(regs), mem=dict(mem))
    labels_a = draw(LABELS)
    labels_b = None if labels_a is None else list(labels_a)
    kind = draw(st.sampled_from(
        ["equal", "reg", "byte", "reg-one-side", "byte-one-side", "labels"]
    ))
    side = draw(st.sampled_from([a, b]))
    if kind == "reg" and regs:
        reg = draw(st.sampled_from(sorted(regs, key=str)))
        side.regs[reg] ^= 1 << draw(st.integers(0, 63))
    elif kind == "byte" and mem:
        addr = draw(st.sampled_from(sorted(mem)))
        side.mem[addr] ^= 1 << draw(st.integers(0, 7))
    elif kind == "reg-one-side":
        side.regs[draw(st.sampled_from(REGS))] = draw(st.integers(0, 2**64 - 1))
    elif kind == "byte-one-side":
        side.mem[draw(ADDRS)] = draw(st.integers(0, 255))
    elif kind == "labels":
        labels_b = draw(LABELS)
    return a, b, labels_a, labels_b


def _agrees(a, b, labels_a, labels_b) -> bool:
    regs = set(a.regs) | set(b.regs)
    addrs = set(a.mem) | set(b.mem)
    return (
        all(a.read_reg(r) == b.read_reg(r) for r in regs)
        and all(a.mem.get(x) == b.mem.get(x) for x in addrs)
        and (labels_a is None or labels_b is None or labels_a == labels_b)
    )


@settings(max_examples=400, deadline=None)
@given(state_pairs())
def test_diff_states_matches_the_sorted_walk(pair):
    a, b, labels_a, labels_b = pair
    got = diff_states(a, b, labels_a, labels_b)
    assert got == sorted_diff(a, b, labels_a, labels_b)
    assert (got == []) == _agrees(a, b, labels_a, labels_b)


def test_one_sided_none_register_is_no_difference():
    """An explicit ``None`` reads like an unmapped register: the maps
    differ, yet the states agree, so the sorted walk decides."""
    a = MachineState(regs={Reg("R0"): None})
    b = MachineState()
    assert diff_states(a, b) == sorted_diff(a, b) == []
