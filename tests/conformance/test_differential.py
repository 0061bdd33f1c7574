"""Differential conformance: concrete Sail interpreter vs symbolic pipeline.

For each architecture, a seeded generator draws random valid encodings and
random machine states; every case runs the opcode through the concrete
interpreter (the authoritative semantics) and replays the Isla trace
through the ITL operational semantics under the same concrete valuation,
asserting register, memory, and flag agreement.

A failing case is shrunk to a minimal state and appended to the checked-in
corpus (``corpus/<arch>.jsonl``), which is replayed first on every run.
"""

from __future__ import annotations

import random

import pytest

from repro.cosim import CoSimDriver
from repro.cosim.driver import cached_trace, record_reproducer, shrink_case
from repro.cosim.state import ProgramCase, random_case
from repro.sail.iface import ModelError

from ._harness import ARCHS, CORPUS_DIR, check, load_corpus, random_valid_word

# ≥500 (opcode, state) cases per architecture (the ISSUE's floor).
TARGET_CASES = 520
STATES_PER_OPCODE = 4
SEED = 20260807


class TestCorpusReplay:
    """The regression corpus replays clean before any new fuzzing, each
    entry through the oracle that recorded it."""

    @pytest.mark.parametrize("arch_name", sorted(ARCHS))
    def test_differential_entries(self, arch_name):
        arch = ARCHS[arch_name]
        for entry in load_corpus(arch_name):
            if entry["kind"] not in ("differential", "cosim"):
                continue
            case = ProgramCase.from_json(entry["case"])
            if entry["kind"] == "cosim":
                divergence, _ = CoSimDriver(arch).run_case(case)
            else:
                assert cached_trace(arch, case.words[0]) is not None, (
                    f"corpus opcode {entry['opcode']} lost pipeline support"
                )
                divergence = check(arch, case)
            assert divergence is None, (
                f"corpus regression {entry['opcode']}: {divergence.details}"
            )


def _shrink_and_record(arch, divergence):
    """Shrink a divergence with the cosim shrinker and append it to the
    corpus; returns the divergence of the shrunk case."""

    def still_fails(candidate: ProgramCase) -> bool:
        try:
            redo = check(arch, candidate)
        except ModelError:
            return False
        return redo is not None and redo.signature == divergence.signature

    shrunk = check(arch, shrink_case(arch, divergence.case, still_fails))
    record_reproducer(shrunk, CORPUS_DIR)
    return shrunk


@pytest.mark.parametrize("arch_name", sorted(ARCHS))
def test_differential_conformance(arch_name):
    arch = ARCHS[arch_name]
    rng = random.Random(SEED)
    checked = 0
    skipped_states = 0
    failures = []
    while checked < TARGET_CASES:
        opcode = random_valid_word(arch, rng)
        if cached_trace(arch, opcode) is None:  # outside the pipeline's scope
            continue
        for _ in range(STATES_PER_OPCODE):
            case = random_case(arch, rng, [opcode])
            try:
                divergence = check(arch, case)
            except ModelError:
                # State outside the comparable domain (e.g. an access
                # straddling the mapped window); not a conformance verdict.
                skipped_states += 1
                continue
            checked += 1
            if divergence is not None:
                shrunk = _shrink_and_record(arch, divergence)
                failures.append(
                    f"{arch.decode.try_disassemble(opcode)} ({hex(opcode)}): "
                    f"{divergence.details[0]} [shrunk case: {shrunk.case.to_json()}]"
                )
            if checked >= TARGET_CASES:
                break
    assert not failures, (
        f"{len(failures)} conformance divergence(s); shrunk cases appended "
        f"to the corpus:\n" + "\n".join(failures[:10])
    )
    assert checked >= 500
    # The skip path must stay the exception, not the rule.
    assert skipped_states < checked
