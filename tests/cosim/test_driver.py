"""The lockstep driver: clean runs, mutation testing, shrinking, recording.

The mutation tests are the teeth of the whole subsystem: for every named
defect in the interpreter's :data:`DEFECTS` registry, a seeded batch must
*find* a divergence, and the shrunk reproducer must still exhibit the same
divergence signature while being small.  A co-sim rig that cannot catch
its own planted bugs would be a rubber stamp.
"""

from __future__ import annotations

import pytest

from repro.cosim import COSIM_ARCHS, CoSimDriver, DEFECTS
from repro.cosim.driver import cached_trace, record_reproducer, run_service_batch
from repro.cosim.generate import ProgramGenerator
from repro.cosim.state import ProgramCase
from tests.conformance._harness import load_corpus

#: Seeded batch size that demonstrably catches every registered defect
#: (the slowest to surface under seed 11 needs < 300 cases).
MUTATION_SEED = 11
MUTATION_COUNT = 320


class TestTraceCache:
    def test_same_object_is_returned_twice(self):
        arch = COSIM_ARCHS["riscv"]
        word = arch.asm.assemble_line("add t0, t1, t2")
        first = cached_trace(arch, word)
        second = cached_trace(arch, word)
        assert first is second
        assert first is not None

    def test_undecodable_word_caches_none(self):
        arch = COSIM_ARCHS["riscv"]
        assert cached_trace(arch, 0x0000_0000) is None


@pytest.mark.parametrize("arch_name", sorted(COSIM_ARCHS))
class TestCleanBatches:
    def test_clean_batch_has_zero_divergences(self, arch_name):
        driver = CoSimDriver(COSIM_ARCHS[arch_name])
        report = driver.run_batch(seed=5, count=25)
        assert report.divergences == []
        assert report.cases == 25
        assert report.instructions > report.cases  # multi-step programs ran
        assert report.coverage.fraction_hit() > 0.5

    def test_batches_are_deterministic(self, arch_name):
        driver = CoSimDriver(COSIM_ARCHS[arch_name])
        a = driver.run_batch(seed=9, count=8)
        b = driver.run_batch(seed=9, count=8)
        assert a.instructions == b.instructions
        assert a.skips == b.skips
        assert a.coverage.counts == b.coverage.counts


@pytest.mark.parametrize("defect", sorted(DEFECTS))
class TestMutation:
    def test_defect_is_caught_and_shrunk(self, defect, tmp_path):
        arch = COSIM_ARCHS[defect.split("-")[0]]
        driver = CoSimDriver(arch, defect=defect)
        report = driver.run_batch(
            seed=MUTATION_SEED, count=MUTATION_COUNT, max_divergences=1
        )
        assert report.divergences, (
            f"defect {defect} escaped {report.cases} cases "
            f"({report.instructions} instructions)"
        )
        divergence = report.divergences[0]
        # run_batch re-runs the shrunk case, so the recorded divergence's
        # case IS the minimized reproducer; it must be genuinely small...
        assert len(divergence.case.words) <= 6
        loose_regs = [r for r in divergence.case.regs if r not in arch.pins]
        assert len(loose_regs) <= 8
        # ...and still reproduce the same divergence signature.
        redo, _ = driver.run_case(divergence.case)
        assert redo is not None
        assert redo.signature == divergence.signature

        # Round trip through the corpus: record, load, replay.  The
        # planted defect diverges the same way again; the clean
        # interpreter agrees with the ITL on the reproducer.
        record_reproducer(divergence, tmp_path)
        [entry] = load_corpus(arch.name, tmp_path)
        assert entry["kind"] == "cosim"
        assert entry["arch"] == arch.name
        case = ProgramCase.from_json(entry["case"])
        assert case == divergence.case
        replay, _ = driver.run_case(case)
        assert replay is not None
        assert replay.signature == divergence.signature
        clean, _ = CoSimDriver(arch).run_case(case)
        assert clean is None

    def test_clean_driver_passes_the_same_batch(self, defect):
        """The divergence is the defect's fault, not the seed's: the clean
        interpreter sails through the exact cases that caught the bug."""
        arch = COSIM_ARCHS[defect.split("-")[0]]
        buggy = CoSimDriver(arch, defect=defect)
        caught = buggy.run_batch(seed=MUTATION_SEED, count=MUTATION_COUNT,
                                 shrink=False, max_divergences=1)
        assert caught.divergences
        clean = CoSimDriver(arch)
        report = clean.run_batch(seed=MUTATION_SEED, count=caught.cases,
                                 shrink=False)
        assert report.divergences == []


class TestServiceBatch:
    def test_payload_shape_and_outcome(self):
        payload = run_service_batch("riscv", seed=2, count=6)
        assert payload["outcome"] == "pass"
        assert payload["arch"] == "riscv"
        assert payload["cases"] == 6
        assert payload["divergences"] == []
        assert payload["coverage"]["counts"]
        assert payload["elapsed_s"] >= 0

    def test_defective_batch_reports_divergence_outcome(self):
        payload = run_service_batch(
            "riscv", seed=MUTATION_SEED, count=MUTATION_COUNT,
            defect="riscv-sra-logical",
        )
        assert payload["outcome"] == "divergence"
        assert payload["divergences"]

    def test_unknown_arch_raises(self):
        with pytest.raises(KeyError):
            run_service_batch("mips", count=1)


class TestShrinkPreservesSignature:
    def test_shrink_rejects_signature_changing_reductions(self):
        """Directed check of the signature discipline: plant a defect,
        catch it, then confirm the shrunk case's first diff subject equals
        the original's (value text may differ, subject may not)."""
        defect = "riscv-sltu-signed"
        arch = COSIM_ARCHS[defect.split("-")[0]]
        driver = CoSimDriver(arch, defect=defect)
        generator = ProgramGenerator(arch, MUTATION_SEED)
        found = None
        for _ in range(MUTATION_COUNT):
            program = generator.program()
            divergence, _ = driver.run_case(program.case)
            if divergence is not None:
                found = (program.case, divergence)
                break
        assert found is not None
        case, original = found
        shrunk = driver.shrink(case, original)
        redo, _ = driver.run_case(shrunk)
        assert redo is not None
        assert redo.signature == original.signature
        assert len(shrunk.words) <= len(case.words)
        assert len(shrunk.regs) <= len(case.regs)
