"""Tests for the annotated-listing renderer and the CLI tools."""

import pytest

from repro.arch.arm import ArmModel, encode as A
from repro.frontend import ProgramImage, annotated_listing, generate_instruction_map
from repro.isla import Assumptions


@pytest.fixture(scope="module")
def simple():
    image = ProgramImage().place(0x1000, [A.add_imm(0, 0, 5), A.ret()], label="f")
    fe = generate_instruction_map(
        ArmModel(), image, Assumptions().pin("PSTATE.EL", 2, 2).pin("PSTATE.SP", 1, 1)
    )
    return image, fe


class TestListing:
    def test_contains_labels_and_mnemonics(self, simple):
        image, fe = simple
        text = annotated_listing(image, fe)
        assert "f:" in text
        assert "add x0, x0, #5" in text
        assert "ret" in text
        assert "events" in text

    def test_show_traces_embeds_sexprs(self, simple):
        image, fe = simple
        text = annotated_listing(image, fe, show_traces=True)
        assert "(trace" in text
        assert "(write-reg |R0|" in text

    def test_symbolic_opcodes_marked(self):
        from repro.casestudies import pkvm

        case = pkvm.build()
        text = annotated_listing(case.image, case.frontend)
        assert "symbolic" in text
        assert "el2_sync_handler:" in text


class TestTraceCli:
    def test_prints_fig3_trace(self, capsys):
        from repro.tools.trace import main

        rc = main(["arm", "0x910103ff", "--pin", "PSTATE.EL=2", "--pin", "PSTATE.SP=1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(read-reg |SP_EL2| nil" in out

    def test_error_for_unconstrained_eret(self, capsys):
        from repro.tools.trace import main

        rc = main(["arm", hex(A.eret()), "--pin", "PSTATE.EL=2", "--pin", "PSTATE.SP=1"])
        assert rc == 1

    def test_riscv(self, capsys):
        from repro.arch.riscv import encode as RV
        from repro.tools.trace import main

        rc = main(["riscv", hex(RV.addi("a0", "a1", 1))])
        assert rc == 0
        assert "(write-reg |x10|" in capsys.readouterr().out


class TestDisasCli:
    def test_opcode_mode(self, capsys):
        from repro.tools.disas import main

        rc = main(["arm", "0x910103ff", hex(A.nop())])
        assert rc == 0
        out = capsys.readouterr().out
        assert "add sp, sp, #64" in out and "nop" in out

    def test_case_mode(self, capsys):
        from repro.tools.disas import main

        rc = main(["--case", "memcpy_arm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "memcpy:" in out and "cbz" in out

    def test_unknown_case(self, capsys):
        from repro.tools.disas import main

        assert main(["--case", "nonexistent"]) == 1


class TestVerifyCli:
    def test_single_case(self, capsys):
        from repro.tools.verify import main

        rc = main(["rbit"])
        assert rc == 0
        assert "rbit: OK" in capsys.readouterr().out

    def test_with_length(self, capsys):
        from repro.tools.verify import main

        rc = main(["memcpy_arm", "--n", "2"])
        assert rc == 0

    def test_repeated_runs_share_one_cache_handle(self, tmp_path, capsys, monkeypatch):
        """Two in-process runs on one cache directory: the verdict log is
        parsed once, and each ``-v`` cache line reports its own run."""
        import re

        from repro.cache import DiskCache
        from repro.smt.solver import clear_check_cache
        from repro.tools.verify import main

        loads = []
        real = DiskCache._load_smt
        monkeypatch.setattr(
            DiskCache, "_load_smt", lambda self: (loads.append(self.root), real(self))
        )
        argv = ["memcpy_arm", "--n", "2", "--cache-dir", str(tmp_path / "c"), "-v"]
        pattern = re.compile(
            r"cache: traces (\d+) hits / (\d+) misses, "
            r"smt (\d+) hits / (\d+) misses \((\d+) preloaded\)"
        )
        lines = []
        for _ in range(2):
            clear_check_cache()  # let the disk store, not the LRU, answer
            assert main(argv) == 0
            lines.append([int(g) for g in pattern.search(capsys.readouterr().out).groups()])
        (cold_hits, cold_misses, _, cold_smt_misses, cold_pre), warm = lines
        assert len(loads) == 1
        assert cold_hits == 0 and cold_misses > 0 and cold_pre == 0
        # The warm line counts only the warm run: every trace a hit.
        assert warm[:2] == [cold_misses, 0]
        assert warm[3] == 0 and warm[2] > 0
        assert warm[4] >= cold_smt_misses  # verdicts the handle already held


class TestAdequacyCli:
    def test_memcpy(self, capsys):
        from repro.tools.adequacy import main

        assert main(["memcpy", "--n", "2", "--iterations", "3"]) == 0
        assert "no ⊥" in capsys.readouterr().out

    def test_uart(self, capsys):
        from repro.tools.adequacy import main

        assert main(["uart", "--iterations", "2"]) == 0
        assert "allowed" in capsys.readouterr().out
