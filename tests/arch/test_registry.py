"""The architecture registry as the single source of arch names.

Every surface that fans out over architectures — the co-sim arch table,
the isaspec loader, the CLI choices, the conformance harness — must
derive its set of architectures from :mod:`repro.arch.registry`, so that
adding a fourth ISA is pure addition: one package plus one ``register``
call, with no dispatch table anywhere else to update.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.arch import registry

SRC = Path(registry.__file__).resolve().parents[2]  # .../src/repro


class TestRegistryContents:
    def test_three_architectures(self):
        assert tuple(registry.names()) == ("arm", "ppc", "riscv")

    def test_model_names_resolve_via_find(self):
        for info in registry.infos():
            assert registry.find(info.name) is info
            assert registry.find(info.model_name) is info

    def test_unknown_arch_raises(self):
        with pytest.raises(KeyError):
            registry.get("mips")

    def test_nop_words_decode_as_such(self):
        for info in registry.infos():
            text = info.decode().disassemble(info.nop)
            assert "nop" in text or text.startswith(("ori", "addi", "hint")), (
                info.name, text)

    def test_specs_name_their_architecture(self):
        for info in registry.infos():
            assert info.spec().arch == info.name

    def test_for_case_infers_from_suffix(self):
        assert registry.for_case("memcpy_ppc").name == "ppc"
        assert registry.for_case("binsearch_riscv").name == "riscv"
        assert registry.for_case("rbit").name == "arm"


class TestDerivedSurfaces:
    def test_cosim_archs_mirror_the_registry(self):
        from repro.cosim.archs import COSIM_ARCHS

        assert sorted(COSIM_ARCHS) == sorted(registry.names())

    def test_isaspec_loader_mirrors_the_registry(self):
        from repro.analysis.isaspec import available_archs

        assert tuple(available_archs()) == tuple(registry.names())

    def test_interp_exists_for_every_arch(self):
        for info in registry.infos():
            assert callable(info.interp_class())

    def test_templates_cover_every_decode_arm(self):
        for info in registry.infos():
            fields = info.templates().COSIM_FIELDS
            assert set(fields) == set(info.decode_arms()), info.name


class TestNoStringDispatchLeakage:
    def test_no_arm_riscv_dispatch_tables_outside_the_registry(self):
        """Any line mentioning two architecture names as string literals is
        a dispatch table in disguise (``{"arm": ..., "riscv": ...}`` or a
        hard-coded parametrization) and must live in the registry alone."""
        pattern = re.compile(r'"(arm|riscv|ppc)"')
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "registry.py" and path.parent.name == "arch":
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                hits = set(pattern.findall(line))
                if len(hits) >= 2:
                    offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
        assert not offenders, "\n".join(offenders)
