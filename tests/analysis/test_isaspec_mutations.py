"""Mutation detection: every seeded ISA-spec defect trips its finding code.

Each test plants one defect in the (clean) RISC-V specification via
``dataclasses.replace`` and asserts :func:`validate_spec` reports the
exact stable code the catalog promises for that defect class.  This is
the calibration suite for the solver-backed pass: a check that cannot
catch its own seeded mutant is decoration, not analysis.

A planted defect may legitimately trip *secondary* codes too (widening a
claim breaks probes as well as overlap), so tests assert membership, not
exact equality.

A field-table defect reaches the encoders too, since they pack through
the table: those tests swap the architecture's packer for one built from
the mutated arms, as an edit to ``spec.py`` would.
"""

from dataclasses import replace

from repro import obs
from repro.analysis.isaspec import InvalidRegion, validate_spec
from repro.arch.encoding import Encoding
from repro.arch.ppc import encode as ppc_encode
from repro.arch.ppc.spec import _MAJORS as PPC_MAJORS
from repro.arch.ppc.spec import build_spec as build_ppc_spec
from repro.arch.riscv import encode as riscv_encode
from repro.arch.riscv.spec import _MAJORS, build_spec


def _mutate_arm(spec, name, **changes):
    arms = tuple(
        replace(a, **changes) if a.name == name else a for a in spec.arms
    )
    return replace(spec, arms=arms)


def _codes(spec):
    return {f.code for f in validate_spec(spec, witnesses=2)}


def _findings(spec):
    return validate_spec(spec, witnesses=2)


def _swap_fields(spec, arm, a, b, encode, monkeypatch):
    """``spec`` with ``arm``'s fields ``a`` and ``b`` trading places, and
    the encoders packing through the mutated table."""
    fields = next(x.fields for x in spec.arms if x.name == arm)
    swapped = tuple(
        ({a: b, b: a}.get(name, name), hi, lo) for name, hi, lo in fields
    )
    mutant = _mutate_arm(spec, arm, fields=swapped)
    monkeypatch.setattr(encode, "ENCODING", Encoding(mutant.arms))
    return mutant


class TestBaseline:
    def test_unmutated_spec_is_clean(self):
        """The detector is calibrated against a genuinely clean baseline."""
        with obs.scope() as run:
            assert _findings(build_spec()) == []
        counts = run.snapshot("isaspec.")
        assert counts["specs_validated"] > 0
        assert counts["solver_checks"] > 0


class TestStructuralMutations:
    def test_layout_gap_trips_isa001(self):
        spec = _mutate_arm(
            build_spec(), "lui",
            fields=(("imm20", 31, 12), ("rd", 10, 7), ("major", 6, 0)),
        )
        assert "ISA001" in _codes(spec)

    def test_malformed_clause_trips_isa010(self):
        spec = _mutate_arm(
            build_spec(), "lui", match=(("between", 6, 0, 3),)
        )
        assert "ISA010" in _codes(spec)


class TestSolverProvedMutations:
    def test_claim_collision_trips_isa003_with_counterexample(self):
        # Point lui's match at auipc's major: two arms, one word set.
        spec = _mutate_arm(
            build_spec(), "lui", match=(("eq", 6, 0, _MAJORS["auipc"]),)
        )
        overlaps = [f for f in _findings(spec) if f.code == "ISA003"]
        assert overlaps
        word = overlaps[0].detail["counterexample"]
        assert word & 0x7F == _MAJORS["auipc"]

    def test_dropped_carve_trips_isa004_with_witness_word(self):
        spec = replace(build_spec(), invalid=())
        holes = [f for f in _findings(spec) if f.code == "ISA004"]
        assert holes
        # Every reported hole lies in the space the carve used to define.
        assert all(
            f.detail["witness"] & 0x7F not in _MAJORS.values() for f in holes
        )

    def test_claim_escaping_region_trips_isa005(self):
        spec = _mutate_arm(
            build_spec(), "jalr",
            match=(("eq", 6, 0, _MAJORS["lui"]), ("eq", 14, 12, 0)),
        )
        assert "ISA005" in _codes(spec)

    def test_carve_over_claimed_words_trips_isa008(self):
        spec = build_spec()
        rogue = InvalidRegion(
            name="rogue", clauses=(("eq", 6, 0, _MAJORS["lui"]),)
        )
        assert "ISA008" in _codes(replace(spec, invalid=spec.invalid + (rogue,)))


class TestImplementationAgreementMutations:
    def test_swapped_operand_fields_trip_isa007(self, monkeypatch):
        spec = _swap_fields(
            build_spec(), "op", "rs1", "rs2", riscv_encode, monkeypatch
        )
        findings = [f for f in _findings(spec) if f.code == "ISA007"]
        assert findings
        assert any(f.message.endswith("rs1, rs2 differ") for f in findings)

    def test_overlapping_fields_trip_isa001(self):
        spec = _mutate_arm(
            build_spec(), "lui",
            fields=(("imm20", 31, 12), ("rd", 12, 7), ("major", 6, 0)),
        )
        assert "ISA001" in _codes(spec)

    def test_claiming_rejected_words_trips_isa007(self):
        # The decoder rejects branch funct3 2/3; claim exactly those.
        spec = _mutate_arm(
            build_spec(), "branch",
            match=(("eq", 6, 0, _MAJORS["branch"]), ("in", 14, 12, (2, 3))),
        )
        witnesses = [f for f in _findings(spec) if f.code == "ISA007"]
        assert witnesses
        assert any("decoder rejects" in f.message for f in witnesses)

    def test_probe_outside_claim_trips_isa007(self):
        spec = build_spec()
        probes = dict(spec.probes)
        probes["lui"] = probes["lui"] + (riscv_encode.auipc(1, 2),)
        findings = _findings(replace(spec, probes=probes))
        assert any(
            f.code == "ISA007" and "outside" in f.message for f in findings
        )


class TestPpcMutations:
    """The same calibration against the OpenPOWER spec: one seeded defect
    per finding code, proving the pass is architecture-generic rather than
    tuned to RISC-V's encoding shapes (primary/extended opcodes, XL-form
    branch hints, and SPR fields all exercise different clause patterns)."""

    def test_unmutated_ppc_spec_is_clean(self):
        assert _findings(build_ppc_spec()) == []

    def test_layout_gap_trips_isa001(self):
        # Bit 21 of the D-form is untiled.
        spec = _mutate_arm(
            build_ppc_spec(), "addi",
            fields=(("major", 31, 26), ("rt", 25, 22), ("ra", 20, 16),
                    ("si", 15, 0)),
        )
        assert "ISA001" in _codes(spec)

    def test_claim_collision_trips_isa003_with_counterexample(self):
        # Point addi's claim at addis's primary opcode.
        spec = _mutate_arm(
            build_ppc_spec(), "addi",
            match=(("eq", 31, 26, PPC_MAJORS["addis"]),),
        )
        overlaps = [f for f in _findings(spec) if f.code == "ISA003"]
        assert overlaps
        word = overlaps[0].detail["counterexample"]
        assert word >> 26 == PPC_MAJORS["addis"]

    def test_dropped_carve_trips_isa004_with_witness_word(self):
        spec = replace(build_ppc_spec(), invalid=())
        holes = [f for f in _findings(spec) if f.code == "ISA004"]
        assert holes
        # Every hole sits in an unallocated primary opcode; the modelled
        # majors stay covered by region residuals.
        assert all(
            f.detail["witness"] >> 26 not in PPC_MAJORS.values()
            for f in holes
        )

    def test_claim_escaping_region_trips_isa005(self):
        # bclr claims words under the I-form branch major while its region
        # still names the XL-form major 19.
        spec = _mutate_arm(
            build_ppc_spec(), "bclr",
            match=(("eq", 31, 26, PPC_MAJORS["b"]), ("eq", 10, 1, 16)),
        )
        assert "ISA005" in _codes(spec)

    def test_swapped_operand_fields_trip_isa007(self, monkeypatch):
        spec = _swap_fields(
            build_ppc_spec(), "subf", "ra", "rb", ppc_encode, monkeypatch
        )
        findings = [f for f in _findings(spec) if f.code == "ISA007"]
        assert findings
        assert any(f.message.endswith("rb, ra differ") for f in findings)

    def test_claiming_rejected_words_trips_isa007(self):
        # Drop bcctr's BO[2]=1 clause: the claim now includes the
        # CTR-decrementing forms the decoder (correctly) rejects.
        spec = _mutate_arm(
            build_ppc_spec(), "bcctr",
            match=(("eq", 31, 26, PPC_MAJORS["xl"]), ("eq", 15, 11, 0),
                   ("eq", 10, 1, 528)),
        )
        witnesses = [f for f in _findings(spec) if f.code == "ISA007"]
        assert witnesses
        assert any("decoder rejects" in f.message for f in witnesses)

    def test_probe_outside_claim_trips_isa007(self):
        spec = build_ppc_spec()
        probes = dict(spec.probes)
        probes["addi"] = probes["addi"] + (ppc_encode.addis(3, 4, 1),)
        findings = _findings(replace(spec, probes=probes))
        assert any(
            f.code == "ISA007" and "outside" in f.message for f in findings
        )

    def test_carve_over_claimed_words_trips_isa008(self):
        spec = build_ppc_spec()
        rogue = InvalidRegion(
            name="rogue", clauses=(("eq", 31, 26, PPC_MAJORS["addi"]),)
        )
        assert "ISA008" in _codes(
            replace(spec, invalid=spec.invalid + (rogue,))
        )

    def test_malformed_clause_trips_isa010(self):
        spec = _mutate_arm(
            build_ppc_spec(), "addi", match=(("approx", 31, 26, 14),)
        )
        assert "ISA010" in _codes(spec)

    def test_overlapping_fields_trip_isa001(self):
        spec = _mutate_arm(
            build_ppc_spec(), "addi",
            fields=(("major", 31, 26), ("rt", 25, 21), ("ra", 20, 16),
                    ("si", 16, 0)),
        )
        assert "ISA001" in _codes(spec)


class TestRegressions:
    def test_arm_rbit_region_closes_its_coverage_box(self):
        """ISA004 regression: authoring the ARM spec with ``rbit`` declaring
        no region left its ISA-manual box (data-processing 1-source,
        ``[30:29]=10 ∧ [28:21]=0b11010110``) with nonzero ``[20:10]``
        neither claimed nor carved — the coverage proof reported the hole
        with witness ``0x5ac06000``.  Re-seeding the defect must still
        trip ISA004 with a witness inside that box, and the shipped spec
        must keep the box closed."""
        from repro.arch.arm.spec import build_spec as build_arm_spec

        spec = build_arm_spec()
        assert next(a for a in spec.arms if a.name == "rbit").region
        mutant = _mutate_arm(spec, "rbit", region=())
        holes = [f for f in validate_spec(mutant, witnesses=2)
                 if f.code == "ISA004"]
        assert holes
        in_box = [
            f.detail["witness"] for f in holes
            if (f.detail["witness"] >> 29) & 0b11 == 0b10
            and (f.detail["witness"] >> 21) & 0xFF == 0b11010110
        ]
        assert in_box, [hex(f.detail["witness"]) for f in holes]


def test_every_isa_code_is_covered_by_a_mutation():
    """The suite's reach matches the catalog: every ISA code, no gaps."""
    import inspect
    import sys

    from repro.analysis.findings import CODE_CATALOG

    module = sys.modules[__name__]
    source = inspect.getsource(module)
    codes = [code for code in CODE_CATALOG if code.startswith("ISA")]
    # ISA001..ISA010 without the retired ISA002, ISA006, ISA009 and ISA011.
    assert len(codes) == 7
    for code in codes:
        assert code in source
