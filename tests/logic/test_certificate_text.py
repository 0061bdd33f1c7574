"""``Proof.to_json`` renders text; it must be byte for byte what
``json.dumps`` makes of the dict payload.

The oracle is the dict renderer in ``tests/_reference.py``.  The cases:
every ``verify --all`` certificate, a degraded certificate that carries
residual obligations and an outcome map, and hypothesis-built steps whose
strings hold quotes, backslashes, control characters and non-ASCII text,
with empty paths, empty side-condition lists and large block addresses.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro import casestudies
from repro.logic.proof import Proof, ProofStep, SideCondition
from repro.resilience.outcome import DEGRADED, VERIFIED, ResidualObligation
from repro.smt import builder as B
from repro.smt.terms import TRUE
from tests._reference import dict_certificate_json

X = B.bv_var("x", 64)
Y = B.bv_var("y", 8)
FLAG = B.bool_var("flag")

#: Formulas with no, one and several free variables of different sorts.
TERMS = (
    TRUE,
    FLAG,
    B.bvult(X, B.bv(10, 64)),
    B.eq(B.bvadd(Y, B.bv(1, 8)), B.bv(0, 8)),
    B.and_(FLAG, B.eq(B.extract(7, 0, X), Y)),
)

#: Characters JSON escapes, or must escape under ``ensure_ascii``.
AWKWARD = '"\\/\b\f\n\r\t\x00\x1f\x7fé 中\U0001f600'

texts = st.text(
    alphabet=st.one_of(st.sampled_from(AWKWARD), st.characters()), max_size=12
)
terms = st.sampled_from(TERMS)
addresses = st.one_of(
    st.integers(0, 2**64 - 1), st.sampled_from([0, 2**63, 2**64 - 1, 2**80])
)
conditions = st.builds(
    SideCondition,
    st.lists(terms, max_size=4).map(tuple),
    terms,
    texts,
)
steps = st.builds(
    ProofStep,
    texts,
    texts,
    addresses,
    st.lists(st.integers(0, 40), max_size=5).map(tuple),
    st.lists(conditions, max_size=3).map(tuple),
)
residuals = st.builds(
    ResidualObligation,
    addresses,
    texts,
    terms,
    st.lists(terms, max_size=3).map(tuple),
    texts,
)


def assert_same_bytes(proof: Proof) -> None:
    assert proof.to_json() == dict_certificate_json(proof)


@pytest.mark.parametrize("name", casestudies.__all__)
def test_every_case_study_certificate(name):
    _case, report = casestudies.verify_case(name, {})
    proof = report.proof
    assert proof.steps and not proof.residual_obligations
    assert_same_bytes(proof)


def test_degraded_certificate_with_residuals_and_outcomes():
    _case, report = casestudies.verify_case(
        "binsearch_riscv", {}, fault_seed=4, fault_rate=0.15
    )
    proof = report.proof
    assert report.outcome == DEGRADED
    assert len(proof.residual_obligations) > 1 and DEGRADED in proof.outcomes.values()
    assert_same_bytes(proof)


def test_empty_proof():
    assert_same_bytes(Proof())


@settings(max_examples=200, deadline=None)
@given(
    st.lists(steps, max_size=6),
    st.lists(st.integers(0, 2**64 - 1), max_size=4),
    st.lists(residuals, max_size=3),
    st.dictionaries(addresses, st.sampled_from([VERIFIED, DEGRADED, "unknown"]),
                    max_size=3),
)
@example(
    [ProofStep('say "hi"\\', "\x00\né\U0001f600", 2**64 - 1, (), ())],
    [2**64 - 1],
    [],
    {},
)
def test_built_proofs(step_list, verified, residual_list, outcomes):
    proof = Proof(list(step_list), verified, list(residual_list), outcomes)
    assert_same_bytes(proof)
