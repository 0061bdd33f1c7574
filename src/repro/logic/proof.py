"""Proof objects.

The automation does not just answer yes/no: every rule application is
recorded as a :class:`ProofStep`, including the side conditions it
discharged (each a boolean term together with the pure assumptions it was
proved under).  The resulting :class:`Proof` is machine-checkable: the
independent checker (:mod:`repro.logic.checker`) replays every side
condition against a fresh solver — one refutation query, ``assumptions ∧
¬goal`` must be UNSAT — playing the role Coq's kernel plays for the paper's
Iris proofs (see DESIGN.md for the TCB discussion).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

from ..resilience.outcome import ResidualObligation
from ..smt import builder as B
from ..smt.smtlib import term_to_sexpr
from ..smt.sorts import sort_from_text, sort_to_text
from ..smt.terms import Term


@dataclass(frozen=True)
class SideCondition:
    """A validity obligation: ``assumptions ⊨ goal``."""

    assumptions: tuple[Term, ...]
    goal: Term
    description: str


@dataclass(frozen=True)
class ProofStep:
    """One rule application of the Islaris logic."""

    rule: str  # e.g. "hoare-read-reg", "hoare-cases", "instr-pre-intro"
    detail: str  # human-readable event/target description
    block: int  # block address being verified
    path: tuple[int, ...]  # Cases branch indices leading to this step
    side_conditions: tuple[SideCondition, ...] = ()


@dataclass
class Proof:
    """A (possibly partial) verification certificate for a program.

    A fully verified run has every spec'd block in ``blocks_verified`` and
    no residual obligations.  Under resource governance a block may instead
    complete *degraded*: its rule skeleton is recorded, but side conditions
    the solver could not decide are parked in ``residual_obligations`` and
    the block's verdict lives in ``outcomes`` — the certificate then proves
    the program **modulo** those residuals, never more.
    """

    steps: list[ProofStep] = field(default_factory=list)
    blocks_verified: list[int] = field(default_factory=list)
    residual_obligations: list[ResidualObligation] = field(default_factory=list)
    outcomes: dict[int, str] = field(default_factory=dict)

    def add(self, step: ProofStep) -> None:
        self.steps.append(step)

    def residuals_for(self, block: int) -> list[ResidualObligation]:
        return [r for r in self.residual_obligations if r.block == block]

    @property
    def num_side_conditions(self) -> int:
        return sum(len(s.side_conditions) for s in self.steps)

    def rules_used(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.steps:
            out[s.rule] = out.get(s.rule, 0) + 1
        return out

    def summary(self) -> str:
        rules = ", ".join(f"{k}×{v}" for k, v in sorted(self.rules_used().items()))
        return (
            f"{len(self.steps)} steps over {len(self.blocks_verified)} blocks, "
            f"{self.num_side_conditions} side conditions [{rules}]"
        )

    # -- serialisation ------------------------------------------------------
    #
    # Proof objects serialise to JSON so the checker can run out-of-process
    # (the "ship the certificate, check it elsewhere" discipline of
    # foundational tools).  Terms are serialised in SMT-LIB concrete syntax
    # together with the sorts of their free variables.

    def to_json(self) -> str:
        # Side conditions share their assumptions heavily: render each
        # distinct (interned) term once per certificate.
        record = cache(_term_record)
        payload = {
            "version": 1,
            "blocks_verified": self.blocks_verified,
            "steps": [_step_to_dict(s, record) for s in self.steps],
        }
        # Governance extensions are optional keys so version-1 consumers
        # (and older certificates) keep round-tripping.
        if self.residual_obligations:
            payload["residual_obligations"] = [
                _residual_to_dict(r, record) for r in self.residual_obligations
            ]
        if self.outcomes:
            payload["outcomes"] = {str(a): o for a, o in self.outcomes.items()}
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "Proof":
        data = json.loads(text)
        if data.get("version") != 1:
            raise ValueError("unsupported proof format version")
        proof = Proof()
        proof.blocks_verified = list(data["blocks_verified"])
        for item in data["steps"]:
            proof.add(_step_from_dict(item))
        for item in data.get("residual_obligations", []):
            proof.residual_obligations.append(_residual_from_dict(item))
        proof.outcomes = {
            int(addr): outcome for addr, outcome in data.get("outcomes", {}).items()
        }
        return proof


def _term_record(term: Term) -> dict:
    # Sorted by name: frozenset iteration order follows object-identity
    # hashes, which depend on the process's allocation history — fresh CLI
    # runs happen to agree, but a resident daemon worker that served other
    # jobs first would emit the same certificate with differently-ordered
    # vars.  Certificates must be canonical bytes.
    return {
        "sexpr": term_to_sexpr(term),
        "vars": {
            v.name: sort_to_text(v.sort)
            for v in sorted(term.free_vars(), key=lambda v: v.name)
        },
    }


def _term_from_record(record: dict) -> Term:
    # Imported here: only certificate loading needs the parser, so
    # verification start-up does not pay for it.
    from ..itl.parser import TermParser, read_sexpr, tokenize

    env = {
        name: B.var(name, sort_from_text(sort_text))
        for name, sort_text in record["vars"].items()
    }
    tokens = tokenize(record["sexpr"])
    tree, pos = read_sexpr(tokens, 0)
    if pos != len(tokens):
        raise ValueError("trailing tokens in term")
    return TermParser(env).parse(tree)


def _step_to_dict(step: ProofStep, record: Callable[[Term], dict]) -> dict:
    return {
        "rule": step.rule,
        "detail": step.detail,
        "block": step.block,
        "path": list(step.path),
        "side_conditions": [
            {
                "assumptions": [record(a) for a in sc.assumptions],
                "goal": record(sc.goal),
                "description": sc.description,
            }
            for sc in step.side_conditions
        ],
    }


def _residual_to_dict(
    residual: ResidualObligation, record: Callable[[Term], dict]
) -> dict:
    return {
        "block": residual.block,
        "description": residual.description,
        "goal": record(residual.goal),
        "assumptions": [record(a) for a in residual.assumptions],
        "reason": residual.reason,
    }


def _residual_from_dict(item: dict) -> ResidualObligation:
    return ResidualObligation(
        block=item["block"],
        description=item["description"],
        goal=_term_from_record(item["goal"]),
        assumptions=tuple(_term_from_record(a) for a in item["assumptions"]),
        reason=item["reason"],
    )


def _step_from_dict(item: dict) -> ProofStep:
    conditions = tuple(
        SideCondition(
            tuple(_term_from_record(a) for a in sc["assumptions"]),
            _term_from_record(sc["goal"]),
            sc["description"],
        )
        for sc in item["side_conditions"]
    )
    return ProofStep(
        item["rule"], item["detail"], item["block"], tuple(item["path"]), conditions
    )
