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
from ..smt.sorts import BOOL, sort_from_text, sort_to_text
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
    def from_json(text: str | bytes) -> "Proof":
        """Load a certificate.  A certificate is untrusted input: anything
        malformed — bad JSON, another version, a missing or mistyped field,
        a term that does not parse to a formula — is a :class:`ValueError`.
        """
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("certificate nested too deeply") from None
        if _field(data, "version", int) != 1:
            raise ValueError("unsupported proof format version")
        proof = Proof()
        proof.blocks_verified = _ints(data, "blocks_verified")
        for item in _field(data, "steps", list):
            proof.add(_step_from_dict(item))
        for item in _field(data, "residual_obligations", list, []):
            proof.residual_obligations.append(_residual_from_dict(item))
        for addr, outcome in _field(data, "outcomes", dict, {}).items():
            if not isinstance(outcome, str):
                raise ValueError(f"outcome of block {addr!r} must be a string")
            proof.outcomes[int(addr)] = outcome
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


_REQUIRED = object()


def _is(value, kind: type) -> bool:
    # JSON ``true``/``false`` load as bools, which Python counts as ints.
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _field(data, key: str, kind: type, default=_REQUIRED):
    """``data[key]``, which must be a ``kind``."""
    if not isinstance(data, dict):
        raise ValueError(f"expected an object with field {key!r}")
    if key not in data:
        if default is _REQUIRED:
            raise ValueError(f"missing field {key!r}")
        return default
    value = data[key]
    if not _is(value, kind):
        raise ValueError(f"field {key!r} must be of type {kind.__name__}")
    return value


def _ints(data, key: str) -> list[int]:
    values = _field(data, key, list)
    if not all(_is(v, int) for v in values):
        raise ValueError(f"field {key!r} must hold integers")
    return values


def _formula_from_record(record) -> Term:
    """Parse a recorded side-condition term, which must be boolean."""
    # Imported here: only certificate loading needs the parser, so
    # verification start-up does not pay for it.
    from ..itl.parser import ParseError, TermParser, read_sexpr, tokenize

    sexpr = _field(record, "sexpr", str)
    sorts = _field(record, "vars", dict)
    if not all(isinstance(text, str) for text in sorts.values()):
        raise ValueError("variable sorts must be strings")
    try:
        env = {name: B.var(name, sort_from_text(text)) for name, text in sorts.items()}
        tokens = tokenize(sexpr)
        tree, pos = read_sexpr(tokens, 0)
        if pos != len(tokens):
            raise ValueError("trailing tokens in term")
        term = TermParser(env).parse(tree)
    except (ParseError, TypeError, IndexError, RecursionError) as exc:
        raise ValueError(f"malformed term {sexpr[:80]!r}: {exc}") from None
    if term.sort != BOOL:
        raise ValueError(f"term {sexpr[:80]!r} is not a formula")
    return term


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


def _residual_from_dict(item) -> ResidualObligation:
    return ResidualObligation(
        block=_field(item, "block", int),
        description=_field(item, "description", str),
        goal=_formula_from_record(_field(item, "goal", dict)),
        assumptions=tuple(
            _formula_from_record(a) for a in _field(item, "assumptions", list)
        ),
        reason=_field(item, "reason", str),
    )


def _step_from_dict(item) -> ProofStep:
    conditions = tuple(
        SideCondition(
            tuple(_formula_from_record(a) for a in _field(sc, "assumptions", list)),
            _formula_from_record(_field(sc, "goal", dict)),
            _field(sc, "description", str),
        )
        for sc in _field(item, "side_conditions", list)
    )
    return ProofStep(
        _field(item, "rule", str),
        _field(item, "detail", str),
        _field(item, "block", int),
        tuple(_ints(item, "path")),
        conditions,
    )
