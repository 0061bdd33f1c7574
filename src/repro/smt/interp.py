"""Concrete big-step evaluation of SMT terms (the paper's ``e ↓ v``).

Evaluation takes an assignment from variables to Python values
(``int`` for bitvectors, ``bool`` for booleans) and computes the value of a
term.  This is used by the ITL operational semantics (Fig. 10), by the
adequacy harness, and to validate SAT models.
"""

from __future__ import annotations

from . import terms as T
from .builder import to_signed
from .terms import Term


class EvalError(Exception):
    """Raised when a term cannot be evaluated (e.g. unbound variable)."""


def evaluate(term: Term, env: dict[Term, object] | None = None):
    """Evaluate ``term`` under ``env``; returns ``int`` or ``bool``.

    ``env`` maps variable *terms* to values.  Iterative over the DAG so deep
    terms do not hit the recursion limit.  A bare variable or literal, or
    one operator over them, is answered without the walk: the executor
    names every computed value, so these are most of what replay
    evaluates.  Arguments are looked up last to first, the order the walk
    visits them in, so an unbound variable raises the same error.
    """
    env = env or {}
    op = term.op
    if op == T.VAR:
        try:
            return env[term]
        except KeyError:
            raise EvalError(f"unbound variable {term.name}") from None
    if op == T.BVVAL or op == T.BOOLVAL:
        return term.value
    vals = []
    for a in reversed(term.args):
        aop = a.op
        if aop == T.VAR:
            try:
                vals.append(env[a])
            except KeyError:
                raise EvalError(f"unbound variable {a.name}") from None
        elif aop == T.BVVAL or aop == T.BOOLVAL:
            vals.append(a.value)
        else:
            return _walk(term, env)
    vals.reverse()
    return _apply(term, vals)


def _walk(term: Term, env: dict[Term, object]):
    """:func:`evaluate` by an iterative walk over the term DAG."""
    cache: dict[Term, object] = {}
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        t, expanded = stack.pop()
        if t in cache:
            continue
        if not expanded:
            if t.op == T.VAR:
                try:
                    cache[t] = env[t]
                except KeyError:
                    raise EvalError(f"unbound variable {t.name}") from None
                continue
            if t.op in (T.BVVAL, T.BOOLVAL):
                cache[t] = t.value
                continue
            stack.append((t, True))
            for a in t.args:
                if a not in cache:
                    stack.append((a, False))
            continue
        cache[t] = _apply(t, [cache[a] for a in t.args])
    return cache[term]


def _apply(t: Term, vals: list):
    op = t.op
    if op == T.NOT:
        return not vals[0]
    if op == T.AND:
        return all(vals)
    if op == T.OR:
        return any(vals)
    if op == T.XOR_BOOL:
        return vals[0] != vals[1]
    if op == T.EQ:
        return vals[0] == vals[1]
    if op == T.ITE:
        return vals[1] if vals[0] else vals[2]

    w = t.sort.width if t.sort.is_bv() else None
    mask = (1 << w) - 1 if w is not None else None
    if op == T.BVADD:
        return (vals[0] + vals[1]) & mask
    if op == T.BVSUB:
        return (vals[0] - vals[1]) & mask
    if op == T.BVMUL:
        return (vals[0] * vals[1]) & mask
    if op == T.BVNEG:
        return (-vals[0]) & mask
    if op == T.BVAND:
        return vals[0] & vals[1]
    if op == T.BVOR:
        return vals[0] | vals[1]
    if op == T.BVXOR:
        return vals[0] ^ vals[1]
    if op == T.BVNOT:
        return (~vals[0]) & mask
    if op == T.BVSHL:
        sh = vals[1]
        return 0 if sh >= w else (vals[0] << sh) & mask
    if op == T.BVLSHR:
        sh = vals[1]
        return 0 if sh >= w else vals[0] >> sh
    if op == T.BVASHR:
        aw = t.args[0].width
        sh = min(vals[1], aw - 1)
        return (to_signed(vals[0], aw) >> sh) & mask
    if op == T.BVUDIV:
        return mask if vals[1] == 0 else vals[0] // vals[1]
    if op == T.BVUREM:
        return vals[0] if vals[1] == 0 else vals[0] % vals[1]
    if op == T.CONCAT:
        return (vals[0] << t.args[1].width) | vals[1]
    if op == T.EXTRACT:
        hi, lo = t.attrs
        return (vals[0] >> lo) & ((1 << (hi - lo + 1)) - 1)
    if op in (T.ZERO_EXTEND,):
        return vals[0]
    if op == T.SIGN_EXTEND:
        return to_signed(vals[0], t.args[0].width) & ((1 << t.sort.width) - 1)
    if op == T.BVULT:
        return vals[0] < vals[1]
    if op == T.BVULE:
        return vals[0] <= vals[1]
    if op == T.BVSLT:
        aw = t.args[0].width
        return to_signed(vals[0], aw) < to_signed(vals[1], aw)
    if op == T.BVSLE:
        aw = t.args[0].width
        return to_signed(vals[0], aw) <= to_signed(vals[1], aw)
    raise EvalError(f"cannot evaluate operator {op!r}")
