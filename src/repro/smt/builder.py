"""Smart constructors for SMT terms.

Every constructor folds constants and applies cheap, local, always-beneficial
rewrites (identity/annihilator elimination, double negation, extract of
concat, ...).  This mirrors the simplification Isla performs while building
traces: the goal is that fully-concrete computation never reaches the SAT
core, and symbolic terms stay small.

All functions accept and return interned :class:`~repro.smt.terms.Term`.
"""

from __future__ import annotations

from . import terms as T
from .sorts import BOOL, Sort, bv_sort
from .terms import FALSE, TRUE, Term, check_bool, check_bv, check_same_width


def _mask(width: int) -> int:
    return (1 << width) - 1


def to_signed(value: int, width: int) -> int:
    """Interpret the low ``width`` bits of ``value`` as two's complement."""
    value &= _mask(width)
    if value >= 1 << (width - 1):
        value -= 1 << width
    return value


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------

def var(name: str, sort: Sort) -> Term:
    """A free variable of the given sort."""
    return T.mk_var(name, sort)


def bv_var(name: str, width: int) -> Term:
    return T.mk_var(name, bv_sort(width))


def bool_var(name: str) -> Term:
    return T.mk_var(name, BOOL)


def bv(value: int, width: int) -> Term:
    """A bitvector literal (value is truncated to ``width`` bits)."""
    return T.mk_bv_value(value, width)


def true() -> Term:
    return TRUE


def false() -> Term:
    return FALSE


def bool_val(value: bool) -> Term:
    return TRUE if value else FALSE


# ---------------------------------------------------------------------------
# Boolean connectives
# ---------------------------------------------------------------------------

def not_(a: Term) -> Term:
    check_bool(a, "not")
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    if a.op == T.NOT:
        return a.args[0]
    return T.mk_term(T.NOT, (a,), (), BOOL)


def _nary_bool(op: str, unit: Term, zero: Term, args: tuple[Term, ...]) -> Term:
    flat: list[Term] = []
    for a in args:
        check_bool(a, op)
        if a is unit:
            continue
        if a is zero:
            return zero
        if a.op == op:
            flat.extend(a.args)
        else:
            flat.append(a)
    # Deduplicate while preserving order (and/or are idempotent).
    seen: set[Term] = set()
    uniq: list[Term] = []
    for a in flat:
        if a not in seen:
            seen.add(a)
            uniq.append(a)
    # x /\ ~x  (resp. x \/ ~x)
    for a in uniq:
        if a.op == T.NOT and a.args[0] in seen:
            return zero
    if not uniq:
        return unit
    if len(uniq) == 1:
        return uniq[0]
    return T.mk_term(op, tuple(uniq), (), BOOL)


def and_(*args: Term) -> Term:
    return _nary_bool(T.AND, TRUE, FALSE, args)


def or_(*args: Term) -> Term:
    return _nary_bool(T.OR, FALSE, TRUE, args)


def xor(a: Term, b: Term) -> Term:
    check_bool(a, "xor")
    check_bool(b, "xor")
    if a.is_value() and b.is_value():
        return bool_val(a.value != b.value)
    if a is FALSE:
        return b
    if b is FALSE:
        return a
    if a is TRUE:
        return not_(b)
    if b is TRUE:
        return not_(a)
    if a is b:
        return FALSE
    return T.mk_term(T.XOR_BOOL, (a, b), (), BOOL)


def implies(a: Term, b: Term) -> Term:
    return or_(not_(a), b)


# ---------------------------------------------------------------------------
# The operation memo
# ---------------------------------------------------------------------------

#: Results of the constructors that go through the linear form (``eq``,
#: ``bvadd``, ``bvsub``, ``bvneg``), keyed by the constructor's name and its
#: interned arguments; each body is the same name with a leading underscore
#: (DESIGN.md, "The constructor memo").  A body is a pure function of
#: interned terms and terms are interned forever, so a hit is the object a
#: recomputation would return and every node the recomputation would build
#: already exists: uids, ``stable_key`` order and certificates do not move.
#: The memo holds terms, never verdicts; past ``_OP_MEMO_LIMIT`` entries it
#: is emptied wholesale, and ``solver.clear_check_cache`` empties it too.
_OP_MEMO: dict[tuple, Term] = {}
_OP_MEMO_LIMIT = 1 << 15


def _remember(key: tuple, out: Term) -> Term:
    if len(_OP_MEMO) > _OP_MEMO_LIMIT:
        _OP_MEMO.clear()
    _OP_MEMO[key] = out
    return out


# ---------------------------------------------------------------------------
# Equality and ite
# ---------------------------------------------------------------------------

def eq(a: Term, b: Term) -> Term:
    key = ("eq", a, b)
    out = _OP_MEMO.get(key)
    return out if out is not None else _remember(key, _eq(a, b))


def _eq(a: Term, b: Term) -> Term:
    if a.sort != b.sort:
        raise TypeError(f"=: sort mismatch {a.sort!r} vs {b.sort!r}")
    if a is b:
        return TRUE
    if a.is_value() and b.is_value():
        return bool_val(a.value == b.value)
    if a.sort.is_bool():
        if a is TRUE:
            return b
        if b is TRUE:
            return a
        if a is FALSE:
            return not_(b)
        if b is FALSE:
            return not_(a)
    elif a.sort.is_bv():
        # Normalise via the linear form: a = b  iff  a - b = 0.  When the
        # difference collapses to a constant the equality is decided; when it
        # is ``atom + c`` the equality becomes ``atom = -c`` (canonical form).
        w = a.sort.width
        coeffs: dict[Term, int] = {}
        const = _decompose_linear(a, 1, 0, coeffs)
        const = _decompose_linear(b, -1, const, coeffs)
        coeffs = {t: c for t, c in coeffs.items() if c & _mask(w)}
        if not coeffs:
            return bool_val(const & _mask(w) == 0)
        if len(coeffs) == 1:
            (atom, c), = coeffs.items()
            if c & _mask(w) == 1:
                a, b = atom, bv(-const, w)
            elif (-c) & _mask(w) == 1:
                a, b = atom, bv(const, w)
            else:
                a = _recompose_linear(w, 0, coeffs)
                b = bv(-const, w)
        elif (
            len(coeffs) == 2
            and const & _mask(w) == 0
            and sorted(c & _mask(w) for c in coeffs.values()) == [1, _mask(w)]
        ):
            # x - y = 0  stays  x = y  (visible to congruence reasoning).
            (t1, c1), (t2, c2) = sorted(coeffs.items(), key=lambda p: T.stable_key(p[0]))
            a, b = (t1, t2) if c1 & _mask(w) == 1 else (t2, t1)
        else:
            a = _recompose_linear(w, const, coeffs)
            b = bv(0, w)
        if a is b or (a.is_value() and b.is_value() and a.value == b.value):
            return TRUE
        if a.is_value() and b.is_value():
            return FALSE
    # Orient: values to the right, for rewriter pattern simplicity.
    if a.is_value() and not b.is_value():
        a, b = b, a
    return T.mk_term(T.EQ, (a, b), (), BOOL)


def distinct(a: Term, b: Term) -> Term:
    return not_(eq(a, b))


def ite(cond: Term, then: Term, els: Term) -> Term:
    check_bool(cond, "ite")
    if then.sort != els.sort:
        raise TypeError(f"ite: sort mismatch {then.sort!r} vs {els.sort!r}")
    if cond is TRUE:
        return then
    if cond is FALSE:
        return els
    if then is els:
        return then
    if then.sort.is_bool():
        # Encode boolean ite with connectives: helps the CNF stage.
        return or_(and_(cond, then), and_(not_(cond), els))
    if cond.op == T.NOT:
        return ite(cond.args[0], els, then)
    return T.mk_term(T.ITE, (cond, then, els), (), then.sort)


# ---------------------------------------------------------------------------
# Bitvector arithmetic
# ---------------------------------------------------------------------------

# Additions and subtractions are kept in a *canonical linear form*: a term is
# decomposed into an integer constant plus a coefficient map over "atoms"
# (non-add/sub/neg terms), and recomposed deterministically.  This makes
# identities like ``(a + b) - b = a`` and constant-offset chains (PC + 4 + 4)
# fold at construction time, so they never burden the SAT core — the same
# role Isla's trace simplification plays in the paper.


def _decompose_linear(t: Term, sign: int, const: int, coeffs: dict[Term, int]) -> int:
    if t.op == T.BVVAL:
        return const + sign * t.value
    if t.op == T.BVADD:
        const = _decompose_linear(t.args[0], sign, const, coeffs)
        return _decompose_linear(t.args[1], sign, const, coeffs)
    if t.op == T.BVSUB:
        const = _decompose_linear(t.args[0], sign, const, coeffs)
        return _decompose_linear(t.args[1], -sign, const, coeffs)
    if t.op == T.BVNEG:
        return _decompose_linear(t.args[0], -sign, const, coeffs)
    if t.op == T.BVMUL and t.args[1].is_value():
        inner: dict[Term, int] = {}
        c = _decompose_linear(t.args[0], sign * t.args[1].value, 0, inner)
        for k, v in inner.items():
            coeffs[k] = coeffs.get(k, 0) + v
        return const + c
    coeffs[t] = coeffs.get(t, 0) + sign
    return const


def _recompose_linear(w: int, const: int, coeffs: dict[Term, int]) -> Term:
    mask = _mask(w)
    const &= mask
    items = sorted(
        ((t, c & mask) for t, c in coeffs.items() if c & mask), key=lambda p: T.stable_key(p[0])
    )
    pos: list[Term] = []
    neg: list[Term] = []
    for t, c in items:
        if c == 1:
            pos.append(t)
        elif c == mask:  # coefficient -1
            neg.append(t)
        elif c <= mask // 2:
            pos.append(T.mk_term(T.BVMUL, (t, bv(c, w)), (), bv_sort(w)))
        else:
            neg.append(T.mk_term(T.BVMUL, (t, bv(-c, w)), (), bv_sort(w)))
    acc: Term | None = None
    for t in pos:
        acc = t if acc is None else T.mk_term(T.BVADD, (acc, t), (), bv_sort(w))
    for t in neg:
        if acc is None:
            acc = T.mk_term(T.BVNEG, (t,), (), bv_sort(w))
        else:
            acc = T.mk_term(T.BVSUB, (acc, t), (), bv_sort(w))
    if acc is None:
        return bv(const, w)
    if const == 0:
        return acc
    return T.mk_term(T.BVADD, (acc, bv(const, w)), (), bv_sort(w))


def _linear(w: int, *signed_terms: tuple[int, Term]) -> Term:
    coeffs: dict[Term, int] = {}
    const = 0
    for sign, t in signed_terms:
        const = _decompose_linear(t, sign, const, coeffs)
    return _recompose_linear(w, const, coeffs)


def bvadd(a: Term, b: Term) -> Term:
    key = ("bvadd", a, b)
    out = _OP_MEMO.get(key)
    return out if out is not None else _remember(key, _bvadd(a, b))


def _bvadd(a: Term, b: Term) -> Term:
    w = check_same_width(a, b, "bvadd")
    if a.is_value() and b.is_value():
        return bv(a.value + b.value, w)
    return _linear(w, (1, a), (1, b))


def bvsub(a: Term, b: Term) -> Term:
    key = ("bvsub", a, b)
    out = _OP_MEMO.get(key)
    return out if out is not None else _remember(key, _bvsub(a, b))


def _bvsub(a: Term, b: Term) -> Term:
    w = check_same_width(a, b, "bvsub")
    if a.is_value() and b.is_value():
        return bv(a.value - b.value, w)
    return _linear(w, (1, a), (-1, b))


def bvneg(a: Term) -> Term:
    key = ("bvneg", a)
    out = _OP_MEMO.get(key)
    return out if out is not None else _remember(key, _bvneg(a))


def _bvneg(a: Term) -> Term:
    w = check_bv(a, "bvneg")
    if a.is_value():
        return bv(-a.value, w)
    return _linear(w, (-1, a))


def bvmul(a: Term, b: Term) -> Term:
    w = check_same_width(a, b, "bvmul")
    if a.is_value() and b.is_value():
        return bv(a.value * b.value, w)
    for x, y in ((a, b), (b, a)):
        if x.is_value():
            if x.value == 0:
                return bv(0, w)
            if x.value == 1:
                return y
            if x.value == 2:
                return bvadd(y, y) if not y.is_value() else bv(2 * y.value, w)
    if a.is_value():
        a, b = b, a
    return T.mk_term(T.BVMUL, (a, b), (), bv_sort(w))


def bvudiv(a: Term, b: Term) -> Term:
    w = check_same_width(a, b, "bvudiv")
    if a.is_value() and b.is_value():
        # SMT-LIB: division by zero yields all-ones.
        return bv(_mask(w) if b.value == 0 else a.value // b.value, w)
    if b.is_value() and b.value == 1:
        return a
    return T.mk_term(T.BVUDIV, (a, b), (), bv_sort(w))


def bvurem(a: Term, b: Term) -> Term:
    w = check_same_width(a, b, "bvurem")
    if a.is_value() and b.is_value():
        return bv(a.value if b.value == 0 else a.value % b.value, w)
    if b.is_value() and b.value == 1:
        return bv(0, w)
    return T.mk_term(T.BVUREM, (a, b), (), bv_sort(w))


# ---------------------------------------------------------------------------
# Bitvector logic
# ---------------------------------------------------------------------------

def bvand(a: Term, b: Term) -> Term:
    w = check_same_width(a, b, "bvand")
    if a.is_value() and b.is_value():
        return bv(a.value & b.value, w)
    for x, y in ((a, b), (b, a)):
        if x.is_value():
            if x.value == 0:
                return bv(0, w)
            if x.value == _mask(w):
                return y
    if a is b:
        return a
    if a.is_value():
        a, b = b, a
    return T.mk_term(T.BVAND, (a, b), (), bv_sort(w))


def bvor(a: Term, b: Term) -> Term:
    w = check_same_width(a, b, "bvor")
    if a.is_value() and b.is_value():
        return bv(a.value | b.value, w)
    for x, y in ((a, b), (b, a)):
        if x.is_value():
            if x.value == 0:
                return y
            if x.value == _mask(w):
                return bv(_mask(w), w)
    if a is b:
        return a
    if a.is_value():
        a, b = b, a
    return T.mk_term(T.BVOR, (a, b), (), bv_sort(w))


def bvxor(a: Term, b: Term) -> Term:
    w = check_same_width(a, b, "bvxor")
    if a.is_value() and b.is_value():
        return bv(a.value ^ b.value, w)
    if a.is_value() and a.value == 0:
        return b
    if b.is_value() and b.value == 0:
        return a
    if a is b:
        return bv(0, w)
    if a.is_value():
        a, b = b, a
    return T.mk_term(T.BVXOR, (a, b), (), bv_sort(w))


def bvnot(a: Term) -> Term:
    w = check_bv(a, "bvnot")
    if a.is_value():
        return bv(~a.value, w)
    if a.op == T.BVNOT:
        return a.args[0]
    return T.mk_term(T.BVNOT, (a,), (), bv_sort(w))


# ---------------------------------------------------------------------------
# Shifts
# ---------------------------------------------------------------------------

def bvshl(a: Term, b: Term) -> Term:
    w = check_same_width(a, b, "bvshl")
    if b.is_value():
        sh = b.value
        if sh == 0:
            return a
        if sh >= w:
            return bv(0, w)
        if a.is_value():
            return bv(a.value << sh, w)
    return T.mk_term(T.BVSHL, (a, b), (), bv_sort(w))


def bvlshr(a: Term, b: Term) -> Term:
    w = check_same_width(a, b, "bvlshr")
    if b.is_value():
        sh = b.value
        if sh == 0:
            return a
        if sh >= w:
            return bv(0, w)
        if a.is_value():
            return bv(a.value >> sh, w)
        # (x << c) >> c keeps the low w-c bits of x (scaled-index round trip).
        if a.op == T.BVSHL and a.args[1].is_value() and a.args[1].value == sh:
            return zero_extend(sh, extract(w - 1 - sh, 0, a.args[0]))
    return T.mk_term(T.BVLSHR, (a, b), (), bv_sort(w))


def bvashr(a: Term, b: Term) -> Term:
    w = check_same_width(a, b, "bvashr")
    if b.is_value():
        sh = b.value
        if sh == 0:
            return a
        if a.is_value():
            return bv(to_signed(a.value, w) >> min(sh, w - 1), w)
        if sh >= w:
            sh = w - 1  # result is sign replication; keep symbolic below
    return T.mk_term(T.BVASHR, (a, b), (), bv_sort(w))


# ---------------------------------------------------------------------------
# Structure: concat / extract / extensions
# ---------------------------------------------------------------------------

def concat(hi: Term, lo: Term) -> Term:
    """``concat(hi, lo)``: hi becomes the most-significant part."""
    wh, wl = check_bv(hi, "concat"), check_bv(lo, "concat")
    if hi.is_value() and lo.is_value():
        return bv((hi.value << wl) | lo.value, wh + wl)
    if hi.is_value() and hi.value == 0:
        return zero_extend(wh, lo)
    # concat of adjacent extracts of the same base: re-fuse.
    if (
        hi.op == T.EXTRACT
        and lo.op == T.EXTRACT
        and hi.args[0] is lo.args[0]
        and hi.attrs[1] == lo.attrs[0] + 1
    ):
        return extract(hi.attrs[0], lo.attrs[1], hi.args[0])
    return T.mk_term(T.CONCAT, (hi, lo), (), bv_sort(wh + wl))


def concat_many(*parts: Term) -> Term:
    """Concatenate parts, first argument most significant."""
    if not parts:
        raise ValueError("concat_many needs at least one part")
    out = parts[0]
    for p in parts[1:]:
        out = concat(out, p)
    return out


def extract(hi: int, lo: int, a: Term) -> Term:
    w = check_bv(a, "extract")
    if not (0 <= lo <= hi < w):
        raise ValueError(f"extract [{hi}:{lo}] out of range for width {w}")
    if lo == 0 and hi == w - 1:
        return a
    if a.is_value():
        return bv(a.value >> lo, hi - lo + 1)
    if a.op == T.EXTRACT:
        base_lo = a.attrs[1]
        return extract(base_lo + hi, base_lo + lo, a.args[0])
    if a.op == T.ZERO_EXTEND:
        inner = a.args[0]
        iw = inner.width
        if hi < iw:
            return extract(hi, lo, inner)
        if lo >= iw:
            return bv(0, hi - lo + 1)
        if lo == 0 and hi >= iw:
            return zero_extend(hi - iw + 1, inner)
    if a.op == T.CONCAT:
        chi, clo = a.args
        wlo = clo.width
        if hi < wlo:
            return extract(hi, lo, clo)
        if lo >= wlo:
            return extract(hi - wlo, lo - wlo, chi)
    # extract of an add/sub keeps low bits correct when lo == 0.
    if lo == 0 and a.op in (T.BVADD, T.BVSUB) and hi < w - 1:
        x, y = a.args
        f = bvadd if a.op == T.BVADD else bvsub
        return f(extract(hi, 0, x), extract(hi, 0, y))
    # Bits below a constant left shift are zero; bits at or above it come
    # from the shifted operand (partially-symbolic opcode decoding).
    if a.op == T.BVSHL and a.args[1].is_value():
        sh = a.args[1].value
        if hi < sh:
            return bv(0, hi - lo + 1)
        if lo >= sh:
            return extract(hi - sh, lo - sh, a.args[0])
    # Extraction distributes over bitwise operations; worthwhile when one
    # side then folds to a constant (field extraction from opcode terms
    # built as base | immediate-shifted-into-place).
    if a.op in (T.BVOR, T.BVAND, T.BVXOR):
        left = extract(hi, lo, a.args[0])
        right = extract(hi, lo, a.args[1])
        if left.is_value() or right.is_value():
            op = {T.BVOR: bvor, T.BVAND: bvand, T.BVXOR: bvxor}[a.op]
            return op(left, right)
    return T.mk_term(T.EXTRACT, (a,), (hi, lo), bv_sort(hi - lo + 1))


def zero_extend(extra: int, a: Term) -> Term:
    w = check_bv(a, "zero_extend")
    if extra < 0:
        raise ValueError("zero_extend: negative extension")
    if extra == 0:
        return a
    if a.is_value():
        return bv(a.value, w + extra)
    if a.op == T.ZERO_EXTEND:
        return zero_extend(extra + a.attrs[0], a.args[0])
    return T.mk_term(T.ZERO_EXTEND, (a,), (extra,), bv_sort(w + extra))


def sign_extend(extra: int, a: Term) -> Term:
    w = check_bv(a, "sign_extend")
    if extra < 0:
        raise ValueError("sign_extend: negative extension")
    if extra == 0:
        return a
    if a.is_value():
        return bv(to_signed(a.value, w), w + extra)
    return T.mk_term(T.SIGN_EXTEND, (a,), (extra,), bv_sort(w + extra))


def zext_to(width: int, a: Term) -> Term:
    """Zero-extend (or return unchanged) to exactly ``width`` bits."""
    return zero_extend(width - a.width, a)


def truncate(width: int, a: Term) -> Term:
    """Keep the low ``width`` bits."""
    return extract(width - 1, 0, a)


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def bvult(a: Term, b: Term) -> Term:
    check_same_width(a, b, "bvult")
    if a.is_value() and b.is_value():
        return bool_val(a.value < b.value)
    if b.is_value() and b.value == 0:
        return FALSE
    if a is b:
        return FALSE
    return T.mk_term(T.BVULT, (a, b), (), BOOL)


def bvule(a: Term, b: Term) -> Term:
    w = check_same_width(a, b, "bvule")
    if a.is_value() and b.is_value():
        return bool_val(a.value <= b.value)
    if a.is_value() and a.value == 0:
        return TRUE
    if b.is_value() and b.value == _mask(w):
        return TRUE
    if a is b:
        return TRUE
    return T.mk_term(T.BVULE, (a, b), (), BOOL)


def bvugt(a: Term, b: Term) -> Term:
    return bvult(b, a)


def bvuge(a: Term, b: Term) -> Term:
    return bvule(b, a)


def bvslt(a: Term, b: Term) -> Term:
    w = check_same_width(a, b, "bvslt")
    if a.is_value() and b.is_value():
        return bool_val(to_signed(a.value, w) < to_signed(b.value, w))
    if a is b:
        return FALSE
    return T.mk_term(T.BVSLT, (a, b), (), BOOL)


def bvsle(a: Term, b: Term) -> Term:
    w = check_same_width(a, b, "bvsle")
    if a.is_value() and b.is_value():
        return bool_val(to_signed(a.value, w) <= to_signed(b.value, w))
    if a is b:
        return TRUE
    return T.mk_term(T.BVSLE, (a, b), (), BOOL)


def bvsgt(a: Term, b: Term) -> Term:
    return bvslt(b, a)


def bvsge(a: Term, b: Term) -> Term:
    return bvsle(b, a)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def substitute(term: Term, mapping: dict[Term, Term], memo: dict | None = None) -> Term:
    """Simultaneously substitute variables in ``term`` (DAG-aware).

    Substitution goes through the smart constructors, so folding re-fires
    when variables become concrete — this is exactly the mechanism by which
    ``DefineConst``/``DeclareConst`` substitution simplifies later ITL events.

    ``memo`` lets a caller substituting the *same* mapping into many terms
    share one result cache across calls (terms are interned, so shared
    subterms resolve once).  Sharing a memo across different mappings is
    unsound — results would leak between them.
    """
    if not mapping:
        return term
    return _substitute(term, mapping, mapping.keys(), {} if memo is None else memo)


def _substitute(t: Term, mapping: dict, keys, cache: dict) -> Term:
    # A module-level recursion, not a closure over the call's state: a
    # recursive closure is a reference cycle that would keep each call's
    # memo alive until the cyclic collector runs.
    hit = cache.get(t)
    if hit is not None:
        return hit
    if t.op == T.VAR:
        out = mapping.get(t, t)
    elif not t.args or keys.isdisjoint(t.free_vars()):
        out = t  # ground or untouched subtree: nothing to substitute
    else:
        changed = False
        new_args = []
        for a in t.args:
            na = _substitute(a, mapping, keys, cache)
            if na is not a:
                changed = True
            new_args.append(na)
        out = rebuild(t.op, tuple(new_args), t.attrs) if changed else t
    cache[t] = out
    return out


_REBUILDERS = {}


def rebuild(op: str, args: tuple[Term, ...], attrs: tuple) -> Term:
    """Rebuild a term with (possibly new) children through smart constructors."""
    if not _REBUILDERS:
        _REBUILDERS.update(
            {
                T.NOT: lambda a, at: not_(a[0]),
                T.AND: lambda a, at: and_(*a),
                T.OR: lambda a, at: or_(*a),
                T.XOR_BOOL: lambda a, at: xor(a[0], a[1]),
                T.EQ: lambda a, at: eq(a[0], a[1]),
                T.ITE: lambda a, at: ite(a[0], a[1], a[2]),
                T.BVADD: lambda a, at: bvadd(a[0], a[1]),
                T.BVSUB: lambda a, at: bvsub(a[0], a[1]),
                T.BVMUL: lambda a, at: bvmul(a[0], a[1]),
                T.BVNEG: lambda a, at: bvneg(a[0]),
                T.BVAND: lambda a, at: bvand(a[0], a[1]),
                T.BVOR: lambda a, at: bvor(a[0], a[1]),
                T.BVXOR: lambda a, at: bvxor(a[0], a[1]),
                T.BVNOT: lambda a, at: bvnot(a[0]),
                T.BVSHL: lambda a, at: bvshl(a[0], a[1]),
                T.BVLSHR: lambda a, at: bvlshr(a[0], a[1]),
                T.BVASHR: lambda a, at: bvashr(a[0], a[1]),
                T.BVUDIV: lambda a, at: bvudiv(a[0], a[1]),
                T.BVUREM: lambda a, at: bvurem(a[0], a[1]),
                T.CONCAT: lambda a, at: concat(a[0], a[1]),
                T.EXTRACT: lambda a, at: extract(at[0], at[1], a[0]),
                T.ZERO_EXTEND: lambda a, at: zero_extend(at[0], a[0]),
                T.SIGN_EXTEND: lambda a, at: sign_extend(at[0], a[0]),
                T.BVULT: lambda a, at: bvult(a[0], a[1]),
                T.BVULE: lambda a, at: bvule(a[0], a[1]),
                T.BVSLT: lambda a, at: bvslt(a[0], a[1]),
                T.BVSLE: lambda a, at: bvsle(a[0], a[1]),
            }
        )
    fn = _REBUILDERS.get(op)
    if fn is None:
        raise ValueError(f"cannot rebuild operator {op!r}")
    return fn(args, attrs)
