"""Hash-consed term representation for QF_BV.

Terms are immutable and interned: structurally equal terms are the same
Python object, so equality and hashing are by identity.  This matters
because the Isla symbolic executor and the separation-logic automation
both manipulate large shared DAGs of bitvector expressions.

Construction should normally go through :mod:`repro.smt.builder`, whose smart
constructors perform constant folding and local simplification; the raw
:func:`mk_term` here only checks well-sortedness.
"""

from __future__ import annotations

from typing import Iterator

from .sorts import BOOL, BitVecSort, Sort, bv_sort

# ---------------------------------------------------------------------------
# Operator tags.
# ---------------------------------------------------------------------------

# Nullary
VAR = "var"  # attrs = (name,)
BVVAL = "bvval"  # attrs = (value, width)
BOOLVAL = "boolval"  # attrs = (value,)

# Boolean connectives
NOT = "not"
AND = "and"
OR = "or"
XOR_BOOL = "xor"
IMPLIES = "=>"

# Polymorphic
EQ = "="
ITE = "ite"

# Bitvector arithmetic / logic
BVADD = "bvadd"
BVSUB = "bvsub"
BVMUL = "bvmul"
BVNEG = "bvneg"
BVAND = "bvand"
BVOR = "bvor"
BVXOR = "bvxor"
BVNOT = "bvnot"
BVSHL = "bvshl"
BVLSHR = "bvlshr"
BVASHR = "bvashr"
BVUDIV = "bvudiv"
BVUREM = "bvurem"

# Structural
CONCAT = "concat"
EXTRACT = "extract"  # attrs = (hi, lo)
ZERO_EXTEND = "zero_extend"  # attrs = (extra,)
SIGN_EXTEND = "sign_extend"  # attrs = (extra,)

# Predicates
BVULT = "bvult"
BVULE = "bvule"
BVSLT = "bvslt"
BVSLE = "bvsle"

BV_BINOPS = frozenset(
    {BVADD, BVSUB, BVMUL, BVAND, BVOR, BVXOR, BVSHL, BVLSHR, BVASHR, BVUDIV, BVUREM}
)
BV_CMPS = frozenset({BVULT, BVULE, BVSLT, BVSLE})
BOOL_NARY = frozenset({AND, OR, XOR_BOOL})


#: shared empty free-variable set for ground terms (literals etc.)
_NO_VARS: frozenset = frozenset()


class Term:
    """An interned SMT term.

    Equality is identity of interned nodes: :func:`mk_term` is the only
    place a ``Term`` is built, and it returns the existing node for a
    structurally equal term, so ``==`` and ``hash`` are ``object``'s own,
    one pointer operation in C.  Terms cannot be copied or pickled (a copy
    would be a second object for the same term); caches store their text
    and parse it back into interned terms.

    Attributes:
        op: operator tag (one of the module-level constants).
        args: child terms.
        attrs: non-term attributes (variable name, constant value, widths...).
        sort: the sort of the term.
    """

    __slots__ = ("op", "args", "attrs", "sort", "uid", "_fvs")

    op: str
    args: tuple["Term", ...]
    attrs: tuple
    sort: Sort
    uid: int  # creation index; a deterministic total order on terms

    def __init__(self, op: str, args: tuple, attrs: tuple, sort: Sort, uid: int):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "attrs", attrs)
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "uid", uid)
        object.__setattr__(self, "_fvs", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Term is immutable")

    # -- convenience ------------------------------------------------------

    @property
    def width(self) -> int:
        """Width of a bitvector term (raises for booleans)."""
        if not isinstance(self.sort, BitVecSort):
            raise TypeError(f"term {self!r} is not a bitvector")
        return self.sort.width

    def is_value(self) -> bool:
        """True for bitvector and boolean literals."""
        return self.op in (BVVAL, BOOLVAL)

    def is_var(self) -> bool:
        return self.op == VAR

    @property
    def name(self) -> str:
        if self.op != VAR:
            raise TypeError(f"term {self!r} is not a variable")
        return self.attrs[0]

    @property
    def value(self):
        if self.op == BVVAL:
            return self.attrs[0]
        if self.op == BOOLVAL:
            return self.attrs[0]
        raise TypeError(f"term {self!r} is not a literal")

    def free_vars(self) -> frozenset["Term"]:
        """The set of free variables of the term.

        Cached on the (interned, immutable) node, so repeated queries — the
        trace simplifier, well-formedness checks, the cache key builder —
        cost one dict-slot read after the first walk.  The walk is iterative
        (term DAGs can be deeper than the recursion limit) and single-child
        nodes alias their child's frozenset, so extract/extend chains share
        one set object.
        """
        cached = self._fvs
        if cached is not None:
            return cached
        stack = [self]
        while stack:
            t = stack[-1]
            if t._fvs is not None:
                stack.pop()
                continue
            pending = [a for a in t.args if a._fvs is None]
            if pending:
                stack.extend(pending)
                continue
            if t.op == VAR:
                fvs = frozenset((t,))
            elif not t.args:
                fvs = _NO_VARS
            elif len(t.args) == 1:
                fvs = t.args[0]._fvs
            else:
                fvs = frozenset().union(*(a._fvs for a in t.args))
            object.__setattr__(t, "_fvs", fvs)
            stack.pop()
        return self._fvs

    def iter_subterms(self) -> Iterator["Term"]:
        """Iterate over all distinct subterms (DAG nodes), children first order
        not guaranteed."""
        seen: set[Term] = set()
        stack = [self]
        while stack:
            t = stack.pop()
            if t in seen:
                continue
            seen.add(t)
            yield t
            stack.extend(t.args)

    def size(self) -> int:
        """Number of distinct DAG nodes."""
        return sum(1 for _ in self.iter_subterms())

    def __repr__(self) -> str:
        from .smtlib import term_to_sexpr

        return term_to_sexpr(self)


_INTERN: dict[tuple, Term] = {}

_STABLE_KEYS: dict[int, bytes] = {}


def stable_key(term: Term) -> bytes:
    """A *process-independent* total-order key for a term.

    ``uid`` (intern-table insertion index) is a fine total order within one
    process, but it depends on construction *history*: a pooled worker that
    interned ``y`` during an earlier task and ``x`` during this one orders
    them y < x, while a fresh process orders them x < y.  Anything that
    canonicalises by order — commutative-sum layout in the builder — would
    then print differently across processes, breaking byte-identical
    certificates.  This key is a structural digest instead: a pure function
    of the term's content, memoised by uid (terms are interned forever, so
    uids are stable memo keys).
    """
    import hashlib

    cached = _STABLE_KEYS.get(term.uid)
    if cached is not None:
        return cached
    # Iterative post-order so deep sum/ite chains cannot hit the recursion
    # limit.
    stack: list[Term] = [term]
    while stack:
        t = stack[-1]
        if t.uid in _STABLE_KEYS:
            stack.pop()
            continue
        pending = [c for c in t.args if c.uid not in _STABLE_KEYS]
        if pending:
            stack.extend(pending)
            continue
        digest = hashlib.sha256()
        digest.update(t.op.encode())
        digest.update(repr(t.attrs).encode())
        digest.update(repr(t.sort).encode())
        for child in t.args:
            digest.update(_STABLE_KEYS[child.uid])
        _STABLE_KEYS[t.uid] = digest.digest()
        stack.pop()
    return _STABLE_KEYS[term.uid]


def intern_cache_size() -> int:
    """Number of distinct terms ever built (for diagnostics)."""
    return len(_INTERN)


def mk_term(op: str, args: tuple[Term, ...], attrs: tuple, sort: Sort) -> Term:
    """Intern and return the term ``op(args; attrs) : sort``.

    Performs no simplification; use :mod:`repro.smt.builder` for that.
    """
    key = (op, args, attrs)
    term = _INTERN.get(key)
    if term is None:
        term = Term(op, args, attrs, sort, len(_INTERN))
        _INTERN[key] = term
    return term


# ---------------------------------------------------------------------------
# Raw constructors (sort-checked, not simplifying).
# ---------------------------------------------------------------------------


def mk_var(name: str, sort: Sort) -> Term:
    return mk_term(VAR, (), (name, sort), sort)


def mk_bv_value(value: int, width: int) -> Term:
    value &= (1 << width) - 1
    return mk_term(BVVAL, (), (value, width), bv_sort(width))


def mk_bool_value(value: bool) -> Term:
    return mk_term(BOOLVAL, (), (bool(value),), BOOL)


TRUE = mk_bool_value(True)
FALSE = mk_bool_value(False)


class IllSortedTerm(TypeError):
    """A term whose recorded sort disagrees with its structure.

    ``mk_term`` trusts the sort the caller supplies (the smart constructors
    in :mod:`repro.smt.builder` always pass a correct one), so a buggy
    simplification pass, a corrupt cache entry, or a hand-built term can
    smuggle in a node whose recorded sort does not follow from its
    children.  :func:`infer_sort` detects exactly that.
    """


def _infer_node_sort(t: Term) -> Sort:
    """The sort ``t``'s operator and children *imply* (ignores ``t.sort``)."""
    op = t.op
    if op in (VAR, BVVAL, BOOLVAL):
        if op == BVVAL:
            value, width = t.attrs
            if not isinstance(width, int) or width <= 0:
                raise IllSortedTerm(f"bvval with bad width {width!r}")
            if not isinstance(value, int) or value < 0 or value >> width:
                raise IllSortedTerm(
                    f"bvval value {value!r} out of range for width {width}"
                )
            return bv_sort(width)
        if op == BOOLVAL:
            return BOOL
        return t.attrs[1]  # a variable's sort is part of its identity
    if op == NOT:
        (a,) = t.args
        check_bool(a, op)
        return BOOL
    if op in BOOL_NARY or op == IMPLIES:
        if len(t.args) < 2:
            raise IllSortedTerm(f"{op} needs at least two operands")
        for a in t.args:
            check_bool(a, op)
        return BOOL
    if op == EQ:
        a, b = t.args
        if a.sort != b.sort:
            raise IllSortedTerm(f"=: sort mismatch {a.sort!r} vs {b.sort!r}")
        return BOOL
    if op == ITE:
        cond, then, els = t.args
        check_bool(cond, op)
        if then.sort != els.sort:
            raise IllSortedTerm(f"ite: sort mismatch {then.sort!r} vs {els.sort!r}")
        return then.sort
    if op in BV_BINOPS:
        a, b = t.args
        return bv_sort(check_same_width(a, b, op))
    if op in (BVNEG, BVNOT):
        (a,) = t.args
        return bv_sort(check_bv(a, op))
    if op in BV_CMPS:
        a, b = t.args
        check_same_width(a, b, op)
        return BOOL
    if op == CONCAT:
        hi, lo = t.args
        return bv_sort(check_bv(hi, op) + check_bv(lo, op))
    if op == EXTRACT:
        (a,) = t.args
        hi, lo = t.attrs
        w = check_bv(a, op)
        if not (isinstance(hi, int) and isinstance(lo, int) and 0 <= lo <= hi < w):
            raise IllSortedTerm(f"extract [{hi}:{lo}] out of range for width {w}")
        return bv_sort(hi - lo + 1)
    if op in (ZERO_EXTEND, SIGN_EXTEND):
        (a,) = t.args
        (extra,) = t.attrs
        w = check_bv(a, op)
        if not isinstance(extra, int) or extra < 0:
            raise IllSortedTerm(f"{op}: bad extension {extra!r}")
        return bv_sort(w + extra)
    raise IllSortedTerm(f"unknown operator {op!r}")


def infer_sort(term: Term) -> Sort:
    """Recompute and validate the sort of every node of ``term``'s DAG.

    Returns the (validated) sort of the root.  Raises :class:`IllSortedTerm`
    on the first node whose recorded sort does not follow from its operator,
    children, and attributes — the well-sortedness judgement of the ITL
    static checker.  Linear in the number of distinct DAG nodes; results are
    memoised process-wide by uid (terms are interned forever).
    """
    verified = _SORT_VERIFIED
    if term.uid in verified:
        return term.sort
    stack = [term]
    while stack:
        t = stack[-1]
        if t.uid in verified:
            stack.pop()
            continue
        pending = [c for c in t.args if c.uid not in verified]
        if pending:
            stack.extend(pending)
            continue
        try:
            inferred = _infer_node_sort(t)
        except IllSortedTerm:
            raise
        except TypeError as exc:
            # check_bv/check_same_width/check_bool raise plain TypeError.
            raise IllSortedTerm(str(exc)) from None
        if inferred != t.sort:
            raise IllSortedTerm(
                f"term {t.op!r} recorded sort {t.sort!r} but structure "
                f"implies {inferred!r}"
            )
        verified.add(t.uid)
        stack.pop()
    return term.sort


#: uids of terms whose whole DAG already passed :func:`infer_sort`.
_SORT_VERIFIED: set[int] = set()


def check_bv(term: Term, context: str) -> int:
    if not isinstance(term.sort, BitVecSort):
        raise TypeError(f"{context}: expected bitvector, got {term.sort!r}")
    return term.sort.width


def check_same_width(a: Term, b: Term, context: str) -> int:
    wa, wb = check_bv(a, context), check_bv(b, context)
    if wa != wb:
        raise TypeError(f"{context}: width mismatch {wa} vs {wb}")
    return wa


def check_bool(term: Term, context: str) -> None:
    if not term.sort.is_bool():
        raise TypeError(f"{context}: expected boolean, got {term.sort!r}")
