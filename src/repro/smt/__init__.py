"""``repro.smt`` — a from-scratch QF_BV SMT stack.

The paper's pipeline leans on Z3 twice: Isla prunes unreachable Sail branches
during symbolic execution, and Islaris discharges bitvector side conditions
during separation-logic proofs.  This package provides the same capability
without external dependencies:

- :mod:`~repro.smt.terms` / :mod:`~repro.smt.builder`: hash-consed terms with
  simplifying smart constructors,
- :mod:`~repro.smt.interp`: concrete evaluation (``e ↓ v`` in the paper),
- :mod:`~repro.smt.sat`: a CDCL SAT core,
- :mod:`~repro.smt.cnf` / :mod:`~repro.smt.bitblast`: Tseitin encoding and
  bit-blasting,
- :mod:`~repro.smt.solver`: the scoped assertion-stack façade.
"""

from . import builder, terms
from .builder import (
    and_,
    bool_val,
    bool_var,
    bv,
    bv_var,
    bvadd,
    bvand,
    bvashr,
    bvlshr,
    bvmul,
    bvneg,
    bvnot,
    bvor,
    bvshl,
    bvsle,
    bvslt,
    bvsub,
    bvule,
    bvult,
    bvxor,
    concat,
    concat_many,
    eq,
    extract,
    false,
    ite,
    not_,
    or_,
    sign_extend,
    substitute,
    true,
    truncate,
    var,
    xor,
    zero_extend,
    zext_to,
)
from .interp import EvalError, evaluate
from .smtlib import term_to_sexpr
from .solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    Solver,
    check_cache_stats,
    clear_check_cache,
    set_check_cache_capacity,
)
from .sorts import BOOL, BitVecSort, BoolSort, Sort, bv_sort
from .terms import FALSE, TRUE, Term

__all__ = [
    "BOOL", "FALSE", "SAT", "TRUE", "UNKNOWN", "UNSAT",
    "BitVecSort", "BoolSort", "EvalError", "Solver",
    "Sort", "Term",
    "and_", "bool_val", "bool_var", "builder", "bv", "bv_sort", "bv_var",
    "bvadd", "bvand", "bvashr", "bvlshr", "bvmul", "bvneg", "bvnot", "bvor",
    "bvshl", "bvsle", "bvslt", "bvsub", "bvule", "bvult", "bvxor",
    "check_cache_stats", "clear_check_cache", "concat", "concat_many",
    "eq", "evaluate", "extract", "false", "ite", "not_", "or_",
    "set_check_cache_capacity",
    "sign_extend", "substitute",
    "term_to_sexpr", "terms", "true", "truncate", "var", "xor",
    "zero_extend", "zext_to",
]
