"""Connected-component goal slicing.

A ``check()`` goal is a conjunction of boolean terms.  Two terms interact
only if they share a free variable, so the goal factors into the connected
components of its term/variable sharing graph — and since components are
variable-disjoint, the conjunction is satisfiable iff *every* component is
satisfiable, and a model of the whole is the union of per-component models.
This makes slicing sound for both feasibility (``check``) and validity
(``is_valid``, which is a ``check`` of the negated goal) queries.

Why it pays: the Isla executor's branch-feasibility queries conjoin one
branch condition with an entire path prefix.  The prefix components are
byte-identical across the two polarity queries and across sibling paths, so
keying the verdict caches on the *sliced component* instead of the whole
goal turns them into cache hits; only the (small) component actually
touching the query terms is ever re-solved.

Variable sets come from ``Term.free_vars()``, cached on each interned node,
so repeated slicing over shared assertion prefixes costs one slot read per
term.  The result does not depend on the iteration order of those sets:
union-find membership is order-free, and components are laid out by goal
position.
"""

from __future__ import annotations

from .terms import Term


def partition_goal(goal: list[Term]) -> list[list[Term]]:
    """Partition ``goal`` into variable-sharing connected components.

    Deterministic: components are ordered by the first goal position they
    touch, and terms inside a component keep their goal order.  Ground
    terms (no free variables — already constant-folded away in practice)
    each form their own component.
    """
    parent: dict[Term, Term] = {}

    def find(v: Term) -> Term:
        root = v
        while parent[root] is not root:
            root = parent[root]
        while parent[v] is not root:  # path compression
            parent[v], v = root, parent[v]
        return root

    def union(a: Term, b: Term) -> None:
        ra, rb = find(a), find(b)
        if ra is not rb:
            parent[rb] = ra

    term_varsets: list[frozenset[Term]] = []
    for t in goal:
        vs = t.free_vars()
        term_varsets.append(vs)
        anchor = None
        for v in vs:
            if v not in parent:
                parent[v] = v
            if anchor is None:
                anchor = v
            else:
                union(anchor, v)

    components: list[list[Term]] = []
    index_of_root: dict[Term, int] = {}
    for t, vs in zip(goal, term_varsets):
        if not vs:
            components.append([t])
            continue
        root = find(next(iter(vs)))
        idx = index_of_root.get(root)
        if idx is None:
            index_of_root[root] = len(components)
            components.append([t])
        else:
            components[idx].append(t)
    return components


def query_component_indices(
    components: list[list[Term]], query_terms: tuple[Term, ...]
) -> set[int]:
    """Indices of the components sharing a variable with (or containing)
    any of the ``query_terms`` — the slice that a query actually depends
    on; the rest are path constraints whose verdicts the caches answer."""
    query_vars: set[Term] = set()
    for t in query_terms:
        query_vars.update(t.free_vars())
    out: set[int] = set()
    for i, comp in enumerate(components):
        for t in comp:
            if t in query_terms or (query_vars and not query_vars.isdisjoint(t.free_vars())):
                out.add(i)
                break
    return out
