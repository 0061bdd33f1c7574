"""A CDCL SAT solver.

This is the search core underneath the bit-blaster.  It implements the
standard modern architecture: two-watched-literal propagation, first-UIP
conflict analysis with clause learning, VSIDS-style activity decay, phase
saving, and Luby restarts.  It is deliberately dependency-free: the paper's
pipeline uses Z3, which is unavailable here, so the whole QF_BV stack is
built from scratch (see DESIGN.md, substitution table).

The solver is one-shot: a core answers one ``solve()`` (a second call
raises ``RuntimeError``), and :class:`~repro.smt.solver.Solver` builds a
fresh core for every query that reaches the SAT layer, so no clause
outlives the query it was learned in and there are no assumption literals.

Literals are non-zero integers: variable ``v`` is the positive literal ``v``
and its negation is ``-v`` (DIMACS convention).
"""

from __future__ import annotations

import heapq


def luby(i: int) -> int:
    """The Luby restart sequence (1,1,2,1,1,2,4,...), 1-indexed."""
    while True:
        k = (i + 1).bit_length() - 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1) if k > 0 else 1
        i -= (1 << k) - 1


class SatSolver:
    """CDCL solver over integer literals.

    Usage::

        s = SatSolver()
        v1, v2 = s.new_var(), s.new_var()
        s.add_clause([v1, -v2])
        if s.solve():
            model = s.model()   # dict var -> bool
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self.watches: dict[int, list[list[int]]] = {}
        self.assign: dict[int, bool] = {}
        self.level: dict[int, int] = {}
        self.reason: dict[int, list[int] | None] = {}
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.activity: dict[int, float] = {}
        self.var_inc = 1.0
        self.phase: dict[int, bool] = {}
        #: Conflicts over the solver's life (budget charging reads it).
        self.conflicts = 0
        self._ok = True
        # Input unit clauses, asserted at level 0 when solve() starts.
        self._units: list[int] = []
        self._solved = False
        # Propagation queue head: the first trail literal not yet propagated.
        self._qhead = 0
        # Lazy max-heap over (-activity, -var): stale entries are skipped at
        # pop time.  Ties break toward the highest variable index (the most
        # recently created Tseitin gate — the justification-frontier
        # heuristic for circuit-shaped problems).
        self._heap: list[tuple[float, int, int]] = []

    # -- construction ------------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        v = self.num_vars
        self.activity[v] = 0.0
        self.phase[v] = False
        return v

    def add_clause(self, lits: list[int]) -> None:
        """Add a clause (not while a search is in flight)."""
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        if not out:
            self._ok = False
            return
        if len(out) == 1:
            # Stage unit clauses as level-0 facts during solve().
            self._units.append(out[0])
            return
        self._watch(out)

    def _watch(self, clause: list[int]) -> None:
        self.watches.setdefault(-clause[0], []).append(clause)
        self.watches.setdefault(-clause[1], []).append(clause)

    # -- assignment helpers -------------------------------------------------

    def _value(self, lit: int):
        v = self.assign.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        val = self._value(lit)
        if val is not None:
            return val
        var = abs(lit)
        self.assign[var] = lit > 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        qhead = self._qhead
        while qhead < len(self.trail):
            lit = self.trail[qhead]
            qhead += 1
            watching = self.watches.get(lit)
            if not watching:
                continue
            i = 0
            while i < len(watching):
                clause = watching[i]
                # Normalise: watched literals are clause[0], clause[1].
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) is True:
                    i += 1
                    continue
                # Find a new literal to watch.
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(-clause[1], []).append(clause)
                        watching[i] = watching[-1]
                        watching.pop()
                        moved = True
                        break
                if moved:
                    continue
                # Clause is unit or conflicting.
                if self._value(first) is False:
                    self._qhead = len(self.trail)
                    return clause
                self._enqueue(first, clause)
                i += 1
        self._qhead = qhead
        return None

    # -- conflict analysis ---------------------------------------------------

    def _bump(self, var: int) -> None:
        act = self.activity.get(var, 0.0) + self.var_inc
        self.activity[var] = act
        heapq.heappush(self._heap, (-act, -var, var))

    def _decay(self) -> None:
        self.var_inc *= 1.052
        if self.var_inc > 1e100:
            for v in self.activity:
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._heap = [(-self.activity[v], -v, v) for v in self.activity]
            heapq.heapify(self._heap)

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learnt clause, backjump level).
        The asserting literal is learnt[0]."""
        cur_level = len(self.trail_lim)
        learnt: list[int] = []
        seen: set[int] = set()
        counter = 0
        lit = None
        clause = conflict
        idx = len(self.trail) - 1
        while True:
            for q in clause:
                if q == lit:
                    continue
                var = abs(q)
                if var in seen or self.level[var] == 0:
                    continue
                seen.add(var)
                self._bump(var)
                if self.level[var] == cur_level:
                    counter += 1
                else:
                    learnt.append(q)
            # Pick next literal from the trail at the current level.
            while abs(self.trail[idx]) not in seen:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            var = abs(p)
            seen.discard(var)
            counter -= 1
            if counter == 0:
                learnt.insert(0, -p)
                break
            clause = self.reason[var]
            lit = p
        if len(learnt) == 1:
            return learnt, 0
        bj = max(self.level[abs(q)] for q in learnt[1:])
        # Put a literal of the backjump level in position 1 for watching.
        for k in range(1, len(learnt)):
            if self.level[abs(learnt[k])] == bj:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, bj

    def _backjump(self, level: int) -> None:
        target = self.trail_lim[level]
        for lit in self.trail[target:]:
            var = abs(lit)
            self.phase[var] = self.assign[var]
            del self.assign[var]
            del self.level[var]
            del self.reason[var]
            heapq.heappush(
                self._heap, (-self.activity.get(var, 0.0), -var, var)
            )
        del self.trail[target:]
        del self.trail_lim[level:]
        self._qhead = min(self._qhead, len(self.trail))

    # -- main search ----------------------------------------------------------

    def solve(self, max_conflicts: int | None = None) -> bool | None:
        """Return True (SAT), False (UNSAT), or None (conflict budget hit).

        One call per core: a second raises ``RuntimeError``."""
        if self._solved:
            raise RuntimeError("SatSolver.solve() is one-shot; build a fresh core")
        self._solved = True
        if not self._ok:
            return False
        self._heap = [
            (-self.activity.get(v, 0.0), -v, v) for v in range(1, self.num_vars + 1)
        ]
        heapq.heapify(self._heap)

        for lit in self._units:
            if not self._enqueue(lit, None):
                return False
        if self._propagate() is not None:
            return False

        conflicts_until_restart = luby(1) * 64
        restart_idx = 1
        budget = max_conflicts

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if budget is not None:
                    budget -= 1
                    if budget < 0:
                        return None
                if not self.trail_lim:
                    # Conflict with no decisions on the trail: the clause
                    # database alone is unsatisfiable.
                    return False
                learnt, bj = self._analyze(conflict)
                self._backjump(bj)
                if len(learnt) >= 2:
                    self._watch(learnt)
                self._enqueue(learnt[0], learnt if len(learnt) >= 2 else None)
                self._decay()
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    restart_idx += 1
                    conflicts_until_restart = luby(restart_idx) * 64
                    if self.trail_lim:
                        self._backjump(0)
                continue
            var = self._pick_branch_var()
            if var is None:
                return True
            self.trail_lim.append(len(self.trail))
            lit = var if self.phase.get(var, False) else -var
            self._enqueue(lit, None)

    def _pick_branch_var(self) -> int | None:
        heap = self._heap
        while heap:
            neg_act, _, var = heap[0]
            if var in self.assign or -neg_act != self.activity.get(var, 0.0):
                heapq.heappop(heap)  # assigned or stale entry
                continue
            return var
        return None

    def model(self) -> dict[int, bool]:
        """The satisfying assignment found by a successful solve().
        Unassigned variables (don't-cares) default to False."""
        return {v: self.assign.get(v, False) for v in range(1, self.num_vars + 1)}
