"""An incremental CDCL SAT solver.

Conflict-driven clause learning in pure Python: unit propagation over two
watched literals, 1-UIP conflict analysis with local clause minimisation,
non-chronological backjumping, VSIDS branching (activity bump and decay,
kept in a lazy binary heap) and phase saving.  There are no restarts and
no learnt-clause deletion; the state-assignment instances this library
generates have a few hundred to a few thousand variables, and enumerating
their models is dominated by re-solves after a blocking clause.

The solver is **incremental**.  Watch lists, learnt clauses, activities
and saved phases persist across :meth:`Solver.solve` calls;
:meth:`Solver.add_clause` and :meth:`Solver.ensure_vars` attach new
clauses and variables without rebuilding anything.  A learnt clause is a
consequence of the clause database alone, so it stays valid as clauses
are added.  Assumptions are decided as pseudo-decision levels above
level 0, so nothing derived from an assumption is ever fixed
permanently.  The model sequence depends only on the sequence of calls
made on the solver; it does not depend on the hash seed.

Internally a literal over variable ``v`` is ``2 * v`` (positive) or
``2 * v + 1`` (negative), so ``lit ^ 1`` negates it and ``lit >> 1`` is
its variable; values, watch lists, levels, reasons, activities and phases
are flat lists indexed by literal or variable.  The public interface uses
DIMACS literals.

The model returned is a list ``model[v] in (True, False)`` indexed by
variable (entry 0 unused).
"""

from __future__ import annotations

import heapq
import time
from typing import Iterable, List, Optional, Sequence, Tuple

from repro import perf

#: VSIDS decay: the bump increment grows by this factor per conflict
_DECAY = 1 / 0.95
#: activities are rescaled once one of them passes this bound
_RESCALE_LIMIT = 1e100


class SolverTimeout(Exception):
    """The search passed its deadline; satisfiability is *unknown*.

    Distinct from an UNSAT ``None`` result: callers treating a timeout
    as UNSAT would silently under-approximate the candidate space.
    """


def _internal(literal: int) -> int:
    return literal << 1 if literal > 0 else (-literal << 1) | 1


class Solver:
    """Incremental CDCL solver over clauses in DIMACS literal convention."""

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]]):
        self.num_vars = 0
        #: the clause database is unsatisfiable (permanently)
        self._unsat = False
        #: literal-indexed: 1 true, -1 false, 0 unassigned
        self._value: List[int] = [0, 0]
        #: literal-indexed: clauses watching the literal (visited when it
        #: becomes false); a clause watches its first two literals
        self._watches: List[List[List[int]]] = [[], []]
        self._level: List[int] = [0]
        self._reason: List[Optional[List[int]]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [True]
        self._seen: List[bool] = [False]
        #: lazy max-heap of ``(-activity, var)``; ``_heap_key[var]`` is the
        #: activity of the variable's live entry, ``None`` when it has none
        self._heap: List[tuple] = []
        self._heap_key: List[Optional[float]] = [None]
        self._bump = 1.0
        self._trail: List[int] = []
        #: trail length at the start of each decision level
        self._trail_lim: List[int] = []
        self._qhead = 0
        self.ensure_vars(num_vars)
        for clause in clauses:
            self.add_clause(clause)

    @classmethod
    def from_cnf(cls, cnf) -> "Solver":
        return cls(cnf.num_vars, cnf.clauses)

    # ------------------------------------------------------------------
    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable range (no-op if already large enough)."""
        grow = num_vars - self.num_vars
        if grow <= 0:
            return
        self._value += [0] * (2 * grow)
        self._watches += [[] for _ in range(2 * grow)]
        self._level += [0] * grow
        self._reason += [None] * grow
        self._activity += [0.0] * grow
        self._phase += [True] * grow
        self._seen += [False] * grow
        self._heap_key += [0.0] * grow
        # every heap key is <= 0.0 and the new variables are the largest,
        # so appending their (0.0, var) entries keeps the heap ordered
        self._heap += [(0.0, v) for v in range(self.num_vars + 1, num_vars + 1)]
        self.num_vars = num_vars

    def add_clause(self, clause: Sequence[int]) -> None:
        """Add one clause incrementally.

        Duplicate literals are dropped and tautologies ignored.  Literals
        already decided at level 0 simplify the clause; a clause left
        empty makes the database unsatisfiable, a unit one is assigned.
        """
        if self._unsat:
            return
        value = self._value
        lits = []
        for literal in clause:
            lit = literal << 1 if literal > 0 else (-literal << 1) | 1
            state = value[lit]
            if state == 1:
                return  # satisfied at level 0
            if state == 0:
                lits.append(lit)
        if len(lits) > 1 and len({lit >> 1 for lit in lits}) != len(lits):
            # a repeated variable: a duplicate literal or a tautology
            lits = list(dict.fromkeys(lits))
            if len({lit >> 1 for lit in lits}) != len(lits):
                return
        if not lits:
            self._unsat = True
        elif len(lits) == 1:
            self._assign(lits[0], None)
        else:
            self._watches[lits[0]].append(lits)
            self._watches[lits[1]].append(lits)

    # ------------------------------------------------------------------
    def _assign(self, lit: int, reason: Optional[List[int]]) -> None:
        variable = lit >> 1
        self._value[lit] = 1
        self._value[lit ^ 1] = -1
        self._level[variable] = len(self._trail_lim)
        self._reason[variable] = reason
        self._trail.append(lit)

    def _propagate(self) -> Optional[List[int]]:
        """Unit-propagate the trail; return a conflicting clause or None."""
        trail = self._trail
        value = self._value
        watches = self._watches
        level = self._level
        reason = self._reason
        depth = len(self._trail_lim)
        head = self._qhead
        while head < len(trail):
            false_lit = trail[head] ^ 1
            head += 1
            watching = watches[false_lit]
            count = len(watching)
            i = kept = 0
            while i < count:
                clause = watching[i]
                i += 1
                # keep the falsified watch in slot 1
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if value[first] == 1:
                    watching[kept] = clause
                    kept += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if value[lit] != -1:
                        clause[1] = lit
                        clause[k] = false_lit
                        watches[lit].append(clause)
                        break
                else:
                    watching[kept] = clause
                    kept += 1
                    if value[first] == -1:
                        while i < count:
                            watching[kept] = watching[i]
                            kept += 1
                            i += 1
                        del watching[kept:]
                        self._qhead = len(trail)
                        return clause
                    value[first] = 1
                    value[first ^ 1] = -1
                    level[first >> 1] = depth
                    reason[first >> 1] = clause
                    trail.append(first)
            del watching[kept:]
        self._qhead = head
        return None

    def _cancel_until(self, depth: int) -> None:
        """Backtrack to decision level ``depth``, saving phases."""
        trail_lim = self._trail_lim
        if len(trail_lim) <= depth:
            return
        trail = self._trail
        value = self._value
        phase = self._phase
        activity = self._activity
        heap_key = self._heap_key
        heap = self._heap
        mark = trail_lim[depth]
        for index in range(len(trail) - 1, mark - 1, -1):
            lit = trail[index]
            variable = lit >> 1
            value[lit] = value[lit ^ 1] = 0
            phase[variable] = not (lit & 1)
            if heap_key[variable] != activity[variable]:
                heap_key[variable] = activity[variable]
                heapq.heappush(heap, (-activity[variable], variable))
        del trail[mark:]
        del trail_lim[depth:]
        self._qhead = mark

    def _pick_branch(self) -> int:
        """The unassigned variable of highest activity, in its saved phase.

        Ties go to the lower variable index; 0 when all are assigned.
        """
        heap = self._heap
        heap_key = self._heap_key
        value = self._value
        while heap:
            key, variable = heapq.heappop(heap)
            if heap_key[variable] != -key:
                continue  # superseded entry
            heap_key[variable] = None
            lit = variable << 1
            if value[lit] == 0:
                return lit if self._phase[variable] else lit | 1
        return 0

    def _rescale(self) -> None:
        activity = [a / _RESCALE_LIMIT for a in self._activity]
        self._activity = activity
        self._bump /= _RESCALE_LIMIT
        value = self._value
        self._heap_key = [None] * len(activity)
        self._heap = []
        for variable in range(1, len(activity)):
            if value[variable << 1] == 0:
                self._heap_key[variable] = activity[variable]
                self._heap.append((-activity[variable], variable))
        heapq.heapify(self._heap)

    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int]:
        """1-UIP learnt clause (asserting literal first) and backjump level."""
        seen = self._seen
        level = self._level
        reason = self._reason
        trail = self._trail
        activity = self._activity
        bump = self._bump
        depth = len(self._trail_lim)
        learnt = [0]
        marked = []
        pending = 0
        index = len(trail)
        clause = conflict
        start = 0
        rescale = False
        while True:
            for position in range(start, len(clause)):
                lit = clause[position]
                variable = lit >> 1
                if not seen[variable] and level[variable] > 0:
                    seen[variable] = True
                    marked.append(variable)
                    activity[variable] += bump
                    if activity[variable] > _RESCALE_LIMIT:
                        rescale = True
                    if level[variable] >= depth:
                        pending += 1
                    else:
                        learnt.append(lit)
            while True:
                index -= 1
                lit = trail[index]
                if seen[lit >> 1]:
                    break
            variable = lit >> 1
            seen[variable] = False
            pending -= 1
            if pending == 0:
                break
            clause = reason[variable]
            start = 1  # slot 0 of a reason is the literal it implied
        learnt[0] = lit ^ 1
        # local minimisation: drop literals implied by the rest
        kept = [learnt[0]]
        for lit in learnt[1:]:
            cause = reason[lit >> 1]
            if cause is None or any(
                not seen[other >> 1] and level[other >> 1] > 0 for other in cause[1:]
            ):
                kept.append(lit)
        for variable in marked:
            seen[variable] = False
        if rescale:
            self._rescale()
        back = 0
        if len(kept) > 1:
            best = 1
            for position in range(2, len(kept)):
                if level[kept[position] >> 1] > level[kept[best] >> 1]:
                    best = position
            kept[1], kept[best] = kept[best], kept[1]
            back = level[kept[1] >> 1]
        return kept, back

    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        deadline: Optional[float] = None,
    ) -> Optional[List[bool]]:
        """Return a model or ``None`` if unsatisfiable.

        ``assumptions`` are literals forced true for this call only.
        ``deadline`` is an absolute :func:`time.monotonic` timestamp;
        the search raises :class:`SolverTimeout` (checked once per
        decision and per conflict) when the clock passes it, and the
        solver stays usable afterwards.

        The decisions, conflicts and learnt clauses of the call are added
        to the ``sat.decisions``, ``sat.conflicts`` and ``sat.learnt``
        perf counters.
        """
        decisions = conflicts = learnts = 0
        try:
            if self._unsat:
                return None
            assumed = [_internal(literal) for literal in assumptions]
            value = self._value
            trail = self._trail
            trail_lim = self._trail_lim
            while True:
                conflict = self._propagate()
                if conflict is not None:
                    conflicts += 1
                    if deadline is not None and time.monotonic() > deadline:
                        self._cancel_until(0)
                        raise SolverTimeout("SAT search passed its deadline")
                    if not trail_lim:
                        self._unsat = True
                        return None
                    learnt, back = self._analyze(conflict)
                    self._cancel_until(back)
                    learnts += 1
                    if len(learnt) == 1:
                        self._assign(learnt[0], None)
                    else:
                        self._watches[learnt[0]].append(learnt)
                        self._watches[learnt[1]].append(learnt)
                        self._assign(learnt[0], learnt)
                    self._bump *= _DECAY
                    continue
                if deadline is not None and time.monotonic() > deadline:
                    self._cancel_until(0)
                    raise SolverTimeout("SAT search passed its deadline")
                depth = len(trail_lim)
                if depth < len(assumed):
                    lit = assumed[depth]
                    if value[lit] == -1:
                        self._cancel_until(0)
                        return None
                    trail_lim.append(len(trail))
                    if value[lit] == 0:
                        decisions += 1
                        self._assign(lit, None)
                    continue
                lit = self._pick_branch()
                if not lit:
                    model = [state == 1 for state in value[::2]]
                    self._cancel_until(0)
                    return model
                decisions += 1
                trail_lim.append(len(trail))
                self._assign(lit, None)
        finally:
            perf.count("sat.decisions", decisions)
            perf.count("sat.conflicts", conflicts)
            perf.count("sat.learnt", learnts)


def solve(
    cnf,
    assumptions: Sequence[int] = (),
    deadline: Optional[float] = None,
) -> Optional[List[bool]]:
    """One-shot convenience wrapper: solve a :class:`~repro.sat.cnf.CNF`."""
    return Solver.from_cnf(cnf).solve(assumptions, deadline=deadline)
