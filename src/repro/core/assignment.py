"""SAT encoding of the generalized state assignment (Section V / [11]).

A new internal signal ``x`` is described by a **4-valued labelling**
``lambda : S -> {0, 1, U, D}``: ``x`` is stably 0 / stably 1 / rising /
falling at that state.  The expansion algorithm
(:func:`repro.core.insertion.expand_with_signal`) turns a labelling into
a new state graph; this module encodes *which labellings are legal* as
CNF over one-hot label variables, so the SAT substrate can search them.

Legal label pairs along an original arc ``s -e-> t``:

======  ======================================  =========================
pair    lifting                                 condition
======  ======================================  =========================
0 -> 0  at phase 0                              always
0 -> U  at phase 0                              always
0 -> D  at phase 0                              always
U -> U  at both phases                          always
1 -> 1  at phase 1                              always
1 -> D  at phase 1                              always
1 -> U  at phase 1                              always
D -> D  at both phases                          always
U -> 1  at phase 1 only (e delayed at phase 0)  e non-input
U -> D  at phase 1 only (e delayed at phase 0)  e non-input
D -> 0  at phase 0 only (e delayed at phase 1)  e non-input
D -> U  at phase 0 only (e delayed at phase 1)  e non-input
0 -> 1, 1 -> 0                                  never (x would jump)
U -> 0, D -> 1                                  never (firing e would
                                                disable the excited x)
======  ======================================  =========================

Delaying is forbidden for input events: the environment cannot be asked
to wait for an internal signal (Molnar's Foam Rubber Wrapper property).
The encoding also demands at least one U state and at least one D state,
so the new signal actually switches.

Separation constraints (derived from MC-analysis failures) are layered
on top by the insertion engine via :meth:`LabelEncoding.require_label`
and friends.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sat.cnf import CNF
from repro.sat.solver import Solver
from repro.sg.graph import State, StateGraph

LABELS = ("0", "1", "U", "D")

#: label pairs legal on any arc
_ALWAYS_OK = {
    ("0", "0"), ("0", "U"), ("0", "D"),
    ("U", "U"),
    ("1", "1"), ("1", "D"), ("1", "U"),
    ("D", "D"),
}
#: additionally legal when the event is non-input (the event is delayed
#: in one phase of the source state)
_NON_INPUT_OK = {("U", "1"), ("U", "D"), ("D", "0"), ("D", "U")}


def phases(label: str) -> Tuple[int, ...]:
    """The x-value phases a state of this label expands into."""
    return {"0": (0,), "1": (1,), "U": (0, 1), "D": (1, 0)}[label]


def allowed_pair(source_label: str, target_label: str, is_input_event: bool) -> bool:
    if (source_label, target_label) in _ALWAYS_OK:
        return True
    if not is_input_event and (source_label, target_label) in _NON_INPUT_OK:
        return True
    return False


def lifted_phases(source_label: str, target_label: str) -> Tuple[int, ...]:
    """Phases of the source state at which the arc is lifted."""
    result = []
    for p in phases(source_label):
        if p in phases(target_label):
            # lifting at a shared phase must not disable an excited x:
            # from a U state at phase 0 the target must keep x+ excited
            if source_label == "U" and p == 0 and target_label != "U":
                continue
            if source_label == "D" and p == 1 and target_label != "D":
                continue
            result.append(p)
    return tuple(result)


class LabelEncoding:
    """One-hot CNF encoding of a 4-valued labelling of a state graph."""

    def __init__(self, sg: StateGraph):
        self.sg = sg
        self.cnf = CNF()
        self._vars: Dict[Tuple[State, str], int] = {}
        #: canonical state order for every clause built over all states:
        #: the first two literals of a clause choose its watches, so set
        #: order must not steer the search
        self.states: List[State] = sorted(sg.states, key=str)
        for state in self.states:
            group = []
            for label in LABELS:
                variable = self.cnf.var(("label", state, label))
                self._vars[(state, label)] = variable
                group.append(variable)
            self.cnf.exactly_one(group)
        self._add_edge_rules()
        self._add_switching_rule()
        # incremental solver shared across solves; clauses added to the
        # CNF after a solve (forbid_model, require_*) are synced lazily
        self._solver: Optional[Solver] = None
        self._synced_clauses = 0

    # ------------------------------------------------------------------
    def var(self, state: State, label: str) -> int:
        return self._vars[(state, label)]

    def _add_edge_rules(self) -> None:
        for source, event, target in self.sg.arcs():
            is_input = event.signal in self.sg.inputs
            for s_label in LABELS:
                for t_label in LABELS:
                    if not allowed_pair(s_label, t_label, is_input):
                        self.cnf.add(
                            -self.var(source, s_label), -self.var(target, t_label)
                        )

    def _add_switching_rule(self) -> None:
        self.cnf.at_least_one([self.var(s, "U") for s in self.states])
        self.cnf.at_least_one([self.var(s, "D") for s in self.states])

    # ------------------------------------------------------------------
    # Constraint helpers for the insertion engine
    # ------------------------------------------------------------------
    def require_label(self, state: State, labels: Iterable[str]) -> None:
        """``lambda(state)`` must be one of ``labels``."""
        self.cnf.at_least_one([self.var(state, l) for l in labels])

    def require_implication(
        self, state: State, label: str, other: State, other_labels: Iterable[str]
    ) -> None:
        """``lambda(state) = label  ->  lambda(other) in other_labels``."""
        clause = [-self.var(state, label)]
        clause += [self.var(other, l) for l in other_labels]
        self.cnf.add_clause(clause)

    def require_distinct_values(self, first: State, second: State) -> None:
        """The two states must carry opposite *stable* x values.

        Used for CSC-style separation: one state gets label 0, the other
        label 1 (U/D have a phase at either value, so they cannot
        separate code-aliased states on their own).
        """
        selector = self.cnf.new_var()
        # selector -> (first=1 and second=0); -selector -> (first=0, second=1)
        self.cnf.add(-selector, self.var(first, "1"))
        self.cnf.add(-selector, self.var(second, "0"))
        self.cnf.add(selector, self.var(first, "0"))
        self.cnf.add(selector, self.var(second, "1"))

    def forbid_model(self, labelling: Dict[State, str]) -> None:
        """Block one complete labelling from future solves.

        The clause lists the states in canonical order, whatever the
        order of ``labelling``.
        """
        self.cnf.forbid([self.var(s, labelling[s]) for s in self.states])

    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        deadline: Optional[float] = None,
    ) -> Optional[Dict[State, str]]:
        """One labelling satisfying all constraints, or ``None``.

        ``deadline`` propagates to the SAT search, which raises
        :class:`repro.sat.solver.SolverTimeout` when it expires.
        """
        if self._solver is None:
            self._solver = Solver.from_cnf(self.cnf)
        else:
            self._solver.ensure_vars(self.cnf.num_vars)
            for clause in self.cnf.clauses[self._synced_clauses :]:
                self._solver.add_clause(clause)
        self._synced_clauses = len(self.cnf.clauses)
        model = self._solver.solve(assumptions, deadline=deadline)
        if model is None:
            return None
        labelling: Dict[State, str] = {}
        for state in self.states:
            for label in LABELS:
                if model[self.var(state, label)]:
                    labelling[state] = label
                    break
        return labelling
