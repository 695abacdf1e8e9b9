"""CSC-only state-signal insertion (the complex-gate prerequisite).

Complete State Coding is all a complex-gate implementation needs (Chu
[3]); the Monotonous Cover requirement is strictly stronger (Theorem 4).
This module repairs *only* CSC, using the same 4-valued labelling and
expansion machinery as the MC engine, so the two repair costs can be
compared design by design -- the measurable "price of basic gates":

    CSC signals  <=  MC signals          (Theorem 4, in insertion form)

The search treats each CSC conflict pair as a separation constraint
(the two states must carry opposite stable values of the new signal)
and accepts a candidate when the conflict count strictly drops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.assignment import LabelEncoding
from repro.core.insertion import (
    InsertionError,
    InsertionRound,
    _fresh_signal_name,
    _new_input_conflicts,
    expand_with_signal,
    labelling_from_partition,
)
from repro.sg.csc import csc_conflicts, has_csc
from repro.sg.graph import State, StateGraph


@dataclass
class CSCInsertionResult:
    """Outcome of :func:`insert_for_csc`."""

    sg: StateGraph
    rounds: List[InsertionRound] = field(default_factory=list)

    @property
    def added_signals(self) -> List[str]:
        return [r.signal for r in self.rounds]

    @property
    def satisfied(self) -> bool:
        return has_csc(self.sg)


def _csc_candidates(sg: StateGraph, conflicts, per_set_budget: int = 30):
    """Labellings separating as many conflict pairs as possible.

    Constraint ladder: all pairs, then each single pair; partitions with
    few boundary crossings come from a dedicated pass pinning one pair.
    """
    # partition-derived candidates for the first conflict pair
    from repro.sat.cnf import CNF
    from repro.sat.solver import Solver

    states = sorted(sg.states, key=str)
    for first, second in conflicts[:3]:
        for bound in (2, 4):
            cnf = CNF()
            var = {s: cnf.var(("v", s)) for s in states}
            cnf.add(var[first])
            cnf.add(-var[second])
            boundary = []
            for source, _, target in sg.arcs():
                b = cnf.new_var()
                cnf.add(-b, var[source], var[target])
                cnf.add(-b, -var[source], -var[target])
                cnf.add(b, -var[source], var[target])
                cnf.add(b, var[source], -var[target])
                boundary.append(b)
            cnf.at_most_k(boundary, bound)
            solver = Solver.from_cnf(cnf)
            produced = 0
            while produced < per_set_budget:
                model = solver.solve()
                if model is None:
                    break
                produced += 1
                partition = {s: int(model[var[s]]) for s in states}
                # incremental blocking clause: the solver keeps its learnt
                # clauses and phases, so the next model comes from where
                # this one was found
                solver.add_clause(
                    [-var[s] if partition[s] else var[s] for s in states]
                )
                labelling = labelling_from_partition(sg, partition)
                if labelling is not None:
                    yield labelling

    # full 4-valued search with pairwise distinctness constraints
    subsets = [conflicts] if len(conflicts) > 1 else []
    subsets += [[pair] for pair in conflicts]
    for subset in subsets:
        encoding = LabelEncoding(sg)
        for first, second in subset:
            encoding.require_distinct_values(first, second)
        produced = 0
        while produced < per_set_budget:
            labelling = encoding.solve()
            if labelling is None:
                break
            produced += 1
            yield labelling
            encoding.forbid_model(labelling)


def insert_for_csc(
    sg: StateGraph,
    max_signals: int = 6,
    max_models: int = 300,
    signal_prefix: str = "z",
) -> CSCInsertionResult:
    """Insert internal signals until Complete State Coding holds."""
    current = sg
    rounds: List[InsertionRound] = []
    for round_index in range(max_signals):
        conflicts = csc_conflicts(current)
        if not conflicts:
            return CSCInsertionResult(sg=current, rounds=rounds)
        signal = _fresh_signal_name(current, signal_prefix, round_index)
        best: Optional[Tuple[StateGraph, int, Dict[State, str]]] = None
        tried = 0
        for labelling in _csc_candidates(current, conflicts):
            tried += 1
            try:
                expanded = expand_with_signal(current, labelling, signal)
            except ValueError:
                continue
            if _new_input_conflicts(current, expanded):
                continue
            remaining = len(csc_conflicts(expanded))
            if remaining == 0:
                best = (expanded, 0, labelling)
                break
            if remaining < len(conflicts) and (
                best is None or remaining < best[1]
            ):
                best = (expanded, remaining, labelling)
            if tried >= max_models:
                break
        if best is None:
            raise InsertionError(
                f"no labelling reduced the {len(conflicts)} CSC conflicts "
                f"(tried {tried} candidates)"
            )
        expanded, remaining, labelling = best
        rounds.append(
            InsertionRound(
                signal=signal,
                labelling=labelling,
                failures_before=len(conflicts),
                failures_after=remaining,
                models_tried=tried,
            )
        )
        current = expanded
    if csc_conflicts(current):
        raise InsertionError(
            f"CSC still violated after {max_signals} inserted signals"
        )
    return CSCInsertionResult(sg=current, rounds=rounds)
