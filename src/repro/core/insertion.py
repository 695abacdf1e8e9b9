"""State-signal insertion: transforming G into G' satisfying MC (Sec. V).

The paper's synthesis procedure transforms an output semi-modular state
graph by inserting new internal signals until the Monotonous Cover
requirement holds, "using for example the generalized state assignment
method described in [11]".  This module implements that loop:

1. :func:`repro.core.mc.analyze_mc` finds the violating excitation
   regions and, per region, the *stuck states* -- reachable states
   outside the region's CFR that every cover cube of the region covers.
2. For each violating region, separation constraints over a 4-valued
   labelling of a new signal ``x`` are generated (two symmetric variants:
   the region reads ``x = 1`` while stuck states hold ``x = 0``, or vice
   versa).  A region state may be labelled U (x rises inside it) provided
   the region's own transition is *delayed* to the risen phase, which is
   what reshapes the region so that ``x`` becomes its trigger -- exactly
   the paper's Figure 1 -> Figure 3 transformation.
3. The SAT substrate proposes labellings consistent with the structural
   edge rules (:mod:`repro.core.assignment`); each proposal is expanded
   (:func:`expand_with_signal`) and re-verified.  Proposals that do not
   reduce the number of violations are blocked and the search continues;
   constraints are relaxed region-by-region if the full set is
   unsatisfiable.
4. One accepted signal per round, up to ``max_signals`` rounds.

The expansion preserves behaviour: hiding ``x`` (contracting its arcs)
gives back exactly the original arcs, and no input event is ever delayed.
Both invariants are property-tested.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro import perf
from repro.core.assignment import LabelEncoding, lifted_phases, phases
from repro.core.mc import MCReport, RegionVerdict, analyze_mc
from repro.sg.events import SignalEvent
from repro.sg.graph import State, StateGraph
from repro.sg.properties import conflict_states


class InsertionError(RuntimeError):
    """No labelling could repair the remaining MC violations."""


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------
def expand_with_signal(
    sg: StateGraph,
    labelling: Dict[State, str],
    signal: str,
    name: Optional[str] = None,
) -> StateGraph:
    """Expand ``sg`` with a new internal signal described by ``labelling``.

    States become ``(s, phase)`` pairs; U/D states split in two with an
    ``x+``/``x-`` arc between their phases; original arcs are lifted
    according to the label rules (see :mod:`repro.core.assignment`).
    Raises ``ValueError`` on labellings violating those rules.
    """
    if signal in sg.signals:
        raise ValueError(f"signal name {signal!r} already in use")
    for state in sg.states:
        if state not in labelling:
            raise ValueError(f"state {state!r} has no label")
        if labelling[state] not in ("0", "1", "U", "D"):
            raise ValueError(f"bad label {labelling[state]!r} for {state!r}")

    new_signals = sg.signals + (signal,)
    codes: Dict[Tuple[State, int], Tuple[int, ...]] = {}
    for state in sg.states:
        for phase in phases(labelling[state]):
            codes[(state, phase)] = sg.code(state) + (phase,)

    arcs: List[Tuple[Tuple[State, int], SignalEvent, Tuple[State, int]]] = []
    for state in sg.states:
        label = labelling[state]
        if label == "U":
            arcs.append(((state, 0), SignalEvent(signal, +1), (state, 1)))
        elif label == "D":
            arcs.append(((state, 1), SignalEvent(signal, -1), (state, 0)))

    for source, event, target in sg.arcs():
        s_label, t_label = labelling[source], labelling[target]
        lifts = lifted_phases(s_label, t_label)
        if not lifts:
            raise ValueError(
                f"arc {source!r} --{event}--> {target!r} cannot be lifted "
                f"under labels {s_label} -> {t_label}"
            )
        if event.signal in sg.inputs and set(lifts) != set(phases(s_label)):
            raise ValueError(
                f"labelling delays input event {event} at {source!r}"
            )
        for phase in lifts:
            arcs.append(((source, phase), event, (target, phase)))

    initial_phase = phases(labelling[sg.initial])[0]
    expanded = StateGraph(
        new_signals,
        sg.inputs,
        codes,
        arcs,
        (sg.initial, initial_phase),
        name=name or f"{sg.name}+{signal}",
    )
    # Unreachable phases can arise (e.g. the 0 phase of a D state no
    # predecessor reaches); prune them so region analysis sees the true
    # behaviour.
    reachable = expanded.reachable_from(expanded.initial)
    if reachable != expanded.states:
        expanded = expanded.restricted_to(reachable)
    return expanded


def project_away(sg: StateGraph, signal: str) -> StateGraph:
    """Hide an internal signal: contract its arcs and merge its phases.

    The inverse of :func:`expand_with_signal` up to state identity: every
    state ``(s, p)`` collapses to ``s`` and ``signal``'s own transitions
    disappear.  Used to verify behaviour preservation.
    """
    if signal in sg.inputs:
        raise ValueError("cannot hide an input signal")
    position = sg.signal_position(signal)
    kept_signals = tuple(s for s in sg.signals if s != signal)

    # union-find over states connected by the hidden signal's arcs
    parent: Dict[State, State] = {s: s for s in sg.states}

    def find(state: State) -> State:
        while parent[state] != state:
            parent[state] = parent[parent[state]]
            state = parent[state]
        return state

    for source, event, target in sg.arcs():
        if event.signal == signal:
            parent[find(source)] = find(target)

    def strip(code: Tuple[int, ...]) -> Tuple[int, ...]:
        return code[:position] + code[position + 1 :]

    codes: Dict[State, Tuple[int, ...]] = {}
    for state in sg.states:
        root = find(state)
        stripped = strip(sg.code(state))
        existing = codes.get(root)
        if existing is not None and existing != stripped:
            raise ValueError(
                "hiding the signal merges states with different codes"
            )
        codes[root] = stripped

    arcs = {
        (find(source), event, find(target))
        for source, event, target in sg.arcs()
        if event.signal != signal
    }
    return StateGraph(
        kept_signals,
        sg.inputs,
        codes,
        sorted(arcs),
        find(sg.initial),
        name=sg.name,
    )


# ----------------------------------------------------------------------
# Separation constraints from MC violations
# ----------------------------------------------------------------------
def _region_transition_targets(
    sg: StateGraph, verdict: RegionVerdict
) -> Dict[State, List[State]]:
    """For each region state, the target(s) of the region's own transition."""
    event = verdict.er.event
    return {
        state: sg.fire(state, event)
        for state in verdict.er.states
    }


def add_separation_constraints(
    encoding: LabelEncoding,
    sg: StateGraph,
    verdict: RegionVerdict,
    orientation: int,
) -> None:
    """Constrain the labelling so the failed region becomes coverable.

    ``orientation = 1``: the (reshaped) region reads ``x = 1``.  Each
    region state is labelled 1, or labelled U with the region's own
    transition delayed to the risen phase (targets labelled 1 or D) --
    the paper's Figure-3 move of putting the region behind ``x+``.
    Stuck states must lose their dangerous phase at ``x = 1``:

    * states where the region's signal is *stable* at the wrong level
      (a latch would set/reset spuriously if covered) are pinned to the
      opposite value outright;
    * states of the *opposite* excitation region may instead be labelled
      D with that opposite transition delayed past ``x-`` -- at the
      covered phase the signal is then stable and covering it is
      harmless (this is exactly how Figure 3 neutralises state 0001 of
      ER(-d) for the ``Sd`` cube).

    ``orientation = 0`` is the mirror image.
    """
    if orientation == 1:
        region_labels = ("1", "U")
        rise_label, region_stable = "U", ("1", "D")
        stuck_value_label = "0"
        stuck_delay_label, stuck_targets = "D", ("0", "U")
    else:
        region_labels = ("0", "D")
        rise_label, region_stable = "D", ("0", "U")
        stuck_value_label = "1"
        stuck_delay_label, stuck_targets = "U", ("1", "D")

    targets = _region_transition_targets(sg, verdict)
    for state in verdict.er.states:
        encoding.require_label(state, region_labels)
        for target in targets[state]:
            encoding.require_implication(state, rise_label, target, region_stable)
    for stuck in verdict.stuck_stable:
        encoding.require_label(stuck, (stuck_value_label,))
    event = verdict.er.event.inverse()
    for stuck in verdict.stuck_opposite:
        encoding.require_label(stuck, (stuck_value_label, stuck_delay_label))
        for target in sg.fire(stuck, event):
            encoding.require_implication(
                stuck, stuck_delay_label, target, stuck_targets
            )


# ----------------------------------------------------------------------
# The insertion loop
# ----------------------------------------------------------------------
@dataclass
class InsertionRound:
    """Record of one accepted signal insertion."""

    signal: str
    labelling: Dict[State, str]
    failures_before: int
    failures_after: int
    models_tried: int


@dataclass
class InsertionResult:
    """Outcome of :func:`insert_state_signals`."""

    sg: StateGraph
    report: MCReport
    rounds: List[InsertionRound] = field(default_factory=list)

    @property
    def added_signals(self) -> List[str]:
        return [r.signal for r in self.rounds]

    @property
    def satisfied(self) -> bool:
        return self.report.satisfied

    def describe(self) -> str:
        """Human-readable placement of each inserted signal.

        Reports, per signal, where it rises and falls in terms of the
        *original* behaviour: the trigger events of its excitation
        regions in the final state graph -- the way petrify-style tools
        narrate CSC/MC repairs ("x+ is inserted after ...").
        """
        from repro.sg.regions import excitation_regions, trigger_events

        if not self.rounds:
            return "no state signals inserted (MC already satisfied)"
        lines = [
            f"{len(self.rounds)} state signal(s) inserted: "
            f"{', '.join(self.added_signals)}"
        ]
        for round_ in self.rounds:
            lines.append(
                f"  {round_.signal}: repaired "
                f"{round_.failures_before - round_.failures_after} violation(s) "
                f"({round_.models_tried} candidate labelling(s) examined)"
            )
        for signal in self.added_signals:
            for er in excitation_regions(self.sg, signal):
                triggers = sorted(
                    str(e) for e in trigger_events(self.sg, er)
                )
                edge = "+" if er.direction == 1 else "-"
                lines.append(
                    f"  {signal}{edge} (occurrence {er.index}) fires after "
                    f"{' / '.join(triggers) if triggers else 'the initial state'}"
                )
        return "\n".join(lines)


def _new_input_conflicts(original: StateGraph, expanded: StateGraph) -> bool:
    """True if the expansion introduced input conflicts absent before.

    Expanded conflict states project to original ones: a conflict at
    ``(s, p)`` on input ``i`` is acceptable only if state ``s`` already
    had a conflict on ``i`` caused by the same event in the original.
    """
    allowed = {
        (c.state, c.signal, c.by) for c in conflict_states(original, original.inputs)
    }
    for conflict in conflict_states(expanded, expanded.inputs):
        state = conflict.state[0] if isinstance(conflict.state, tuple) else conflict.state
        if (state, conflict.signal, conflict.by) not in allowed:
            return True
    return False


def alias_entry_pairs(sg: StateGraph) -> List[Tuple[State, State]]:
    """Same-code entry states of sibling regions of one excitation function.

    When one excitation function has several regions whose minimal
    (entry) states carry identical codes -- the multi-occurrence pattern
    of the duplicator-style controllers -- no cube can tell the
    occurrences apart, and repairing one region just moves the violation
    to its sibling.
    """
    from repro.sg.regions import all_excitation_regions, minimal_states

    families: Dict[Tuple[str, int], List] = {}
    for er in all_excitation_regions(sg, only_non_inputs=True):
        families.setdefault((er.signal, er.direction), []).append(er)
    pairs = []
    for regions in families.values():
        if len(regions) < 2:
            continue
        entries = []
        for er in regions:
            minima = minimal_states(sg, er)
            if len(minima) == 1:
                entries.append(next(iter(minima)))
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                if sg.code(entries[i]) == sg.code(entries[j]):
                    pairs.append((entries[i], entries[j]))
    return pairs


def add_alias_entry_constraints(
    encoding: LabelEncoding, sg: StateGraph
) -> int:
    """Require the new signal to split same-code entries of region families.

    Pinning every :func:`alias_entry_pairs` pair to *opposite stable
    values* of the inserted signal makes one insertion settle the whole
    family.  Returns the number of pairs constrained (the caller drops
    these constraints when they make the round unsatisfiable).
    """
    pairs = alias_entry_pairs(sg)
    for first, second in pairs:
        encoding.require_distinct_values(first, second)
    return len(pairs)


def labelling_from_partition(
    sg: StateGraph, partition: Dict[State, int]
) -> Optional[Dict[State, str]]:
    """Derive a canonical 4-valued labelling from a 0/1 state partition.

    ``partition[s]`` is the value the new signal should hold at ``s``.
    Boundary arcs are absorbed into the *target* state: a 0->1 crossing
    makes the target a U state (the signal rises inside it), a 1->0
    crossing a D state.  U/D then propagates forward across *input*
    arcs -- an input event can never wait for the new signal, so the
    rise/fall region must extend until a non-input arc can take the
    delay.  Returns ``None`` when the absorption conflicts (a state
    would need to rise and fall at once, or the closure cannot
    stabilise).
    """
    labels: Dict[State, str] = {
        s: "1" if partition[s] else "0" for s in sg.states
    }
    marks: Dict[State, str] = {}
    for source, event, target in sg.arcs():
        vs, vt = partition[source], partition[target]
        if vs == vt:
            continue
        mark = "U" if (vs, vt) == (0, 1) else "D"
        if marks.get(target, mark) != mark:
            return None
        marks[target] = mark
    # forward closure across input arcs, bounded by the state count
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > len(sg.states) + 2:
            return None
        for source, event, target in sg.arcs():
            if event.signal not in sg.inputs:
                continue
            mark = marks.get(source)
            if mark is None:
                continue
            needed = partition[target] == partition[source]
            if not needed:
                continue
            if marks.get(target) not in (None, mark):
                return None
            if marks.get(target) != mark:
                marks[target] = mark
                changed = True
    for state, mark in marks.items():
        # a U state must sit on the 1 side (the signal rises into the
        # state's final value), a D state on the 0 side
        if mark == "U" and partition[state] != 1:
            return None
        if mark == "D" and partition[state] != 0:
            return None
        labels[state] = mark
    if "U" not in labels.values() or "D" not in labels.values():
        return None
    # final validation against the full edge-rule table (catches e.g. a
    # U state whose *input* successor arc crosses back to the 0 side)
    from repro.core.assignment import allowed_pair

    for source, event, target in sg.arcs():
        if not allowed_pair(
            labels[source], labels[target], event.signal in sg.inputs
        ):
            return None
    return labels


def _deadline_expired(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() > deadline


def _partition_candidates(
    sg: StateGraph,
    report: MCReport,
    per_set_budget: int = 30,
    deadline: Optional[float] = None,
):
    """High-quality candidates from 2-valued partitions with few crossings.

    For each failed region (both orientations), a small SAT instance
    enumerates partitions pinning the region to one side and its stuck
    states to the other, with the number of boundary crossings bounded
    (2, then 4) -- the shape of handshake-style insertions.  Each
    partition is canonicalised by :func:`labelling_from_partition`.
    """
    from repro.sat.cnf import CNF
    from repro.sat.solver import Solver, SolverTimeout

    states = sorted(sg.states, key=str)
    arcs = sg.arcs()
    for verdict in report.failed:
        for orientation in (0, 1):
            region_value = orientation
            stuck_value = 1 - orientation
            for crossing_bound in (2, 4):
                if _deadline_expired(deadline):
                    return
                cnf = CNF()
                var = {s: cnf.var(("v", s)) for s in states}
                for state in verdict.er.states:
                    cnf.add(var[state] if region_value else -var[state])
                for stuck in verdict.stuck_states:
                    cnf.add(var[stuck] if stuck_value else -var[stuck])
                boundary_lits = []
                for source, _, target in arcs:
                    b = cnf.new_var()
                    # b <-> V(source) != V(target)
                    cnf.add(-b, var[source], var[target])
                    cnf.add(-b, -var[source], -var[target])
                    cnf.add(b, -var[source], var[target])
                    cnf.add(b, var[source], -var[target])
                    boundary_lits.append(b)
                cnf.at_most_k(boundary_lits, crossing_bound)
                solver = Solver.from_cnf(cnf)
                produced = 0
                while produced < per_set_budget:
                    if _deadline_expired(deadline):
                        return
                    try:
                        model = solver.solve(deadline=deadline)
                    except SolverTimeout:
                        return
                    if model is None:
                        break
                    produced += 1
                    partition = {s: int(model[var[s]]) for s in states}
                    # incremental blocking clause: the solver keeps its
                    # learnt clauses and phases, so the next model comes
                    # from where this one was found
                    solver.add_clause(
                        [-var[s] if partition[s] else var[s] for s in states]
                    )
                    labelling = labelling_from_partition(sg, partition)
                    if labelling is not None:
                        yield labelling


def _candidate_labellings(
    sg: StateGraph,
    report: MCReport,
    per_set_budget: int = 20,
    deadline: Optional[float] = None,
):
    """Yield labellings: partition-derived ones first, then the
    :func:`_candidate_encodings` round-robin (:func:`_round_robin`)."""
    # High-quality partition-derived candidates first.
    emitted = set()
    for labelling in _partition_candidates(sg, report, deadline=deadline):
        key = tuple(sorted((str(s), l) for s, l in labelling.items()))
        if key not in emitted:
            emitted.add(key)
            yield labelling
    yield from _round_robin(
        _candidate_encodings(sg, report, deadline), per_set_budget, deadline
    )


def _candidate_encodings(
    sg: StateGraph, report: MCReport, deadline: Optional[float] = None
) -> Iterator[LabelEncoding]:
    """Encodings of progressively weaker constraint sets, built on demand.

    Schedule (strongest first):

    * cover *all* failed regions, then each single region (letting later
      rounds finish the job), then the intermediate prefixes;
    * per subset, both orientations of the new signal;
    * per orientation, with and then without the alias-entry constraints
      (only when the graph has alias pairs);
    * per variant, increasing switching-cardinality tiers -- at most 1,
      2, then unboundedly many U states (and likewise D states).  Small
      tiers strongly bias the search towards the paper-style insertions
      with one rise region and few fall regions.
    """
    from itertools import product

    failed = report.failed
    states = sorted(sg.states, key=str)
    tiers = [1, 2, None]
    subsets: List[List[RegionVerdict]] = []
    if len(failed) > 1:
        subsets.append(list(failed))
    subsets += [[verdict] for verdict in failed]
    subsets += [failed[:count] for count in range(len(failed) - 1, 1, -1)]
    alias_variants = (True, False) if alias_entry_pairs(sg) else (False,)

    for subset in subsets:
        count = len(subset)
        if count <= 3:
            combos = list(product((1, 0), repeat=count))
        else:
            combos = [(1,) * count, (0,) * count]
        for combo in combos:
            for with_alias in alias_variants:
                for tier in tiers:
                    if _deadline_expired(deadline):
                        return
                    encoding = LabelEncoding(sg)
                    for verdict, orientation in zip(subset, combo):
                        add_separation_constraints(encoding, sg, verdict, orientation)
                    if with_alias:
                        add_alias_entry_constraints(encoding, sg)
                    if tier is not None:
                        encoding.cnf.at_most_k(
                            [encoding.var(s, "U") for s in states], tier
                        )
                        encoding.cnf.at_most_k(
                            [encoding.var(s, "D") for s in states], tier
                        )
                    yield encoding


def _round_robin(
    encodings: Iterable[LabelEncoding],
    per_set_budget: int,
    deadline: Optional[float] = None,
):
    """One model from each live encoding per sweep, so early exhaustive
    sets cannot starve the later ones.

    The first sweep pulls ``encodings`` one at a time, so an encoding is
    built only when it is about to be solved; a consumer that stops
    early never pays for the rest.
    """
    from repro.sat.solver import SolverTimeout

    live: Iterable[List] = ([encoding, 0] for encoding in encodings)
    while True:
        still_live = []
        for entry in live:
            if _deadline_expired(deadline):
                return
            encoding, produced = entry
            try:
                labelling = encoding.solve(deadline=deadline)
            except SolverTimeout:
                return
            if labelling is None:
                continue
            yield labelling
            encoding.forbid_model(labelling)
            entry[1] = produced + 1
            if entry[1] < per_set_budget:
                still_live.append(entry)
        if not still_live:
            return
        live = still_live


def _mc_score(report: MCReport) -> Tuple[int, int]:
    return (
        len(report.failed),
        sum(len(v.stuck_states) for v in report.failed),
    )


def _failure_signature(report: MCReport) -> Tuple[str, ...]:
    return tuple(sorted(v.er.transition_name for v in report.failed))


def _analyze_expanded(
    expanded: StateGraph, analysis_cache
) -> Tuple[StateGraph, MCReport]:
    """MC-analyze a candidate expansion, memoised by graph fingerprint.

    On a hit both the cached graph (with its warm analysis caches) and
    its report are returned, keeping ``report.sg`` consistent with the
    graph threaded onwards.
    """
    if analysis_cache is None:
        return expanded, analyze_mc(expanded)
    from repro.pipeline.artifacts import fingerprint_state_graph

    key = fingerprint_state_graph(expanded)
    hit = analysis_cache.get(key)
    if hit is not None:
        perf.count("insertion.analysis-reuse")
        return hit
    report = analyze_mc(expanded)
    analysis_cache[key] = (expanded, report)
    return expanded, report


@dataclass
class _BeamNode:
    sg: StateGraph
    report: MCReport
    rounds: List[InsertionRound]

    @property
    def score(self) -> Tuple[int, int]:
        return _mc_score(self.report)


def insert_state_signals(
    sg: StateGraph,
    max_signals: int = 8,
    max_models: int = 400,
    signal_prefix: str = "x",
    beam_width: int = 6,
    deadline: Optional[float] = None,
    report: Optional[MCReport] = None,
    analysis_cache=None,
) -> InsertionResult:
    """Insert internal signals until the MC requirement holds.

    The search is a beam over insertion rounds: each beam node is a
    partially repaired state graph; one round expands every node with
    candidate labellings for one fresh signal, keeps the ``beam_width``
    best distinct outcomes, and stops as soon as some expansion has no
    remaining MC violations.  Beam search avoids the lock-in of greedy
    acceptance: the best single-step improvement is not always on the
    path to the cheapest complete repair (multi-occurrence controllers
    like the duplicator need coordinated separations across rounds).

    ``deadline`` is an absolute :func:`time.monotonic` timestamp bounding
    the search (the candidate loop is SAT-driven and can dominate the
    whole pipeline on adversarial graphs); when the clock passes it the
    search stops with an :class:`InsertionError` whose message starts
    with ``"insertion deadline expired"`` -- an *inconclusive* outcome,
    not a proof that no repair exists.

    Returns the transformed state graph, the final MC report and the
    per-round history.  Raises :class:`InsertionError` when no candidate
    labelling improves any beam node within the budgets.

    ``report`` lets callers that already hold the MC analysis of ``sg``
    (the staged pipeline memoises it) skip the redundant re-analysis.

    ``analysis_cache`` is an optional mapping (``.get``/``__setitem__``)
    from expanded-graph fingerprints to ``(graph, MCReport)`` pairs; the
    beam search consults it before analyzing a candidate and reuses
    *both* cached objects on a hit.  ``analyze_mc`` is deterministic per
    graph content, so the cache changes nothing about the search outcome
    — it only skips repeated analyses (duplicate candidates within one
    search, or re-searches after a spec edit).
    """
    report = report if report is not None else analyze_mc(sg)
    if report.satisfied:
        return InsertionResult(sg=sg, report=report, rounds=[])

    beam: List[_BeamNode] = [_BeamNode(sg=sg, report=report, rounds=[])]
    for round_index in range(max_signals):
        expansions: List[_BeamNode] = []
        seen_signatures = set()
        total_tried = 0
        for node in beam:
            signal = _fresh_signal_name(node.sg, signal_prefix, round_index)
            failures_before = len(node.report.failed)
            tried = 0
            for labelling in _candidate_labellings(
                node.sg, node.report, deadline=deadline
            ):
                tried += 1
                total_tried += 1
                try:
                    expanded = expand_with_signal(node.sg, labelling, signal)
                except ValueError:
                    continue
                if _new_input_conflicts(node.sg, expanded):
                    continue
                expanded, new_report = _analyze_expanded(expanded, analysis_cache)
                child = _BeamNode(
                    sg=expanded,
                    report=new_report,
                    rounds=node.rounds
                    + [
                        InsertionRound(
                            signal=signal,
                            labelling=labelling,
                            failures_before=failures_before,
                            failures_after=len(new_report.failed),
                            models_tried=tried,
                        )
                    ],
                )
                if new_report.satisfied:
                    return InsertionResult(
                        sg=expanded, report=new_report, rounds=child.rounds
                    )
                if child.score <= node.score:
                    signature = _failure_signature(new_report)
                    if signature not in seen_signatures:
                        seen_signatures.add(signature)
                        expansions.append(child)
                if tried >= max_models:
                    break
        if _deadline_expired(deadline):
            raise InsertionError(
                f"insertion deadline expired in round {round_index + 1} "
                f"after {total_tried} candidates"
            )
        improving = [
            child
            for child in expansions
            if child.score < min(node.score for node in beam)
            or len(child.rounds) == 1
        ]
        pool = improving or expansions
        if not pool:
            failed = beam[0].report.failed
            raise InsertionError(
                f"no labelling repaired {failed[0].er} "
                f"(tried {total_tried} candidates in round {round_index + 1})"
            )
        pool.sort(key=lambda child: child.score)
        beam = pool[:beam_width]
    raise InsertionError(
        f"still {len(beam[0].report.failed)} MC violations after "
        f"{max_signals} inserted signals"
    )


def _fresh_signal_name(sg: StateGraph, prefix: str, index: int) -> str:
    if index == 0 and prefix not in sg.signals:
        return prefix
    candidate = f"{prefix}{index}"
    while candidate in sg.signals:
        index += 1
        candidate = f"{prefix}{index}"
    return candidate
