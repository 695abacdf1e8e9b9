"""Behavioural properties of state graphs (Definitions 1-4 and 12).

Conflict states localise potential hazards: a signal excited in a state
loses its excitation after another signal fires.  Input conflicts model
environment non-determinism and are benign; *internal* conflicts (on
non-input signals) are exactly the situations that become hazards at the
gate level under the pure unbounded-delay model (Sec. III, citing [1]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from repro.sg.events import SignalEvent
from repro.sg.graph import State, StateGraph
from repro.sg.regions import (
    ExcitationRegion,
    all_excitation_regions,
    concurrent_signals,
    excitation_regions,
    trigger_signals,
)


@dataclass(frozen=True)
class Conflict:
    """A conflict of ``signal`` in ``state`` caused by firing ``by``.

    ``signal`` is excited in ``state``; after ``by`` fires (reaching
    ``after``), ``signal`` is stable although it did not fire.
    """

    state: State
    signal: str
    by: SignalEvent
    after: State

    def __str__(self) -> str:
        return (
            f"signal {self.signal!r} excited in {self.state!r} is disabled by "
            f"{self.by} (reaching {self.after!r})"
        )


def conflict_states(
    sg: StateGraph, signals: Optional[Set[str]] = None
) -> List[Conflict]:
    """All conflicts with respect to the given signals (Definition 1).

    ``signals`` defaults to every signal; pass ``sg.non_inputs`` to get
    only *internally* conflict states.  The list is in state-list, arc
    and ``sg.signals`` order, so it does not depend on the hash seed.
    """
    watched = sg.signals
    if signals is not None:
        chosen = set(signals)
        watched = tuple(signal for signal in watched if signal in chosen)
    conflicts: List[Conflict] = []
    # few distinct excitation sets recur across states: order each once
    ordered: Dict[FrozenSet[str], List[str]] = {}
    for state in sg.state_list:
        enabled = sg.excited_signals(state)
        excited = ordered.get(enabled)
        if excited is None:
            excited = ordered[enabled] = [s for s in watched if s in enabled]
        if not excited:
            continue
        for event, target in sg.arcs_from(state):
            for signal in excited:
                if signal == event.signal:
                    continue
                if not sg.is_excited(target, signal):
                    conflicts.append(Conflict(state, signal, event, target))
    return conflicts


def is_semi_modular(sg: StateGraph) -> bool:
    """No conflict state is reachable (Definition 2; all states assumed
    reachable -- enforce with :meth:`StateGraph.check`)."""
    return not conflict_states(sg)


def is_output_semi_modular(sg: StateGraph) -> bool:
    """No *internally* conflict state (w.r.t. non-input signals)."""
    return not conflict_states(sg, sg.non_inputs)


@dataclass(frozen=True)
class Detonant:
    """State ``state`` is detonant w.r.t. ``signal`` (Definition 3):
    ``signal`` is stable in ``state`` and excited in the two distinct
    direct successors ``first`` and ``second``."""

    state: State
    signal: str
    first: State
    second: State


def detonant_states(
    sg: StateGraph, signals: Optional[Set[str]] = None
) -> List[Detonant]:
    """All detonant states w.r.t. the given signals (default: non-inputs,
    matching the paper's "detonant with respect to internal signal a").

    A state ``w`` is detonant for ``a`` when ``a`` is stable in ``w`` and
    excited in two distinct direct successors whose excitations belong to
    the *same* excitation region of ``a`` -- i.e. the same transition of
    ``a`` acquires a disjunctive (OR) cause.  The same-region refinement
    is what makes Lemma 1 work (a detonant state is exactly what produces
    an ER with several minimal states): two successors exciting *different*
    transitions of ``a`` -- such as Figure 1's initial state, whose
    successors enter ER(+c_1) and ER(+c_2) respectively -- are an input
    choice, not OR causality, and the paper indeed calls Figure 1 output
    distributive.
    """
    watched = sg.non_inputs if signals is None else set(signals)
    result: List[Detonant] = []
    region_of: dict = {}
    for signal in watched:
        for er in excitation_regions(sg, signal):
            for state in er.states:
                region_of[(signal, state)] = er
    for state in sg.states:
        successors = sorted(set(sg.successors(state)) - {state}, key=str)
        if len(successors) < 2:
            continue
        for signal in watched:
            if sg.is_excited(state, signal):
                continue
            hot = [t for t in successors if sg.is_excited(t, signal)]
            for i in range(len(hot)):
                for j in range(i + 1, len(hot)):
                    same_region = (
                        region_of[(signal, hot[i])] is region_of[(signal, hot[j])]
                    )
                    if same_region:
                        result.append(Detonant(state, signal, hot[i], hot[j]))
    return result


def is_distributive(sg: StateGraph) -> bool:
    """Semi-modular and free of detonant states (Definition 4)."""
    return is_semi_modular(sg) and not detonant_states(sg, set(sg.signals))


def is_output_distributive(sg: StateGraph) -> bool:
    """Output semi-modular and free of detonant states on non-inputs."""
    return is_output_semi_modular(sg) and not detonant_states(sg)


@dataclass(frozen=True)
class NonPersistency:
    """Trigger signal ``trigger`` of region ``er`` is non-persistent:
    it is concurrent with the region's transition (Definition 12)."""

    er: ExcitationRegion
    trigger: str

    def __str__(self) -> str:
        return (
            f"trigger {self.trigger!r} of ER({self.er.transition_name}) is "
            f"non-persistent (it has an excited transition inside the region)"
        )


def non_persistent_pairs(sg: StateGraph) -> List[NonPersistency]:
    """All (region, trigger) pairs violating persistency, for non-input
    signal regions (only non-inputs have to be synthesised)."""
    violations: List[NonPersistency] = []
    for er in all_excitation_regions(sg, only_non_inputs=True):
        concurrent = concurrent_signals(sg, er)
        for trigger in sorted(trigger_signals(sg, er)):
            if trigger in concurrent and trigger != er.signal:
                violations.append(NonPersistency(er, trigger))
    return violations


def is_persistent(sg: StateGraph) -> bool:
    """The state graph is persistent (Definition 12)."""
    return not non_persistent_pairs(sg)
