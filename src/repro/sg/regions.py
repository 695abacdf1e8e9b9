"""Regions of a state graph (Definitions 5-11 of the paper).

* **Excitation region** ER(*a_i): maximal connected set of states where
  signal ``a`` has the same value and is excited (Def. 5).
* **Quiescent region** QR(*a_i): the maximal connected set of stable
  states of the new value entered after *a_i fires (Def. 6).
* **Constant function region** CFR(*a_i) = ER(*a_i) u QR(*a_i) (Def. 7).
* **Minimal states** and the **unique entry condition** (Defs. 8-9).
* **Trigger signals** (Def. 10, Lemma 2).
* **Ordered / concurrent signals** with respect to a transition (Def. 11).
* The paper's value sets 0-set(a), 0*-set(a), 1-set(a), 1*-set(a) used by
  Definitions 13 and 16.

Connectivity is *weak* connectivity in the subgraph induced on the region
states, matching the paper's "maximal connected set of states".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set

from repro import perf
from repro.sg.bitengine import bit_analysis
from repro.sg.events import SignalEvent
from repro.sg.graph import State, StateGraph


@dataclass(frozen=True)
class ExcitationRegion:
    """One excitation region ER(*a_i).

    ``index`` numbers the regions of the same (signal, direction) pair in
    BFS-discovery order from the initial state, giving the paper's
    occurrence index ``i`` a deterministic meaning.
    """

    signal: str
    direction: int  # +1 for ER(+a_i), -1 for ER(-a_i)
    index: int
    states: FrozenSet[State]

    @property
    def event(self) -> SignalEvent:
        return SignalEvent(self.signal, self.direction)

    @property
    def transition_name(self) -> str:
        return f"{self.signal}{'+' if self.direction == 1 else '-'}/{self.index}"

    def __repr__(self) -> str:
        return f"ER({self.transition_name}, {len(self.states)} states)"


def _bfs_order(sg: StateGraph) -> Dict[State, int]:
    """Deterministic BFS discovery order from the initial state (cached)."""
    cached = sg._analysis_cache.get("bfs_order")
    if cached is not None:
        return cached
    order = {sg.initial: 0}
    queue = [sg.initial]
    head = 0
    event_str: Dict[SignalEvent, str] = {}
    state_str: Dict[State, str] = {}

    def _key(pair):
        event, target = pair
        es = event_str.get(event)
        if es is None:
            es = event_str[event] = str(event)
        ts = state_str.get(target)
        if ts is None:
            ts = state_str[target] = str(target)
        return (es, ts)

    while head < len(queue):
        current = queue[head]
        head += 1
        for event, target in sorted(sg.arcs_from(current), key=_key):
            if target not in order:
                order[target] = len(order)
                queue.append(target)
    sg._analysis_cache["bfs_order"] = order
    return order


def excitation_regions(sg: StateGraph, signal: str) -> List[ExcitationRegion]:
    """All excitation regions of ``signal``, both directions, indexed.

    Regions for each direction are numbered 1, 2, ... by the earliest BFS
    discovery time of any of their states.  Cached per graph.
    """
    cached = sg._analysis_cache.get(("regions", signal))
    if cached is not None:
        return cached
    with perf.phase("regions"):
        engine = bit_analysis(sg)
        position = sg.signal_position(signal)
        discovery = _bfs_order(sg)
        excited_all = engine.excited_bits(signal)
        regions: List[ExcitationRegion] = []
        for direction in (+1, -1):
            before = 0 if direction == 1 else 1
            excited = excited_all & engine.literal_bits(position, before)
            components = [
                frozenset(engine.states_of(bits))
                for bits in engine.weak_components(excited)
            ]
            components.sort(
                key=lambda c: min(discovery.get(s, len(discovery)) for s in c)
            )
            for i, component in enumerate(components, start=1):
                regions.append(ExcitationRegion(signal, direction, i, component))
        sg._analysis_cache[("regions", signal)] = regions
        return regions


def all_excitation_regions(
    sg: StateGraph, only_non_inputs: bool = False
) -> List[ExcitationRegion]:
    """Excitation regions of every signal (optionally non-input only)."""
    names = sorted(sg.non_inputs) if only_non_inputs else list(sg.signals)
    result: List[ExcitationRegion] = []
    for signal in names:
        result.extend(excitation_regions(sg, signal))
    return result


def _stable_bits(sg: StateGraph, signal: str, value: int) -> int:
    """Bitset of states where ``signal`` holds ``value`` and is stable."""
    engine = bit_analysis(sg)
    at_value = engine.literal_bits(sg.signal_position(signal), value)
    return at_value & ~engine.excited_bits(signal) & engine.all_states_bits


def quiescent_region(sg: StateGraph, er: ExcitationRegion) -> FrozenSet[State]:
    """QR(*a_i): the stable region(s) entered by firing *a_i from its ER.

    Computed as the union of the maximal connected components of
    {states with a = value_after, a stable} that contain a state directly
    entered from the excitation region by the region's own transition.
    Cached per graph.
    """
    cached = sg._analysis_cache.get(("qr", er))
    if cached is not None:
        return cached
    engine = bit_analysis(sg)
    members = engine.region_bits(("er", er), er.states)
    succ = engine.succ_bits
    reach = 0
    while members:
        low = members & -members
        reach |= succ[low.bit_length() - 1]
        members ^= low
    # every ER state has a = value_before, so a successor with
    # a = value_after was necessarily reached by firing *a_i itself
    stable = _stable_bits(sg, er.signal, er.event.value_after)
    exits = reach & stable  # a may be instantly re-excited; then QR empty
    if not exits:
        sg._analysis_cache[("qr", er)] = frozenset()
        return frozenset()
    # the stable set is shared by every region of the same (signal,
    # direction) pair, so its flood fill is worth its own cache slot
    comp_key = ("stable_comps", er.signal, er.event.value_after)
    components = sg._analysis_cache.get(comp_key)
    if components is None:
        components = engine.weak_components(stable)
        sg._analysis_cache[comp_key] = components
    result = 0
    for component in components:
        if component & exits:
            result |= component
    frozen = engine.states_of(result)
    sg._analysis_cache[("qr", er)] = frozen
    return frozen


def constant_function_region(sg: StateGraph, er: ExcitationRegion) -> FrozenSet[State]:
    """CFR(*a_i) = ER(*a_i) u QR(*a_i) (Definition 7).  Cached per graph."""
    cached = sg._analysis_cache.get(("cfr", er))
    if cached is None:
        cached = er.states | quiescent_region(sg, er)
        sg._analysis_cache[("cfr", er)] = cached
    return cached


def minimal_states(sg: StateGraph, er: ExcitationRegion) -> FrozenSet[State]:
    """States of the region with no predecessor inside it (Definition 8)."""
    engine = bit_analysis(sg)
    er_bits = engine.region_bits(("er", er), er.states)
    pred = engine.pred_bits
    minima = 0
    members = er_bits
    while members:
        low = members & -members
        if pred[low.bit_length() - 1] & er_bits == 0:
            minima |= low
        members ^= low
    return engine.states_of(minima)


def has_unique_entry(sg: StateGraph, er: ExcitationRegion) -> bool:
    """The unique entry condition (Definition 9)."""
    return len(minimal_states(sg, er)) == 1


def entry_state(sg: StateGraph, er: ExcitationRegion) -> State:
    """The unique minimal state u_min(*a_i); raises if not unique."""
    minima = minimal_states(sg, er)
    if len(minima) != 1:
        raise ValueError(
            f"{er} violates the unique entry condition "
            f"({len(minima)} minimal states)"
        )
    return next(iter(minima))


def trigger_events(
    sg: StateGraph, er: ExcitationRegion
) -> Set[SignalEvent]:
    """Events whose firing enters the region from outside (Definition 10)."""
    triggers: Set[SignalEvent] = set()
    for target in er.states:
        for event, source in sg.arcs_into(target):
            if source not in er.states:
                triggers.add(event)
    return triggers


def trigger_signals(sg: StateGraph, er: ExcitationRegion) -> Set[str]:
    return {event.signal for event in trigger_events(sg, er)}


def ordered_signals(sg: StateGraph, er: ExcitationRegion) -> FrozenSet[str]:
    """Signals with no excited transition inside the region (Definition 11).

    The region's own signal is always concurrent with itself (it is excited
    throughout the region), so it never appears in the result.  Cached per
    (graph, region): the cover-cube search queries it per candidate.
    """
    cached = sg._analysis_cache.get(("ordered", er))
    if cached is not None:
        return cached
    engine = bit_analysis(sg)
    er_bits = engine.region_bits(("er", er), er.states)
    result = frozenset(
        signal
        for signal in sg.signals
        if not engine.excited_bits(signal) & er_bits
    )
    sg._analysis_cache[("ordered", er)] = result
    return result


def concurrent_signals(sg: StateGraph, er: ExcitationRegion) -> Set[str]:
    """Complement of :func:`ordered_signals` (minus nothing; the region's
    own signal is concurrent by Definition 11's reading in the paper)."""
    return set(sg.signals) - ordered_signals(sg, er)


def excited_value_sets(sg: StateGraph, signal: str) -> Dict[str, FrozenSet[State]]:
    """The paper's 0-set / 0*-set / 1-set / 1*-set for ``signal``.

    * ``0-set``  : states where the signal is 0 and stable,
    * ``0*-set`` : states where the signal is 0 and excited (union of
      up-excitation regions),
    * ``1-set``  : states where the signal is 1 and stable,
    * ``1*-set`` : states where the signal is 1 and excited.

    The stable sets are defined directly (every stable state belongs to a
    quiescent region of the preceding transition whenever the signal is
    live; taking all stable states also covers constant signals safely).
    Cached per (graph, signal): the correctness checks of the candidate
    cube search query the same four sets once per candidate.
    """
    cached = sg._analysis_cache.get(("evs", signal))
    if cached is not None:
        return cached
    position = sg.signal_position(signal)
    zero_stable, zero_excited, one_stable, one_excited = set(), set(), set(), set()
    for state in sg.states:
        value = sg.code(state)[position]
        excited = sg.is_excited(state, signal)
        if value == 0:
            (zero_excited if excited else zero_stable).add(state)
        else:
            (one_excited if excited else one_stable).add(state)
    result = {
        "0-set": frozenset(zero_stable),
        "0*-set": frozenset(zero_excited),
        "1-set": frozenset(one_stable),
        "1*-set": frozenset(one_excited),
    }
    sg._analysis_cache[("evs", signal)] = result
    return result
