"""Token-flow reachability: elaborating an STG into a state graph.

The reachability graph of a 1-safe STG, with each marking labelled by the
signal values at that marking, *is* the paper's state graph.  Signal
values are computed in two passes:

1. BFS over markings recording, per signal, the *parity* of its edges
   along the path from the initial marking (0 = even number of toggles).
   Reconvergent paths must agree on every signal's parity, otherwise the
   STG has no consistent state assignment.
2. The initial value of each signal is then inferred: if some marking at
   parity ``p`` enables a rising edge of ``s``, the value of ``s`` there
   is 0, so ``initial(s) = p xor 0``.  All such constraints must agree.
   Signals that never switch take their value from
   ``stg.initial_values`` (default 0 with a warning-free fallback).

The exploration runs on packed integers.  Places are numbered in sorted
order, so a marking is an ``int`` with bit ``i`` set when ``places[i]``
holds a token; a transition is a preset mask, a postset mask and the bit
of its signal.  A transition is enabled when ``marking & pre == pre``,
its firing is 1-safe when ``postset & (marking & ~preset) == 0``, and a
marking's signal parities are one ``int`` with one byte per signal
(bit ``8 * i`` for ``stg.signals[i]``), so ``int.to_bytes`` turns it
into a code vector.  Transitions are tried in sorted name order, so
markings are discovered in the same BFS order whatever the hash seed.
This one kernel serves corpus admission, :func:`~repro.stg.structural.
is_live_and_safe` and :func:`stg_to_state_graph`; its result is dense:
markings and parities in discovery order, arcs as ``(source index,
transition index, target index)``.

Incremental replay
------------------
``explore`` can replay an :class:`ExplorationSnapshot` captured from a
previous run on an edited net.  The snapshot keeps that run's packed
result as it is, so capturing costs nothing; it is translated into the
edited net's place numbering only when a replay reads it.  A cached
marking's successor list is reused verbatim when no *dirty* transition
(one whose preset/postset changed between the nets) appears in it and
no dirty transition is enabled at that marking under the new net;
otherwise the marking is re-expanded from scratch.  Successors are
cached in sorted transition order and the BFS bookkeeping below is
shared between both paths, so the replayed exploration discovers
markings in *exactly* the order a cold run would — state names
``m{i}``, codes, arcs, cap errors and consistency errors are all
byte-identical.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro import perf
from repro.sg.graph import StateGraph, bits_from_flags, event_id
from repro.stg.petrinet import PetriNet
from repro.stg.stg import STG


class ReachabilityError(ValueError):
    """The STG is unsafe, inconsistent, or too large to elaborate."""


class StateCapExceeded(ReachabilityError):
    """More markings are reachable than the exploration's cap allows.

    The one reachability error that is a budget, not a defect of the
    specification: a larger cap may still elaborate the net.
    """



class Exploration(NamedTuple):
    """The dense result of :func:`explore`.

    ``places`` and ``transitions`` are sorted; bit ``i`` of a marking
    stands for ``places[i]``, and arcs name transitions by their index
    in ``transitions``.  ``markings`` and ``parities`` are in BFS
    discovery order (marking ``k`` becomes state ``m{k}``); byte ``i``
    of a parity (bit ``8 * i``) is the toggle parity of
    ``stg.signals[i]``, so ``parity.to_bytes(len(signals), "little")``
    lists the parities in signal order.  ``arcs`` lists
    ``(source, transition, target)`` index triples grouped by source in
    discovery order, each group in transition order.
    """

    places: Tuple[str, ...]
    transitions: Tuple[str, ...]
    markings: List[int]
    parities: List[int]
    arcs: List[Tuple[int, int, int]]


class ExplorationSnapshot:
    """A completed :func:`explore` run, kept for replay on an edited net.

    Holds the run's packed :class:`Exploration` plus the preset/postset
    of every transition of the net it explored — enough to decide,
    against an edited net, which expansions are still valid.  Parities
    are deliberately *not* reused: a signal retype reorders
    ``stg.signals``, so parities are recomputed during replay while the
    enabledness/firing work is reused.
    """

    __slots__ = ("exploration", "preset", "postset")

    def __init__(
        self,
        exploration: Exploration,
        preset: Dict[str, FrozenSet[str]],
        postset: Dict[str, FrozenSet[str]],
    ):
        self.exploration = exploration
        self.preset = preset
        self.postset = postset

    @classmethod
    def capture(cls, stg: STG, exploration: Exploration) -> "ExplorationSnapshot":
        """Capture the result of ``explore(stg)``."""
        net = stg.net
        return cls(
            exploration,
            {t: frozenset(net.preset[t]) for t in net.transitions},
            {t: frozenset(net.postset[t]) for t in net.transitions},
        )

    def dirty_transitions(self, net: PetriNet) -> FrozenSet[str]:
        """Transitions whose preset/postset differ from the snapshot's net."""
        dirty = set()
        for transition in set(self.preset) | net.transitions:
            if transition not in self.preset or transition not in net.transitions:
                dirty.add(transition)
            elif (
                self.preset[transition] != net.preset[transition]
                or self.postset[transition] != net.postset[transition]
            ):
                dirty.add(transition)
        return frozenset(dirty)

    def expansions(
        self,
        places: Tuple[str, ...],
        transitions: Tuple[str, ...],
        dirty: FrozenSet[str],
    ) -> Dict[int, Tuple[Tuple[int, int], ...]]:
        """Cached ``(transition, successor)`` lists in another net's numbering.

        Keys and successors are markings packed over ``places``;
        transitions are indices into ``transitions``.  Markings whose
        list names a dirty transition, or that mark a place the other
        net lacks, are left out: they are never replayed.
        """
        old = self.exploration
        if old.places == places:
            translated = old.markings
        else:
            bit = {p: 1 << i for i, p in enumerate(places)}
            translated = []
            for marking in old.markings:
                packed = 0
                for i, place in enumerate(old.places):
                    if marking >> i & 1:
                        if place not in bit:
                            packed = -1
                            break
                        packed |= bit[place]
                translated.append(packed)
        index = {t: i for i, t in enumerate(transitions)}
        mapped = [None if t in dirty else index[t] for t in old.transitions]
        lists: List[Optional[List[Tuple[int, int]]]] = [[] for _ in old.markings]
        for source, transition, target in old.arcs:
            pairs = lists[source]
            if pairs is None:
                continue
            t = mapped[transition]
            if t is None or translated[target] < 0:
                lists[source] = None
            else:
                pairs.append((t, translated[target]))
        return {
            translated[k]: tuple(pairs)
            for k, pairs in enumerate(lists)
            if pairs is not None and translated[k] >= 0
        }


def explore(
    stg: STG,
    max_states: int = 200_000,
    snapshot: Optional[ExplorationSnapshot] = None,
    stats: Optional[Dict[str, int]] = None,
) -> Exploration:
    """Enumerate reachable markings with per-signal parities.

    Raises :class:`ReachabilityError` when a firing puts a second token
    on a place (naming the lowest such place in sorted order), when a
    marking is reached with two different parities, or when more than
    ``max_states`` markings are reachable.  All enabled transitions of a
    marking are fired before its successors are recorded, so an unsafe
    firing is reported before a cap or parity error at the same marking.

    ``snapshot`` (from a previous exploration of a related net) lets
    clean markings replay their cached successor lists instead of
    re-running enabledness and firing; the result is identical either
    way.  ``stats``, if given, is filled with replayed/expanded counts.
    """
    net = stg.net
    places = tuple(sorted(net.places))
    bit = {p: 1 << i for i, p in enumerate(places)}
    transitions = tuple(sorted(net.transitions))
    position = {s: i for i, s in enumerate(stg.signals)}
    table = [
        (
            t,
            sum(bit[p] for p in net.preset[transition]),
            sum(bit[p] for p in net.postset[transition]),
        )
        for t, transition in enumerate(transitions)
    ]
    flips = [1 << 8 * position[stg.event_of(t).signal] for t in transitions]

    cached: Dict[int, Tuple[Tuple[int, int], ...]] = {}
    dirty_pre: List[int] = []
    if snapshot is not None:
        dirty = snapshot.dirty_transitions(net)
        cached = snapshot.expansions(places, transitions, dirty)
        dirty_pre = [pre for t, pre, _ in table if transitions[t] in dirty]

    initial = sum(bit[p] for p in stg.initial_marking)
    index: Dict[int, int] = {initial: 0}
    markings: List[int] = [initial]
    parities: List[int] = [0]
    arcs: List[Tuple[int, int, int]] = []
    index_get = index.get
    add_arc = arcs.append
    head = 0
    replayed = 0
    expanded = 0
    while head < len(markings):
        marking = markings[head]
        parity = parities[head]
        expansion = cached.get(marking) if cached else None
        if expansion is not None and any(marking & pre == pre for pre in dirty_pre):
            expansion = None
        if expansion is None:
            fresh = []
            for t, pre, post in table:
                if marking & pre == pre:
                    rest = marking ^ pre
                    clash = rest & post
                    if clash:
                        place = places[(clash & -clash).bit_length() - 1]
                        raise ReachabilityError(
                            f"firing {transitions[t]!r} puts a second token on {place!r}"
                        )
                    fresh.append((t, rest | post))
            expansion = fresh
            expanded += 1
        else:
            replayed += 1
        for t, after in expansion:
            new_parity = parity ^ flips[t]
            target = index_get(after)
            if target is None:
                target = len(markings)
                if target >= max_states:
                    raise StateCapExceeded(f"more than {max_states} reachable markings")
                index[after] = target
                markings.append(after)
                parities.append(new_parity)
            elif parities[target] != new_parity:
                width = len(position)
                known = tuple(parities[target].to_bytes(width, "little"))
                new = tuple(new_parity.to_bytes(width, "little"))
                raise ReachabilityError(
                    f"inconsistent state assignment: marking reached with "
                    f"signal parities {known} and {new}"
                )
            add_arc((head, t, target))
        head += 1
    if snapshot is not None:
        perf.count("reach.replayed", replayed)
        perf.count("reach.expanded", expanded)
    if stats is not None:
        stats["replayed"] = replayed
        stats["expanded"] = expanded
    return Exploration(places, transitions, markings, parities, arcs)


def _infer_initial_values(stg: STG, exploration: Exploration) -> int:
    """Initial signal values from edge-enabledness constraints, packed.

    Byte ``i`` of the result is the initial value of ``stg.signals[i]``,
    as in a parity.  Every firing of a transition must happen where its
    signal has the value before the edge: the signal's parity at the
    source, xor the initial value, equals ``event.value_before``.
    """
    signals = stg.signals
    position = {s: i for i, s in enumerate(signals)}
    facts = []
    for transition in exploration.transitions:
        event = stg.event_of(transition)
        facts.append((event.signal, event.value_before, 8 * position[event.signal]))
    parities = exploration.parities
    implied: Dict[str, int] = {}
    for source, t, _ in exploration.arcs:
        signal, before, shift = facts[t]
        value = before ^ (parities[source] >> shift & 1)
        if implied.setdefault(signal, value) != value:
            raise ReachabilityError(f"signal {signal!r} has no consistent initial value")
    packed = 0
    for i, signal in enumerate(signals):
        explicit = stg.initial_values.get(signal)
        value = implied.get(signal)
        if value is None:
            value = explicit if explicit is not None else 0
        elif explicit is not None and explicit != value:
            raise ReachabilityError(
                f"declared initial value of {signal!r} ({explicit}) "
                f"contradicts the net (inferred {value})"
            )
        packed |= value << 8 * i
    return packed


@perf.timed("reachability")
def stg_to_state_graph(
    stg: STG,
    max_states: int = 200_000,
    snapshot: Optional[ExplorationSnapshot] = None,
    on_snapshot=None,
    stats: Optional[Dict[str, int]] = None,
) -> StateGraph:
    """Build the state graph of an STG (markings become states ``m0, m1, ...``).

    ``snapshot`` replays cached expansions from a previous exploration of
    a related net (see :class:`ExplorationSnapshot`); ``on_snapshot``, if
    given, receives a snapshot of *this* exploration for future replay;
    ``stats``, if given, is filled with replayed/expanded marking counts.
    """
    exploration = explore(stg, max_states=max_states, snapshot=snapshot, stats=stats)
    if on_snapshot is not None:
        on_snapshot(ExplorationSnapshot.capture(stg, exploration))
    initial = _infer_initial_values(stg, exploration)
    signals = stg.signals
    width = len(signals)
    count = len(exploration.markings)
    names = [f"m{k}" for k in range(count)]
    # a parity has one 0/1 byte per signal: its bytes are the code's bits
    codes = [
        bits_from_flags((initial ^ parity).to_bytes(width, "little"))
        for parity in exploration.parities
    ]

    # Arcs are ordered by source name, then event, then target name (as
    # strings), and two differently-named transitions with the same
    # signal edge firing between the same pair of markings make a single
    # state-graph arc.
    position = {s: i for i, s in enumerate(signals)}
    events = sorted({stg.event_of(t) for t in exploration.transitions})
    event_ids = [event_id(position[e.signal], e.direction) for e in events]
    rank = {event: r for r, event in enumerate(events)}
    ranks = [rank[stg.event_of(t)] * count for t in exploration.transitions]
    by_name = sorted(range(count), key=names.__getitem__)
    name_rank = [0] * count
    for r, k in enumerate(by_name):
        name_rank[k] = r
    # one int key per arc: source name rank, event rank, target name rank
    span = len(events) * count
    keys = sorted(
        {name_rank[s] * span + ranks[t] + name_rank[d] for s, t, d in exploration.arcs}
    )
    sources = [by_name[key // span] for key in keys]
    rest = [key % span for key in keys]
    arc_events = [event_ids[r // count] for r in rest]
    targets = [by_name[r % count] for r in rest]
    sg = StateGraph.from_packed(
        signals, stg.inputs, names, codes, sources, arc_events, targets, 0,
        name=stg.name,
    )
    sg.check()
    return sg
