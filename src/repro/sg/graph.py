"""The state graph automaton (Section II-A of the paper).

A state graph is a set of state ids, each carrying a binary code over
the signal set, and arcs labelled by signal events.  Two distinct states
*may* share a code -- that is exactly a USC/CSC situation the synthesis
procedure must detect and repair -- so codes never serve as identity.
State ids are opaque hashable values (``"m3"``, ``("m3", 1)``, ...).

Representation
--------------
The graph is dense.  States are numbered ``0 .. n-1`` in construction
order: ``state_list`` holds the ids in that order and ``state_index``
maps an id to its number.  Each state's code is one packed ``int`` with
bit ``i`` set when ``signals[i]`` is 1 (the
:meth:`~repro.boolean.compiled.SignalSpace.pack` layout the
bitmask engine reads, ``packed_codes``).  Arcs are three parallel index
arrays -- ``arc_sources``, ``arc_events`` and ``arc_targets`` -- where
event id ``2 * i + 1`` is the rising edge of ``signals[i]`` and
``2 * i`` its falling edge (``events[id]`` is the :class:`SignalEvent`).
The arrays are grouped by source in state order, each group in the
order the arcs were given, so a state's successors are one contiguous
range; a state's predecessors come in the order the arcs were given.

Everything else is a view derived on first use: tuple codes
(:meth:`StateGraph.code`), code dicts, ``(event, state)`` adjacency,
excited-signal sets.  ``states`` iterates in construction order, so no
caller can iterate a hash-ordered state set, and every producer builds
its graph in a deterministic order.

Consistency (Sec. II-A) is a per-arc rule on the packed codes: source
and target differ in exactly the event's bit, and the target holds the
value after the edge (``src ^ dst == bit``).  The class is immutable
after construction; transformation passes (state signal insertion,
projection) build new instances.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from operator import and_, xor
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    KeysView,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.sg.events import SignalEvent

State = Hashable
Arc = Tuple[State, SignalEvent, State]

_BITS = frozenset((0, 1))
#: one 0/1 byte per bit <-> the digits of a binary literal
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class InconsistentStateGraph(ValueError):
    """Raised when arcs and codes violate the consistency rules."""


def event_id(position: int, direction: int) -> int:
    """The dense id of the ``direction`` edge of signal ``position``."""
    return 2 * position + (direction == 1)


def bits_from_flags(flags: bytes) -> int:
    """The int whose bit ``k`` is ``flags[k]`` (one 0/1 byte per bit)."""
    return int(flags[::-1].translate(_TO_DIGITS), 2) if flags else 0


def flags_from_bits(word: int, width: int = 0) -> bytes:
    """``word``'s bits as 0/1 bytes, lowest first, at least ``width`` long."""
    return format(word, "b").zfill(width)[::-1].encode().translate(_FROM_DIGITS)


def pack_vector(vector: Sequence[int]) -> int:
    """A 0/1 vector (``vector[i]`` for signal ``i``) as one packed int."""
    return bits_from_flags(bytes(vector))


def unpack_code(word: int, width: int) -> Tuple[int, ...]:
    """A packed code back as its 0/1 tuple of ``width`` signals."""
    return tuple(flags_from_bits(word, width)) if width else ()


def column_bits(words: Sequence[int], position: int) -> int:
    """Bitset (bit ``k`` for ``words[k]``) of the words whose bit ``position`` is set."""
    return bits_from_flags(
        bytes(map((1).__and__, map(int.__rshift__, words, repeat(position))))
    )


class StateGraph:
    """A finite automaton with binary-coded states.

    Parameters
    ----------
    signals:
        Ordered signal names; the order fixes code-vector positions.
    inputs:
        The subset of ``signals`` controlled by the environment.
    codes:
        Mapping from state id to its code, a tuple of 0/1 of the same
        length as ``signals``.  Its iteration order is the state order.
    arcs:
        Iterable of ``(source, event, target)`` triples.  Their order,
        grouped by source, is each state's successor order, and as given
        it is each state's predecessor order.
    initial:
        The initial state id.
    name:
        Optional model name for reports and files.

    Producers that already hold packed codes and index arcs build the
    graph with :meth:`from_packed` instead.
    """

    def __init__(
        self,
        signals: Sequence[str],
        inputs: Iterable[str],
        codes: Mapping[State, Sequence[int]],
        arcs: Iterable[Arc],
        initial: State,
        name: str = "sg",
    ):
        self._set_signals(signals, inputs, name)
        width = len(self.signals)
        states: List[State] = []
        packed: List[int] = []
        for state, code in codes.items():
            vector = tuple(map(int, code))
            if len(vector) != width or not _BITS.issuperset(vector):
                raise InconsistentStateGraph(f"bad code for state {state!r}: {code!r}")
            states.append(state)
            packed.append(pack_vector(vector))
        index = dict(zip(states, range(len(states))))
        start = index.get(initial)
        if start is None:
            raise InconsistentStateGraph(f"initial state {initial!r} has no code")
        position = self._position
        sources: List[int] = []
        events: List[int] = []
        targets: List[int] = []
        for source, event, target in arcs:
            s = index.get(source)
            t = index.get(target)
            if s is None or t is None:
                raise InconsistentStateGraph(
                    f"arc ({source!r}, {event}, {target!r}) references unknown state"
                )
            i = position.get(event.signal)
            bit = 0 if i is None else 1 << i
            dst = packed[t]
            # consistent iff the codes differ in exactly the event's signal
            # and the target holds the value after the edge
            if not bit or packed[s] ^ dst != bit or (dst & bit != 0) != (event.direction == 1):
                self._arc_violation(source, event, target, packed[s], dst)
            sources.append(s)
            events.append(2 * i + (event.direction == 1))
            targets.append(t)
        self._adopt(tuple(states), index, packed, sources, events, targets, start)

    @classmethod
    def from_packed(
        cls,
        signals: Sequence[str],
        inputs: Iterable[str],
        states: Sequence[State],
        codes: Sequence[int],
        sources: Sequence[int],
        events: Sequence[int],
        targets: Sequence[int],
        initial: int = 0,
        name: str = "sg",
    ) -> "StateGraph":
        """Build a graph from its dense form, checking it as ``__init__`` does.

        ``codes[k]`` is the packed code of ``states[k]``; arc ``a`` runs
        from state ``sources[a]`` to ``targets[a]`` on event id
        ``events[a]`` (see :func:`event_id`); ``initial`` is a state
        index.  Arc order means what it means for ``__init__``.  The
        lists may be adopted as they are, so callers must not mutate
        them afterwards.
        """
        graph = cls.__new__(cls)
        graph._set_signals(signals, inputs, name)
        states = tuple(states)
        n = len(states)
        index = dict(zip(states, range(n)))
        if len(index) != n:
            raise InconsistentStateGraph("duplicate state ids")
        if len(codes) != n:
            raise InconsistentStateGraph(f"{len(codes)} codes for {n} states")
        limit = 1 << len(graph.signals)
        if codes and (min(codes) < 0 or max(codes) >= limit):
            for state, code in zip(states, codes):
                if not 0 <= code < limit:
                    raise InconsistentStateGraph(f"bad code for state {state!r}: {code!r}")
        if not 0 <= initial < n:
            raise InconsistentStateGraph(f"initial state {initial!r} has no code")
        if not len(sources) == len(events) == len(targets):
            raise InconsistentStateGraph("arc arrays differ in length")
        if sources:
            graph._check_packed_arcs(states, codes, sources, events, targets)
        graph._adopt(states, index, codes, sources, events, targets, initial)
        return graph

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _set_signals(self, signals: Sequence[str], inputs: Iterable[str], name: str) -> None:
        self.name = name
        self.signals: Tuple[str, ...] = tuple(signals)
        if len(set(self.signals)) != len(self.signals):
            raise InconsistentStateGraph("duplicate signal names")
        self.inputs: FrozenSet[str] = frozenset(inputs)
        unknown = self.inputs - set(self.signals)
        if unknown:
            raise InconsistentStateGraph(f"inputs not in signal list: {sorted(unknown)}")
        self._position: Dict[str, int] = {s: i for i, s in enumerate(self.signals)}
        #: event id -> event (``2 * i`` falls, ``2 * i + 1`` rises)
        self.events: Tuple[SignalEvent, ...] = tuple(
            SignalEvent(signal, direction)
            for signal in self.signals
            for direction in (-1, 1)
        )

    def _check_packed_arcs(self, states, codes, sources, events, targets) -> None:
        """The per-arc consistency rule over whole index arrays."""
        n = len(states)
        for array in (sources, targets):
            if min(array) < 0 or max(array) >= n:
                for s, e, t in zip(sources, events, targets):
                    if not (0 <= s < n and 0 <= t < n):
                        raise InconsistentStateGraph(
                            f"arc ({s!r}, {e!r}, {t!r}) references unknown state"
                        )
        count = len(self.events)
        if min(events) < 0 or max(events) >= count:
            bad = next(e for e in events if not 0 <= e < count)
            raise InconsistentStateGraph(f"arc event on unknown signal id {bad!r}")
        bits = [1 << (e >> 1) for e in range(count)]
        wants = [bit if e & 1 else 0 for e, bit in enumerate(bits)]
        dst = list(map(codes.__getitem__, targets))
        arc_bits = list(map(bits.__getitem__, events))
        if list(map(xor, map(codes.__getitem__, sources), dst)) == arc_bits and list(
            map(and_, dst, arc_bits)
        ) == list(map(wants.__getitem__, events)):
            return
        for s, e, t in zip(sources, events, targets):
            bit = bits[e]
            if codes[s] ^ codes[t] != bit or codes[t] & bit != wants[e]:
                self._arc_violation(states[s], self.events[e], states[t], codes[s], codes[t])

    def _adopt(self, states, index, codes, sources, events, targets, initial) -> None:
        #: stored arc indices in the order the arcs were given (the
        #: predecessor order), or None when that is the stored order
        self._arrival: Optional[List[int]] = None
        if any(map(int.__gt__, sources, sources[1:])):
            # group by source, stably: arc order within a source is kept
            order = sorted(range(len(sources)), key=sources.__getitem__)
            sources = [sources[a] for a in order]
            events = [events[a] for a in order]
            targets = [targets[a] for a in order]
            arrival = [0] * len(order)
            for stored, given in enumerate(order):
                arrival[given] = stored
            self._arrival = arrival
        #: state ids in construction order (the bitmask engine's bit order)
        self.state_list: Tuple[State, ...] = states
        #: state id -> its position in ``state_list`` (do not mutate)
        self.state_index: Dict[State, int] = index
        #: per state index, the packed code (bit ``i`` = ``signals[i]``)
        self.packed_codes: List[int] = codes
        #: per arc, source index, event id (into ``events``), target index
        self.arc_sources: List[int] = sources
        self.arc_events: List[int] = events
        self.arc_targets: List[int] = targets
        self.initial_index: int = initial
        self.initial: State = states[initial]
        #: scratch cache for derived analyses (regions, orders); safe
        #: because the graph is immutable after construction
        self._analysis_cache: Dict[Hashable, object] = {}
        # views, each derived on first use
        self._code_tuples: Dict[State, Tuple[int, ...]] = {}
        self._code_dicts: Dict[State, Dict[str, int]] = {}
        self._succ: Optional[Dict[State, Tuple[Tuple[SignalEvent, State], ...]]] = None
        self._pred: Optional[Dict[State, Tuple[Tuple[SignalEvent, State], ...]]] = None
        self._out_arcs: Optional[List[range]] = None
        self._in_arcs: Optional[List[List[int]]] = None
        self._excited_masks: Optional[List[int]] = None
        self._excited: Optional[Dict[State, FrozenSet[str]]] = None

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def _arc_violation(
        self, source: State, event: SignalEvent, target: State, src: int, dst: int
    ) -> None:
        """Name the consistent-state-assignment rule (Sec. II-A) an arc breaks.

        Only called for an arc the packed check rejected (``src`` and
        ``dst`` are its packed codes), so one of the rules below always
        fails.
        """
        i = self._position.get(event.signal)
        if i is None:
            raise InconsistentStateGraph(
                f"arc event on unknown signal {event.signal!r}"
            )
        width = len(self.signals)
        src_code, dst_code = unpack_code(src, width), unpack_code(dst, width)
        if src_code[i] != event.value_before or dst_code[i] != event.value_after:
            raise InconsistentStateGraph(
                f"arc {source!r} --{event}--> {target!r} conflicts with codes "
                f"{src_code} -> {dst_code}"
            )
        for j, (a, b) in enumerate(zip(src_code, dst_code)):
            if j != i and a != b:
                raise InconsistentStateGraph(
                    f"arc {source!r} --{event}--> {target!r} changes signal "
                    f"{self.signals[j]!r} not named by the event"
                )

    def check(self) -> None:
        """Raise :class:`InconsistentStateGraph` if some state is not
        reachable from the initial state (duplicate arcs are kept as
        given: they model non-deterministic specifications)."""
        seen = self._reachable_indices(self.initial_index)
        if len(seen) != len(self.state_list):
            unreachable = [s for k, s in enumerate(self.state_list) if k not in seen]
            raise InconsistentStateGraph(
                f"states unreachable from initial: {sorted(map(repr, unreachable))[:5]}"
            )

    # ------------------------------------------------------------------
    # The dense form (the attributes set in ``_adopt``) and its indices
    # ------------------------------------------------------------------
    def out_arcs(self) -> List[range]:
        """Per state index, the range of its outgoing arcs' indices."""
        if self._out_arcs is None:
            sources = self.arc_sources
            starts = [bisect_left(sources, k) for k in range(len(self.state_list) + 1)]
            self._out_arcs = list(map(range, starts, starts[1:]))
        return self._out_arcs

    def given_arc_order(self) -> Sequence[int]:
        """The arc indices in the order the arcs were given."""
        return self._arrival or range(len(self.arc_sources))

    def in_arcs(self) -> List[List[int]]:
        """Per state index, the indices of its incoming arcs, in the order given."""
        if self._in_arcs is None:
            incoming: List[List[int]] = [[] for _ in self.state_list]
            targets = self.arc_targets
            for a in self.given_arc_order():
                incoming[targets[a]].append(a)
            self._in_arcs = incoming
        return self._in_arcs

    def excited_masks(self) -> List[int]:
        """Per state index, the mask of signal positions with an enabled edge."""
        if self._excited_masks is None:
            masks = [0] * len(self.state_list)
            for s, e in zip(self.arc_sources, self.arc_events):
                masks[s] |= 1 << (e >> 1)
            self._excited_masks = masks
        return self._excited_masks

    def _reachable_indices(self, start: int) -> Set[int]:
        out, targets = self.out_arcs(), self.arc_targets
        seen = {start}
        frontier = [start]
        while frontier:
            for a in out[frontier.pop()]:
                t = targets[a]
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return seen

    # ------------------------------------------------------------------
    # Basic accessors (views over the dense form)
    # ------------------------------------------------------------------
    @property
    def states(self) -> KeysView:
        """The state ids, iterated in construction order.

        A set-like view: ``in``, ``len``, ``==`` and set algebra work as
        on a ``frozenset``.
        """
        return self.state_index.keys()

    @property
    def non_inputs(self) -> FrozenSet[str]:
        """Signals the circuit must produce (the paper's XO)."""
        return frozenset(self.signals) - self.inputs

    def signal_position(self, signal: str) -> int:
        return self._position[signal]

    def code(self, state: State) -> Tuple[int, ...]:
        cached = self._code_tuples.get(state)
        if cached is None:
            cached = unpack_code(self.packed_codes[self.state_index[state]], len(self.signals))
            self._code_tuples[state] = cached
        return cached

    def code_dict(self, state: State) -> Dict[str, int]:
        """The state's code as a signal->value mapping (for cube tests).

        Memoised: the graph is immutable and region analysis queries the
        same states thousands of times.  Callers must not mutate the
        returned dictionary.
        """
        cached = self._code_dicts.get(state)
        if cached is None:
            cached = dict(zip(self.signals, self.code(state)))
            self._code_dicts[state] = cached
        return cached

    def value(self, state: State, signal: str) -> int:
        return self.packed_codes[self.state_index[state]] >> self._position[signal] & 1

    def arcs(self) -> List[Arc]:
        """Every arc as a ``(source, event, target)`` triple, in arc order."""
        states, events = self.state_list, self.events
        return [
            (states[s], events[e], states[t])
            for s, e, t in zip(self.arc_sources, self.arc_events, self.arc_targets)
        ]

    def arcs_from(self, state: State) -> Tuple[Tuple[SignalEvent, State], ...]:
        if self._succ is None:
            states, events = self.state_list, self.events
            pairs = list(zip(map(events.__getitem__, self.arc_events), map(states.__getitem__, self.arc_targets)))
            self._succ = {
                state: tuple(pairs[arcs.start : arcs.stop])
                for state, arcs in zip(states, self.out_arcs())
            }
        return self._succ[state]

    def arcs_into(self, state: State) -> Tuple[Tuple[SignalEvent, State], ...]:
        if self._pred is None:
            states, events = self.state_list, self.events
            arc_events, sources = self.arc_events, self.arc_sources
            self._pred = {
                state: tuple((events[arc_events[a]], states[sources[a]]) for a in arcs)
                for state, arcs in zip(states, self.in_arcs())
            }
        return self._pred[state]

    def successors(self, state: State) -> List[State]:
        return [target for _, target in self.arcs_from(state)]

    def predecessors(self, state: State) -> List[State]:
        return [source for _, source in self.arcs_into(state)]

    def enabled_events(self, state: State) -> List[SignalEvent]:
        return [event for event, _ in self.arcs_from(state)]

    def excited_signals(self, state: State) -> FrozenSet[str]:
        """Signals with an enabled transition in ``state`` (marked * in the paper)."""
        if self._excited is None:
            signals = self.signals
            by_mask: Dict[int, FrozenSet[str]] = {}
            excited = {}
            for s, mask in zip(self.state_list, self.excited_masks()):
                names = by_mask.get(mask)
                if names is None:
                    names = by_mask[mask] = frozenset(
                        signal for i, signal in enumerate(signals) if mask >> i & 1
                    )
                excited[s] = names
            self._excited = excited
        return self._excited[state]

    def is_excited(self, state: State, signal: str) -> bool:
        return self.excited_masks()[self.state_index[state]] >> self._position[signal] & 1 == 1

    def fire(self, state: State, event: SignalEvent) -> List[State]:
        """All targets reached by firing ``event`` in ``state``."""
        return [t for e, t in self.arcs_from(state) if e == event]

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def reachable_from(self, state: State) -> Set[State]:
        states = self.state_list
        return {states[k] for k in self._reachable_indices(self.state_index[state])}

    def reaches(self, source: State, targets: Set[State]) -> bool:
        """True if some state of ``targets`` is reachable from ``source``."""
        return not targets.isdisjoint(self.reachable_from(source))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def restricted_to(self, keep: Set[State], initial: Optional[State] = None) -> "StateGraph":
        """The induced subgraph on ``keep``, in this graph's state order.

        Kept states keep their relative order; arcs come grouped by
        source in state order, each group in this graph's arc order.
        """
        initial = initial if initial is not None else self.initial
        if initial not in keep:
            raise ValueError("initial state must be in the kept set")
        renumber = [-1] * len(self.state_list)
        kept: List[int] = []
        for k, state in enumerate(self.state_list):
            if state in keep:
                renumber[k] = len(kept)
                kept.append(k)
        out, events, targets = self.out_arcs(), self.arc_events, self.arc_targets
        sources: List[int] = []
        arc_events: List[int] = []
        arc_targets: List[int] = []
        for k in kept:
            new = renumber[k]
            for a in out[k]:
                t = renumber[targets[a]]
                if t >= 0:
                    sources.append(new)
                    arc_events.append(events[a])
                    arc_targets.append(t)
        codes = self.packed_codes
        return StateGraph.from_packed(
            self.signals,
            self.inputs,
            [self.state_list[k] for k in kept],
            [codes[k] for k in kept],
            sources,
            arc_events,
            arc_targets,
            renumber[self.state_index[initial]],
            name=self.name,
        )

    def relabelled(self, mapping: Mapping[State, State]) -> "StateGraph":
        """A copy with state ids renamed through ``mapping`` (must be injective)."""
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("state relabelling must be injective")
        return StateGraph.from_packed(
            self.signals,
            self.inputs,
            [mapping.get(s, s) for s in self.state_list],
            list(self.packed_codes),
            list(self.arc_sources),
            list(self.arc_events),
            list(self.arc_targets),
            self.initial_index,
            name=self.name,
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.state_list)

    def __repr__(self) -> str:
        return (
            f"StateGraph({self.name!r}, {len(self.state_list)} states, "
            f"{len(self.arc_sources)} arcs, signals={list(self.signals)})"
        )
