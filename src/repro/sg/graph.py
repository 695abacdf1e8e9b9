"""The state graph automaton (Section II-A of the paper).

States are opaque hashable identifiers carrying a binary code over the
signal set.  Two distinct states *may* share a code -- that is exactly a
USC/CSC situation the synthesis procedure must detect and repair -- so
codes never serve as identity.

The class is immutable after construction; transformation passes (state
signal insertion, projection) build new instances.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
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


class InconsistentStateGraph(ValueError):
    """Raised when arcs and codes violate the consistency rules."""


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
        length as ``signals``.
    arcs:
        Iterable of ``(source, event, target)`` triples.
    initial:
        The initial state id.
    name:
        Optional model name for reports and files.
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
        self.name = name
        self.signals: Tuple[str, ...] = tuple(signals)
        if len(set(self.signals)) != len(self.signals):
            raise InconsistentStateGraph("duplicate signal names")
        self.inputs: FrozenSet[str] = frozenset(inputs)
        unknown = self.inputs - set(self.signals)
        if unknown:
            raise InconsistentStateGraph(f"inputs not in signal list: {sorted(unknown)}")
        self._index: Dict[str, int] = {s: i for i, s in enumerate(self.signals)}
        self._codes: Dict[State, Tuple[int, ...]] = {}
        # each code packed once, one byte per signal, for the arc check
        packed: Dict[State, int] = {}
        width = len(self.signals)
        for state, code in codes.items():
            vector = tuple(map(int, code))
            if len(vector) != width or not _BITS.issuperset(vector):
                raise InconsistentStateGraph(f"bad code for state {state!r}: {code!r}")
            self._codes[state] = vector
            packed[state] = int.from_bytes(bytes(vector), "little")
        if initial not in self._codes:
            raise InconsistentStateGraph(f"initial state {initial!r} has no code")
        self.initial: State = initial
        self._code_dicts: Dict[State, Dict[str, int]] = {}
        #: scratch cache for derived analyses (regions, orders); safe
        #: because the graph is immutable after construction
        self._analysis_cache: Dict[Hashable, object] = {}

        successors: Dict[State, List[Tuple[SignalEvent, State]]] = {
            s: [] for s in self._codes
        }
        predecessors: Dict[State, List[Tuple[SignalEvent, State]]] = {
            s: [] for s in self._codes
        }
        bits = {s: 1 << 8 * i for i, s in enumerate(self.signals)}
        for source, event, target in arcs:
            src = packed.get(source)
            dst = packed.get(target)
            if src is None or dst is None:
                raise InconsistentStateGraph(
                    f"arc ({source!r}, {event}, {target!r}) references unknown state"
                )
            # consistent iff the codes differ in exactly the event's signal
            # and the target holds the value after the edge
            bit = bits.get(event.signal)
            if bit is None or src ^ dst != bit or (dst & bit != 0) != (event.direction == 1):
                self._arc_violation(source, event, target)
            successors[source].append((event, target))
            predecessors[target].append((event, source))
        # The graph is immutable from here on, so the adjacency and the
        # derived views are frozen once instead of being rebuilt on every
        # access inside region-analysis loops.
        self._succ: Dict[State, Tuple[Tuple[SignalEvent, State], ...]] = {
            s: tuple(pairs) for s, pairs in successors.items()
        }
        self._pred: Dict[State, Tuple[Tuple[SignalEvent, State], ...]] = {
            s: tuple(pairs) for s, pairs in predecessors.items()
        }
        self._states_view: FrozenSet[State] = frozenset(self._codes)
        self._state_list: Tuple[State, ...] = tuple(self._codes)
        self._excited: Dict[State, FrozenSet[str]] = {
            s: frozenset(event.signal for event, _ in pairs)
            for s, pairs in self._succ.items()
        }

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def _arc_violation(self, source: State, event: SignalEvent, target: State) -> None:
        """Name the consistent-state-assignment rule (Sec. II-A) an arc breaks.

        Only called for an arc the packed check in ``__init__`` rejected,
        so one of the rules below always fails.
        """
        i = self._index.get(event.signal)
        if i is None:
            raise InconsistentStateGraph(
                f"arc event on unknown signal {event.signal!r}"
            )
        src, dst = self._codes[source], self._codes[target]
        if src[i] != event.value_before or dst[i] != event.value_after:
            raise InconsistentStateGraph(
                f"arc {source!r} --{event}--> {target!r} conflicts with codes "
                f"{src} -> {dst}"
            )
        for j, (a, b) in enumerate(zip(src, dst)):
            if j != i and a != b:
                raise InconsistentStateGraph(
                    f"arc {source!r} --{event}--> {target!r} changes signal "
                    f"{self.signals[j]!r} not named by the event"
                )

    def check(self) -> None:
        """Validate global well-formedness beyond per-arc consistency.

        Raises :class:`InconsistentStateGraph` if some state is not
        reachable from the initial state, or if a state enables the same
        event towards two different targets while also enabling it as a
        self-consistent duplicate (pure duplicates are collapsed at
        construction time by list semantics and are allowed -- they model
        non-deterministic specifications).
        """
        unreachable = set(self._codes) - self.reachable_from(self.initial)
        if unreachable:
            raise InconsistentStateGraph(
                f"states unreachable from initial: {sorted(map(repr, unreachable))[:5]}"
            )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def states(self) -> FrozenSet[State]:
        return self._states_view

    @property
    def state_list(self) -> Tuple[State, ...]:
        """States in construction order (the bitmask engine's bit order)."""
        return self._state_list

    @property
    def non_inputs(self) -> FrozenSet[str]:
        """Signals the circuit must produce (the paper's XO)."""
        return frozenset(self.signals) - self.inputs

    def signal_position(self, signal: str) -> int:
        return self._index[signal]

    def code(self, state: State) -> Tuple[int, ...]:
        return self._codes[state]

    def code_dict(self, state: State) -> Dict[str, int]:
        """The state's code as a signal->value mapping (for cube tests).

        Memoised: the graph is immutable and region analysis queries the
        same states thousands of times.  Callers must not mutate the
        returned dictionary.
        """
        cached = self._code_dicts.get(state)
        if cached is None:
            cached = dict(zip(self.signals, self._codes[state]))
            self._code_dicts[state] = cached
        return cached

    def value(self, state: State, signal: str) -> int:
        return self._codes[state][self._index[signal]]

    def arcs(self) -> List[Arc]:
        return [
            (source, event, target)
            for source, out in self._succ.items()
            for event, target in out
        ]

    def arcs_from(self, state: State) -> Tuple[Tuple[SignalEvent, State], ...]:
        return self._succ[state]

    def arcs_into(self, state: State) -> Tuple[Tuple[SignalEvent, State], ...]:
        return self._pred[state]

    def successors(self, state: State) -> List[State]:
        return [target for _, target in self._succ[state]]

    def predecessors(self, state: State) -> List[State]:
        return [source for _, source in self._pred[state]]

    def enabled_events(self, state: State) -> List[SignalEvent]:
        return [event for event, _ in self._succ[state]]

    def excited_signals(self, state: State) -> FrozenSet[str]:
        """Signals with an enabled transition in ``state`` (marked * in the paper)."""
        return self._excited[state]

    def is_excited(self, state: State, signal: str) -> bool:
        return signal in self._excited[state]

    def fire(self, state: State, event: SignalEvent) -> List[State]:
        """All targets reached by firing ``event`` in ``state``."""
        return [t for e, t in self._succ[state] if e == event]

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def reachable_from(self, state: State) -> Set[State]:
        seen = {state}
        frontier = [state]
        while frontier:
            current = frontier.pop()
            for _, target in self._succ[current]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    def reaches(self, source: State, targets: Set[State]) -> bool:
        """True if some state of ``targets`` is reachable from ``source``."""
        if source in targets:
            return True
        seen = {source}
        frontier = [source]
        while frontier:
            current = frontier.pop()
            for _, nxt in self._succ[current]:
                if nxt in targets:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def restricted_to(self, keep: Set[State], initial: Optional[State] = None) -> "StateGraph":
        """The induced subgraph on ``keep`` (used for region analysis)."""
        initial = initial if initial is not None else self.initial
        if initial not in keep:
            raise ValueError("initial state must be in the kept set")
        return StateGraph(
            self.signals,
            self.inputs,
            {s: self._codes[s] for s in keep},
            [
                (s, e, t)
                for s in keep
                for e, t in self._succ[s]
                if t in keep
            ],
            initial,
            name=self.name,
        )

    def relabelled(self, mapping: Mapping[State, State]) -> "StateGraph":
        """A copy with state ids renamed through ``mapping`` (must be injective)."""
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("state relabelling must be injective")
        rename = lambda s: mapping.get(s, s)
        return StateGraph(
            self.signals,
            self.inputs,
            {rename(s): c for s, c in self._codes.items()},
            [(rename(s), e, rename(t)) for s, e, t in self.arcs()],
            rename(self.initial),
            name=self.name,
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._codes)

    def __repr__(self) -> str:
        return (
            f"StateGraph({self.name!r}, {len(self._codes)} states, "
            f"{sum(len(v) for v in self._succ.values())} arcs, "
            f"signals={list(self.signals)})"
        )
