"""Per-graph bitmask analysis engine: O(1) cube/state evaluation.

Every analysis primitive the synthesis pipeline runs in its exponential
candidate loops bottoms out in two questions: *does this cube cover this
state* and *which states satisfy this literal set*.  Answering them with
dictionaries costs O(L) hash lookups per state and O(V.L) per candidate
cube; this engine packs each state's code into a single int and
maintains, per ``StateGraph``, bitsets over the state set so that

* ``cube covers state`` is one AND plus one compare on the packed code
  (via the shared compiled IR, :mod:`repro.boolean.compiled`),
* ``states covered by cube`` is L big-int ANDs of per-literal state
  bitsets -- V/word words each -- instead of a V.L Python loop,
* region-level conditions (covers all of ER, covers nothing outside the
  CFR, no 0->1 change edge inside the CFR) are one or two big-int
  operations against cached region bitsets.

The engine is built lazily, once per graph, and cached in
``sg._analysis_cache`` (the graph is immutable after construction).  It
takes the graph's dense form as it is: bitsets index states by their
position in ``sg.state_list`` (``sg.state_index``), the packed codes are
``sg.packed_codes`` (bit ``i`` = signal ``i``, the
:class:`~repro.boolean.compiled.SignalSpace` layout), and the arc tables
come straight from the graph's index arrays.  The engine interns one
``SignalSpace`` per graph ordering and compiles cubes through it, so
boolean/, netlist/ and the pipeline all agree on what a packed code
means.
"""

from __future__ import annotations

from itertools import compress
from typing import Collection, Dict, FrozenSet, List, Optional, Tuple

from repro import perf
from repro.boolean.compiled import SignalSpace
from repro.boolean.cube import Cube
from repro.sg.graph import (
    State,
    StateGraph,
    bits_from_flags,
    column_bits,
    flags_from_bits,
)


class BitEngine:
    """Packed codes and state bitsets for one (immutable) state graph."""

    __slots__ = (
        "sg",
        "space",
        "signals",
        "position",
        "states",
        "index",
        "packed_list",
        "all_states_bits",
        "_ones_bits",
        "_succ_bits",
        "_pred_bits",
        "_adj_bits",
        "_excited_bits",
        "cube_evals",
        "edge_checks",
    )

    def __init__(self, sg: StateGraph):
        self.sg = sg
        #: the interned signal space shared with the compiled-IR layer
        self.space: SignalSpace = SignalSpace.of(sg.signals)
        self.signals: Tuple[str, ...] = self.space.signals
        self.position: Dict[str, int] = self.space.position
        self.states: Tuple[State, ...] = sg.state_list
        self.index: Dict[State, int] = sg.state_index
        self.packed_list: List[int] = sg.packed_codes
        self.all_states_bits: int = (1 << len(self.states)) - 1
        #: per signal position, bitset of states where the signal is 1
        self._ones_bits: List[Optional[int]] = [None] * len(self.signals)
        self._succ_bits: Optional[List[int]] = None
        self._pred_bits: Optional[List[int]] = None
        self._adj_bits: Optional[List[int]] = None
        #: signal -> bitset of states where the signal is excited
        self._excited_bits: Dict[str, int] = {}
        #: running counts of primitive operations (always on; reading an
        #: int attribute is cheaper than any conditional instrumentation)
        self.cube_evals: int = 0
        self.edge_checks: int = 0

    # ------------------------------------------------------------------
    # State-set <-> bitset conversions
    # ------------------------------------------------------------------
    def bits_of(self, states: Collection[State]) -> int:
        """Bitset of a collection of states.

        Small sets OR their bits directly; larger ones set one flag byte
        per member and convert the flags in one C-level pass.
        """
        index = self.index
        if len(states) <= 32:
            bits = 0
            for state in states:
                bits |= 1 << index[state]
            return bits
        flags = bytearray(len(self.states))
        for position in map(index.__getitem__, states):
            flags[position] = 1
        return bits_from_flags(flags)

    def states_of(self, bits: int) -> FrozenSet[State]:
        """The states named by a bitset.

        Bitsets denser than one state in 50 decode through one flag byte
        per state and ``compress`` (C-level per state); sparser ones walk
        their set bits directly.
        """
        digits = bin(bits)  # popcount via str.count: C-level, 3.9-safe
        if digits.count("1") * 50 >= len(digits):
            return frozenset(compress(self.states, flags_from_bits(bits)))
        states = self.states
        result = []
        while bits:
            low = bits & -bits
            result.append(states[low.bit_length() - 1])
            bits ^= low
        return frozenset(result)

    # ------------------------------------------------------------------
    # Literal and cube bitsets
    # ------------------------------------------------------------------
    def literal_bits(self, position: int, value: int) -> int:
        """Bitset of states whose code has ``value`` at signal ``position``.

        The 1-set is computed once per position; the 0-set is one XOR
        against the full state set.
        """
        ones = self._ones_bits[position]
        if ones is None:
            ones = self._ones_bits[position] = column_bits(self.packed_list, position)
        return ones if value else self.all_states_bits ^ ones

    def cube_bits(self, cube: Cube) -> int:
        """Bitset of all states covered by ``cube``."""
        self.cube_evals += 1
        # hottest counter in the pipeline: the recorder check must stay a
        # plain attribute compare, not a function call
        if perf._recorder is not None:
            perf._recorder.increment("cube.evaluations")
        compiled = cube.compiled(self.space)
        bits = self.all_states_bits
        mask, value = compiled.mask, compiled.value
        while mask:
            low = mask & -mask
            mask ^= low
            bits &= self.literal_bits(low.bit_length() - 1, value & low)
            if not bits:
                break
        return bits

    def covers_state(self, cube: Cube, state: State) -> bool:
        """O(1) covering test: packed code AND mask vs value."""
        self.cube_evals += 1
        if perf._recorder is not None:
            perf._recorder.increment("cube.evaluations")
        return cube.compiled(self.space).covers_packed(
            self.packed_list[self.index[state]]
        )

    # ------------------------------------------------------------------
    # Arc structure
    # ------------------------------------------------------------------
    def _build_arc_tables(self) -> None:
        """Fill the successor/predecessor/adjacency tables in one arc pass."""
        sg = self.sg
        n = len(self.states)
        succ = [0] * n
        pred = [0] * n
        for s, t in zip(sg.arc_sources, sg.arc_targets):
            succ[s] |= 1 << t
            pred[t] |= 1 << s
        self._succ_bits = succ
        self._pred_bits = pred
        self._adj_bits = [s | p for s, p in zip(succ, pred)]

    @property
    def succ_bits(self) -> List[int]:
        """Per state index, the bitset of its direct successors."""
        if self._succ_bits is None:
            self._build_arc_tables()
        return self._succ_bits

    @property
    def pred_bits(self) -> List[int]:
        """Per state index, the bitset of its direct predecessors."""
        if self._pred_bits is None:
            self._build_arc_tables()
        return self._pred_bits

    @property
    def adj_bits(self) -> List[int]:
        """Per state index, successors OR predecessors (weak adjacency)."""
        if self._adj_bits is None:
            self._build_arc_tables()
        return self._adj_bits

    def excited_bits(self, signal: str) -> int:
        """Bitset of states where ``signal`` has an enabled transition.

        Built for every signal on first use, one C-level column pass per
        signal over the graph's per-state excited masks.
        """
        table = self._excited_bits
        if not table:
            masks = self.sg.excited_masks()
            for position, name in enumerate(self.signals):
                table[name] = column_bits(masks, position)
        return table[signal]

    def weak_components(self, subset: int) -> List[int]:
        """Weakly connected components of the subgraph induced on a bitset.

        Each component comes back as a bitset; total work is one big-int
        OR per member state instead of per-arc Python set operations.
        """
        adjacency = self.adj_bits
        remaining = subset
        components: List[int] = []
        while remaining:
            seed = remaining & -remaining
            component = seed
            remaining ^= seed
            frontier = seed
            while frontier:
                reached = 0
                while frontier:
                    low = frontier & -frontier
                    reached |= adjacency[low.bit_length() - 1]
                    frontier ^= low
                grown = reached & remaining
                component |= grown
                remaining &= ~grown
                frontier = grown
            components.append(component)
        return components

    def first_rise_edge(
        self, region_bits: int, ones: int
    ) -> Optional[Tuple[State, State]]:
        """First arc inside ``region_bits`` from a 0-state to a 1-state.

        ``ones`` is the bitset where the candidate function is 1; a
        0 -> 1 edge inside the region is exactly a Definition-17(2)
        monotonicity violation (see ``covers._monotonicity_violation``).
        Returns a ``(source, target)`` witness or ``None``.
        """
        self.edge_checks += 1
        succ = self.succ_bits
        states = self.states
        zeros = region_bits & ~ones
        ones_inside = region_bits & ones
        while zeros:
            low = zeros & -zeros
            i = low.bit_length() - 1
            rising = succ[i] & ones_inside
            if rising:
                return (states[i], states[rising.bit_length() - 1])
            zeros ^= low
        return None

    def has_rise_edge(self, region_bits: int, ones: int) -> bool:
        """Existence-only form of :meth:`first_rise_edge`."""
        self.edge_checks += 1
        succ = self.succ_bits
        zeros = region_bits & ~ones
        ones_inside = region_bits & ones
        while zeros:
            low = zeros & -zeros
            if succ[low.bit_length() - 1] & ones_inside:
                return True
            zeros ^= low
        return False

    # ------------------------------------------------------------------
    # Cached region bitsets
    # ------------------------------------------------------------------
    def region_bits(self, key, states: FrozenSet[State]) -> int:
        """Bitset of a (hashable) region, memoised in the graph cache."""
        cache = self.sg._analysis_cache
        cached = cache.get(("bits", key))
        if cached is None:
            cached = self.bits_of(states)
            cache[("bits", key)] = cached
        return cached


def bit_analysis(sg: StateGraph) -> BitEngine:
    """The graph's bitmask engine, built on first use and cached."""
    engine = sg._analysis_cache.get("bitengine")
    if engine is None:
        engine = BitEngine(sg)
        sg._analysis_cache["bitengine"] = engine
    return engine
