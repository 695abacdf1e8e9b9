"""Composition of a netlist with its specification environment.

The specification state graph is used as a *mirror* (the environment):
it fires input transitions exactly when the specification allows them
and observes the circuit's interface outputs.  Every gate output of the
netlist -- AND, OR, latch, wire -- is a first-class signal of the
composed **circuit-level state graph**, which is precisely the object
the paper's correctness notion speaks about: the implementation is
hazard-free under the pure unbounded gate delay model iff this graph is
output semi-modular by all gate signals (Sec. III).

Composition rules, from a composed state ``(spec_state, values)``:

* an **input** transition enabled in ``spec_state`` may fire: the input
  bit flips and the spec advances;
* a **gate** whose next-state function disagrees with its current output
  is excited and may fire; if the gate drives an interface output, the
  spec must advance over that edge -- if the spec has no such arc the
  circuit violates the specification (a *conformance failure*, recorded
  and not expanded further).

The exploration runs on the compiled IR: the netlist is compiled once
into a :class:`~repro.netlist.netlist.NetlistPlan` (one packed-code
closure per gate over the interned
:class:`~repro.boolean.compiled.SignalSpace`), each spec state's input
moves and output-fire table are tabulated once, and every circuit state
is keyed by ``(spec_state, packed int)``.  The result is a
:class:`PackedExploration`: dense state indices in BFS order, arcs as
parallel index lists, and one excited-signal mask per state -- all the
hazard check (:mod:`repro.netlist.hazards`) reads.  A state becomes its
public id ``(spec_state, value tuple)`` only when a diagnostic names it
or a caller asks for a derived view: :attr:`Composition.sg` (the
circuit-level :class:`~repro.sg.graph.StateGraph`) and
:attr:`Composition.parents` are built on first access.  State ids, arc
order, BFS parents and diagnostic order are exactly those of the
original per-literal dict evaluation, which
:func:`build_circuit_state_graph_reference` retains as the executable
reference semantics (differential parity tests and the ``hazard-sim``
benchmark compare the two paths).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.netlist.netlist import Netlist, NetlistPlan
from repro.sg.events import SignalEvent
from repro.sg.graph import State, StateGraph, unpack_code


class CompositionError(RuntimeError):
    pass


class InitialStateMismatch(CompositionError):
    """The netlist fits the specification's signals, but its reset state
    settles an interface output away from the specification's initial
    value: the circuit itself does not conform (e.g. a stuck-at fault)."""


class PackedExploration:
    """The composed state space on dense indices (BFS discovery order).

    State ``i`` is ``(spec_states[i], codes[i])`` with ``codes[i]`` the
    packed signal vector (bit ``j`` is ``signals[j]``).  Arc ``k`` runs
    from ``arc_src[k]`` to ``arc_dst[k]`` firing ``arc_event[k]`` on
    signal position ``arc_pos[k]``; arcs are grouped by source in index
    order, each source's in firing order.  ``excited[i]`` has bit ``j``
    set iff state ``i`` has an arc on ``signals[j]``.
    """

    __slots__ = (
        "signals",
        "inputs",
        "name",
        "space",
        "spec_states",
        "codes",
        "parent",
        "parent_event",
        "arc_src",
        "arc_event",
        "arc_dst",
        "arc_pos",
        "excited",
        "_ids",
    )

    def __init__(self, netlist: Netlist, spec: StateGraph, space) -> None:
        self.signals = netlist.signals
        self.inputs = netlist.inputs
        self.name = f"{netlist.name}|{spec.name}"
        self.space = space
        self.spec_states: List[State] = []
        self.codes: List[int] = []
        #: BFS parent index per state (-1 for the initial state)
        self.parent: List[int] = []
        self.parent_event: List[Optional[SignalEvent]] = []
        self.arc_src: List[int] = []
        self.arc_event: List[SignalEvent] = []
        self.arc_dst: List[int] = []
        self.arc_pos: List[int] = []
        self.excited: List[int] = []
        self._ids: Optional[List[State]] = None

    def __len__(self) -> int:
        return len(self.codes)

    def state_id(self, index: int) -> State:
        """The public id ``(spec_state, value tuple)`` of state ``index``."""
        return (self.spec_states[index], unpack_code(self.codes[index], self.space.width))

    def state_ids(self) -> List[State]:
        """Every public state id in index order (computed once)."""
        if self._ids is None:
            width = self.space.width
            self._ids = [
                (spec_state, unpack_code(code, width))
                for spec_state, code in zip(self.spec_states, self.codes)
            ]
        return self._ids

    def state_graph(self) -> StateGraph:
        """The circuit-level graph, built from the dense form as it is."""
        events = [
            2 * position + (event.direction == 1)
            for position, event in zip(self.arc_pos, self.arc_event)
        ]
        return StateGraph.from_packed(
            self.signals,
            self.inputs,
            self.state_ids(),
            self.codes,
            self.arc_src,
            events,
            self.arc_dst,
            0,
            name=self.name,
        )

    def parent_map(self) -> Dict[State, Tuple[State, SignalEvent]]:
        ids = self.state_ids()
        return {
            ids[child]: (ids[parent], event)
            for child, (parent, event) in enumerate(
                zip(self.parent, self.parent_event)
            )
            if parent >= 0
        }


class Composition:
    """The result of composing a netlist with its specification.

    :attr:`sg` (the circuit-level state graph) and :attr:`parents` (BFS
    parent pointers: state -> (parent state, event fired)) are given
    eagerly by the reference path and derived on first access from
    :attr:`packed` otherwise.
    """

    def __init__(
        self,
        *,
        conformance_failures: List[Tuple[State, str]],
        rs_violations: List[Tuple[State, str]],
        truncated: bool,
        sg: Optional[StateGraph] = None,
        parents: Optional[Dict[State, Tuple[State, SignalEvent]]] = None,
        packed: Optional[PackedExploration] = None,
    ) -> None:
        #: composed states where an excited interface output has no spec arc
        self.conformance_failures = conformance_failures
        #: composed states where an RS latch sees S = R = 1
        self.rs_violations = rs_violations
        self.truncated = truncated
        #: the packed state space (``None`` for the reference composition)
        self.packed = packed
        self._sg = sg
        self._parents = parents

    @property
    def states(self) -> int:
        """Number of composed states explored."""
        return len(self.packed) if self.packed is not None else len(self._sg)

    @property
    def sg(self) -> StateGraph:
        if self._sg is None:
            self._sg = self.packed.state_graph()
        return self._sg

    @property
    def parents(self) -> Dict[State, Tuple[State, SignalEvent]]:
        if self._parents is None:
            self._parents = self.packed.parent_map()
        return self._parents

    def trace_to(self, state: State) -> List[SignalEvent]:
        """The event sequence from reset to ``state`` along BFS parents."""
        events: List[SignalEvent] = []
        current = state
        parents = self.parents
        while current in parents:
            current, event = parents[current]
            events.append(event)
        events.reverse()
        return events


def _settled_initial_values(netlist: Netlist, spec: StateGraph) -> Dict[str, int]:
    values: Dict[str, int] = {}
    initial_code = spec.code_dict(spec.initial)
    for signal in netlist.inputs:
        values[signal] = initial_code[signal]
    for name in sorted(netlist.state_holding_signals()):
        if name in initial_code:
            values[name] = initial_code[name]
        elif name in netlist.initial_hints:
            source, polarity = netlist.initial_hints[name]
            if source not in initial_code:
                raise CompositionError(
                    f"initial hint for {name!r} references unknown {source!r}"
                )
            values[name] = (
                initial_code[source] if polarity else 1 - initial_code[source]
            )
        else:
            raise CompositionError(
                f"state-holding gate {name!r} has no initial value in the "
                f"specification and no initial hint"
            )
    values = netlist.settle(values)
    for signal in netlist.interface_outputs:
        if values[signal] != initial_code[signal]:
            raise InitialStateMismatch(
                f"interface output {signal!r} settles to {values[signal]} "
                f"but the specification starts at {initial_code[signal]}"
            )
    return values


def _check_interfaces(netlist: Netlist, spec: StateGraph) -> None:
    missing = set(spec.inputs) - set(netlist.inputs)
    if missing:
        raise CompositionError(f"netlist lacks specification inputs {sorted(missing)}")
    for signal in spec.non_inputs:
        if signal not in netlist.gates:
            raise CompositionError(f"netlist does not drive output {signal!r}")


def build_circuit_state_graph(
    netlist: Netlist,
    spec: StateGraph,
    max_states: int = 500_000,
) -> Composition:
    """Explore the closed loop of circuit and environment.

    Returns the composition over all netlist signals: the packed state
    space plus the conformance/RS diagnostics gathered during
    exploration.  The circuit side evaluates entirely on packed codes
    through the compiled plan; results are identical (state ids, arc
    order, parents, diagnostics) to
    :func:`build_circuit_state_graph_reference`.
    """
    _check_interfaces(netlist, spec)

    plan = NetlistPlan(netlist)
    space = plan.space
    initial_values = _settled_initial_values(netlist, spec)
    initial_code = space.pack_vector(tuple(initial_values[s] for s in netlist.signals))
    position = space.position
    spec_inputs = spec.inputs
    spec_non_inputs = spec.non_inputs
    rs_checks = plan.rs_checks

    # per gate: the two events it can fire and, for an interface output,
    # its output-fire table keys (position * 2 + value after)
    gates = []
    for name, out_bit, evaluate in plan.items:
        pos = position[name]
        observed = name in spec_non_inputs
        gates.append(
            (
                name,
                out_bit,
                evaluate,
                pos,
                (SignalEvent(name, +1), SignalEvent(name, -1)),
                (2 * pos + 1, 2 * pos) if observed else None,
            )
        )

    # per spec state: its input moves and its output-fire table
    spec_tables: Dict[State, Tuple[list, Dict[int, State]]] = {}

    def tabulate(spec_state: State) -> Tuple[list, Dict[int, State]]:
        moves = []
        fires: Dict[int, State] = {}
        for event, target in spec.arcs_from(spec_state):
            if event.signal in spec_inputs:
                pos = position[event.signal]
                moves.append((event, target, 1 << pos, event.value_after, pos))
            elif event.signal in spec_non_inputs:
                fires.setdefault(2 * position[event.signal] + event.value_after, target)
        spec_tables[spec_state] = table = (moves, fires)
        return table

    packed = PackedExploration(netlist, spec, space)
    spec_states = packed.spec_states
    codes = packed.codes
    parent = packed.parent
    parent_event = packed.parent_event
    arc_src = packed.arc_src
    arc_event = packed.arc_event
    arc_dst = packed.arc_dst
    arc_pos = packed.arc_pos
    excited = packed.excited
    failures: List[Tuple[int, str]] = []
    rs_hits: List[Tuple[int, str]] = []
    index: Dict[Tuple[State, int], int] = {(spec.initial, initial_code): 0}
    spec_states.append(spec.initial)
    codes.append(initial_code)
    parent.append(-1)
    parent_event.append(None)
    truncated = False
    missing = object()
    current = 0

    while current < len(codes):
        spec_state = spec_states[current]
        code = codes[current]
        moves, fires = spec_tables.get(spec_state) or tabulate(spec_state)
        successors: List[Tuple[SignalEvent, State, int, int]] = []

        # environment moves
        for event, target, bit, value_after, pos in moves:
            successors.append(
                (event, target, (code | bit) if value_after else (code & ~bit), pos)
            )

        # RS input-overlap diagnostics (S = R = 1)
        for name, mask, value in rs_checks:
            if code & mask == value:
                rs_hits.append((current, name))

        # circuit moves
        for name, out_bit, evaluate, pos, events, keys in gates:
            current_bit = 1 if code & out_bit else 0
            if evaluate(code, current_bit) == current_bit:
                continue
            target = spec_state
            if keys is not None:
                target = fires.get(keys[current_bit], missing)
                if target is missing:
                    failures.append((current, name))
                    continue
            successors.append((events[current_bit], target, code ^ out_bit, pos))

        mask = 0
        for event, target_spec, target_code, pos in successors:
            key = (target_spec, target_code)
            target = index.get(key)
            if target is None:
                if len(codes) >= max_states:
                    truncated = True
                    continue
                target = index[key] = len(codes)
                spec_states.append(target_spec)
                codes.append(target_code)
                parent.append(current)
                parent_event.append(event)
            arc_src.append(current)
            arc_event.append(event)
            arc_dst.append(target)
            arc_pos.append(pos)
            mask |= 1 << pos
        excited.append(mask)
        current += 1

    state_id = packed.state_id
    return Composition(
        conformance_failures=[(state_id(i), name) for i, name in failures],
        rs_violations=[(state_id(i), name) for i, name in rs_hits],
        truncated=truncated,
        packed=packed,
    )


def build_circuit_state_graph_reference(
    netlist: Netlist,
    spec: StateGraph,
    max_states: int = 500_000,
) -> Composition:
    """The original per-literal dict evaluation of the composition.

    Retained as the executable reference semantics for
    :func:`build_circuit_state_graph`: every gate is evaluated through
    :meth:`~repro.netlist.gates.Gate.next_value` over a ``{signal:
    value}`` dict.  The differential parity tests and the ``hazard-sim``
    benchmark section run both paths and require identical compositions.
    """
    _check_interfaces(netlist, spec)

    signal_order = netlist.signals
    initial_values = _settled_initial_values(netlist, spec)
    initial = (spec.initial, tuple(initial_values[s] for s in signal_order))

    def as_dict(vector: Tuple[int, ...]) -> Dict[str, int]:
        return dict(zip(signal_order, vector))

    codes: Dict[State, Tuple[int, ...]] = {initial: initial[1]}
    arcs: List[Tuple[State, SignalEvent, State]] = []
    failures: List[Tuple[State, str]] = []
    rs_violations: List[Tuple[State, str]] = []
    parents: Dict[State, Tuple[State, SignalEvent]] = {}
    queue: List[State] = [initial]
    seen: Set[State] = {initial}
    truncated = False
    head = 0

    while head < len(queue):
        current = queue[head]
        head += 1
        spec_state, vector = current
        values = as_dict(vector)
        successors: List[Tuple[SignalEvent, State]] = []

        # environment moves
        for event, spec_target in spec.arcs_from(spec_state):
            if event.signal not in spec.inputs:
                continue
            new_values = dict(values)
            new_values[event.signal] = event.value_after
            successors.append(
                (event, (spec_target, tuple(new_values[s] for s in signal_order)))
            )

        # circuit moves
        for name, gate in netlist.gates.items():
            if gate.rs_illegal(values):
                rs_violations.append((current, name))
            next_value = gate.next_value(values, values[name])
            if next_value == values[name]:
                continue
            event = SignalEvent(name, +1 if next_value == 1 else -1)
            new_spec_state = spec_state
            if name in spec.non_inputs:
                spec_targets = spec.fire(spec_state, event)
                if not spec_targets:
                    failures.append((current, name))
                    continue
                new_spec_state = spec_targets[0]
            new_values = dict(values)
            new_values[name] = next_value
            successors.append(
                (event, (new_spec_state, tuple(new_values[s] for s in signal_order)))
            )

        for event, target in successors:
            if target not in seen:
                if len(seen) >= max_states:
                    truncated = True
                    continue
                seen.add(target)
                codes[target] = target[1]
                parents[target] = (current, event)
                queue.append(target)
            if target in seen:
                arcs.append((current, event, target))

    sg = StateGraph(
        signal_order,
        netlist.inputs,
        codes,
        arcs,
        initial,
        name=f"{netlist.name}|{spec.name}",
    )
    return Composition(
        sg=sg,
        conformance_failures=failures,
        rs_violations=rs_violations,
        truncated=truncated,
        parents=parents,
    )
