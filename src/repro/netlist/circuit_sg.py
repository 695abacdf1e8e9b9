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
:class:`~repro.boolean.compiled.SignalSpace`) and every circuit state is
a single big int on the hot path.  State identifiers and arc/diagnostic
orderings are exactly those of the original per-literal dict evaluation,
which :func:`build_circuit_state_graph_reference` retains as the
executable reference semantics (differential parity tests and the
``hazard-sim`` benchmark compare the two paths).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.netlist.netlist import Netlist, NetlistPlan
from repro.sg.events import SignalEvent
from repro.sg.graph import State, StateGraph


class CompositionError(RuntimeError):
    pass


@dataclass
class Composition:
    """The result of composing a netlist with its specification."""

    sg: StateGraph
    #: composed states where an excited interface output has no spec arc
    conformance_failures: List[Tuple[State, str]] = field(default_factory=list)
    #: composed states where an RS latch sees S = R = 1
    rs_violations: List[Tuple[State, str]] = field(default_factory=list)
    truncated: bool = False
    #: BFS parent pointers: state -> (parent state, event fired)
    parents: Dict[State, Tuple[State, SignalEvent]] = field(default_factory=dict)

    def trace_to(self, state: State) -> List[SignalEvent]:
        """The event sequence from reset to ``state`` along BFS parents."""
        events: List[SignalEvent] = []
        current = state
        while current in self.parents:
            current, event = self.parents[current]
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
            raise CompositionError(
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

    Returns the circuit-level state graph over all netlist signals plus
    the conformance/RS diagnostics gathered during exploration.  The
    circuit side evaluates entirely on packed codes through the compiled
    plan; results are identical (state ids, arc order, diagnostics) to
    :func:`build_circuit_state_graph_reference`.
    """
    _check_interfaces(netlist, spec)

    plan = NetlistPlan(netlist)
    space = plan.space
    signal_order = netlist.signals
    initial_values = _settled_initial_values(netlist, spec)
    initial = (spec.initial, tuple(initial_values[s] for s in signal_order))
    spec_inputs = spec.inputs
    spec_non_inputs = spec.non_inputs
    position = space.position
    unpack_vector = space.unpack_vector

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
        packed = space.pack_vector(vector)
        successors: List[Tuple[SignalEvent, State]] = []

        # environment moves
        for event, spec_target in spec.arcs_from(spec_state):
            if event.signal not in spec_inputs:
                continue
            bit = 1 << position[event.signal]
            new_packed = (packed | bit) if event.value_after else (packed & ~bit)
            successors.append((event, (spec_target, unpack_vector(new_packed))))

        # RS input-overlap diagnostics (S = R = 1)
        for name, mask, value in plan.rs_checks:
            if packed & mask == value:
                rs_violations.append((current, name))

        # circuit moves
        for name, out_bit, evaluate in plan.items:
            current_bit = 1 if packed & out_bit else 0
            if evaluate(packed, current_bit) == current_bit:
                continue
            event = SignalEvent(name, -1 if current_bit else +1)
            new_spec_state = spec_state
            if name in spec_non_inputs:
                spec_targets = spec.fire(spec_state, event)
                if not spec_targets:
                    failures.append((current, name))
                    continue
                new_spec_state = spec_targets[0]
            successors.append(
                (event, (new_spec_state, unpack_vector(packed ^ out_bit)))
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
