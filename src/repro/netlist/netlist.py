"""Netlists and construction from a synthesised implementation.

The standard structure (Fig. 2) instantiates, per non-input signal ``a``:

* one AND gate per cube of ``Sa`` and of ``Ra`` (cubes with a single
  literal need no AND gate -- the literal wires straight through),
* one OR gate per excitation function with two or more product terms,
* a Muller C-element ``a = C(Sa, Ra')`` (standard C-implementation) or
  an RS latch ``a = RS(Sa, Ra)`` (standard RS-implementation).

Gate sharing (Sec. VI) falls out naturally: identical cubes map to one
AND gate instance which may feed several OR gates.

A network that degenerates to a wire (``Sa = x``, ``Ra = x'``) becomes a
BUF/NOT gate, reproducing the paper's ``d = x`` in equations (2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.boolean.compiled import SignalSpace
from repro.boolean.cube import Cube
from repro.core.synthesis import Implementation
from repro.netlist.gates import Gate, GateKind, PackedEvaluator


class NetlistError(ValueError):
    pass


class NetlistPlan:
    """Compiled evaluation plan: every gate as a packed-code closure.

    Built once per analysis (BFS composition, discrete-event run) against
    the netlist's interned :class:`SignalSpace`; the per-gate closures
    come from :meth:`repro.netlist.gates.Gate.compiled_evaluator`, so the
    whole circuit evaluates on packed ints with no per-literal dict
    lookups.  ``items`` preserves the netlist's gate insertion order --
    composition traversal order (and therefore every serialized artifact)
    depends on it.
    """

    __slots__ = (
        "netlist",
        "space",
        "items",
        "rs_checks",
        "input_bits",
    )

    def __init__(self, netlist: "Netlist", space: Optional[SignalSpace] = None):
        if space is None:
            space = SignalSpace.of(netlist.signals)
        self.netlist = netlist
        self.space = space
        #: (gate name, output bit, evaluator) in gate insertion order
        try:
            self.items: Tuple[Tuple[str, int, PackedEvaluator], ...] = tuple(
                (name, 1 << space.position[name], gate.compiled_evaluator(space))
                for name, gate in netlist.gates.items()
            )
        except KeyError as error:
            raise NetlistError(
                f"gate reads a signal outside the netlist: {error}"
            ) from error
        #: (gate name, mask, value) per RS gate with a satisfiable S=R=1
        self.rs_checks: Tuple[Tuple[str, int, int], ...] = tuple(
            (name, test[0], test[1])
            for name, gate in netlist.gates.items()
            for test in (gate.rs_illegal_test(space),)
            if test is not None
        )
        self.input_bits: Dict[str, int] = {
            name: 1 << space.position[name] for name in netlist.inputs
        }


@dataclass
class Netlist:
    """A gate-level circuit.

    ``inputs`` are the primary inputs; every other signal is the output
    of exactly one gate.  ``interface_outputs`` names the gates whose
    outputs are the specification's non-input signals (latch/wire
    outputs); remaining gates are internal logic.
    """

    name: str
    inputs: Tuple[str, ...]
    gates: Dict[str, Gate] = field(default_factory=dict)
    interface_outputs: Tuple[str, ...] = ()
    #: gate output -> (spec signal, polarity): initial value derivable
    #: from the specification (used for cross-coupled latch rails)
    initial_hints: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: gate outputs declared state-holding by construction (latch rails
    #: built from plain gates, e.g. cross-coupled NOR pairs)
    declared_state_holding: Set[str] = field(default_factory=set)

    def add_gate(self, gate: Gate) -> None:
        if gate.output in self.gates or gate.output in self.inputs:
            raise NetlistError(f"signal {gate.output!r} already driven")
        self.gates[gate.output] = gate

    @property
    def signals(self) -> Tuple[str, ...]:
        return self.inputs + tuple(self.gates)

    def fanin_closure_check(self) -> None:
        """Every gate input must be a primary input or another gate."""
        known = set(self.signals)
        for gate in self.gates.values():
            missing = set(gate.fanin_signals) - known
            if missing:
                raise NetlistError(
                    f"gate {gate.output!r} reads undriven signals {sorted(missing)}"
                )

    def state_holding_signals(self) -> Set[str]:
        """Gates whose output holds state: latches plus any gate on a
        combinational feedback loop (e.g. cross-coupled NOR pairs)."""
        holding = {
            name
            for name, gate in self.gates.items()
            if gate.kind in (GateKind.C, GateKind.RS)
        }
        holding |= self.declared_state_holding & set(self.gates)
        comb = {n: g for n, g in self.gates.items() if n not in holding}
        # a combinational gate holds state iff it lies on a feedback cycle
        # within the combinational subgraph: find SCCs (iterative Tarjan)
        index_counter = [0]
        indices: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []

        def strongconnect(root: str) -> None:
            work = [(root, iter(
                [f for f in comb[root].fanin_signals if f in comb]
            ))]
            indices[root] = lowlink[root] = index_counter[0]
            index_counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in indices:
                        indices[succ] = lowlink[succ] = index_counter[0]
                        index_counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append(
                            (succ, iter([f for f in comb[succ].fanin_signals if f in comb]))
                        )
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], indices[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == indices[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.remove(member)
                        component.append(member)
                        if member == node:
                            break
                    self_loop = node in comb[node].fanin_signals
                    if len(component) > 1 or self_loop:
                        holding.update(component)

        for name in sorted(comb):
            if name not in indices:
                strongconnect(name)
        return holding

    def topological_combinational_order(self) -> List[str]:
        """Acyclic combinational gates in dependency order.

        State-holding gates (latches, feedback loops) are treated as
        fixed sources and never appear in the returned order.
        """
        holding = self.state_holding_signals()
        comb = {
            name: gate
            for name, gate in self.gates.items()
            if name not in holding
        }
        order: List[str] = []
        done: Set[str] = set()

        def visit(name: str) -> None:
            if name in done or name not in comb:
                return
            done.add(name)
            for fanin in comb[name].fanin_signals:
                visit(fanin)
            order.append(name)

        for name in sorted(comb):
            visit(name)
        # `done` marking before recursion keeps this terminating even on
        # malformed inputs; cycles cannot occur among non-holding gates.
        return order

    def settle(self, values: Dict[str, int]) -> Dict[str, int]:
        """Evaluate acyclic combinational gates given input, latch and
        feedback-loop values."""
        result = dict(values)
        for name in self.topological_combinational_order():
            gate = self.gates[name]
            result[name] = gate.next_value(result, result.get(name, 0))
        return result

    def gate_count(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for gate in self.gates.values():
            counts[gate.kind.value] = counts.get(gate.kind.value, 0) + 1
        return counts

    def describe(self) -> str:
        lines = [f"# netlist {self.name}: inputs {', '.join(self.inputs)}"]
        lines += [gate.describe() for gate in self.gates.values()]
        return "\n".join(lines)


def _literal_source(
    netlist: Netlist, cube: Cube, and_cache: Dict[Cube, str], prefix: str
) -> Tuple[str, int]:
    """The signal (and polarity) presenting a cube to an OR/latch input.

    Multi-literal cubes get (or reuse) an AND gate; single-literal cubes
    wire the literal through with its polarity.
    """
    if len(cube) == 1:
        (signal, value), = cube.literals
        return signal, value
    if cube not in and_cache:
        gate_name = f"{prefix}{len(and_cache)}"
        netlist.add_gate(
            Gate(gate_name, GateKind.AND, tuple(cube.literals))
        )
        and_cache[cube] = gate_name
    return and_cache[cube], 1


def netlist_from_implementation(
    impl: Implementation, style: str = "C", name: Optional[str] = None
) -> Netlist:
    """Instantiate the standard C- or RS-implementation of Fig. 2.

    ``style`` selects the restoring element:

    * ``"C"`` -- Muller C-elements, ``a = C(Sa, Ra')`` (Fig. 2a);
    * ``"RS"`` -- atomic RS flip-flops, the paper's basic element
      (Fig. 2b).  The structure is dual-rail at the latch; the logic
      layer is identical, so the complementary rail is presented as an
      inversion bubble ("both implementation structures are essentially
      the same except that the latter is dual-rail encoded");
    * ``"RS-NOR"`` -- an *ablation* style decomposing each RS flip-flop
      into a discrete cross-coupled NOR pair with both rails as
      independent delayed gates.  This is strictly harder than the
      paper's model and exhibits rail races MC does not govern -- see
      ``benchmarks/bench_ablation_latches.py``.
    * ``"C-INV"`` -- the C structure with every inverted literal realised
      as a *separate inverter gate* (one shared inverter per signal).
      The paper's Section III warns that this breaks speed independence
      under unbounded delays, and is safe again under the relational
      bound ``d_inv^max < D_sn^min`` -- both claims are exercised in
      ``benchmarks/bench_ablation_inverters.py``.
    """
    if style not in ("C", "RS", "RS-NOR", "C-INV"):
        raise NetlistError(f"unknown style {style!r}")
    explicit_inverters = style == "C-INV"
    if explicit_inverters:
        style = "C"
    sg = impl.sg
    netlist = Netlist(
        name=name or f"{sg.name}_{style.lower()}impl",
        inputs=tuple(s for s in sg.signals if s in sg.inputs),
        interface_outputs=tuple(s for s in sg.signals if s not in sg.inputs),
    )
    and_cache: Dict[Cube, str] = {}

    # Wires first, then full networks, so shared AND gates see all users.
    for signal in sorted(impl.networks):
        network = impl.networks[signal]
        wire = network.wire_source
        if wire is not None:
            source, polarity = wire
            kind = GateKind.BUF if polarity else GateKind.NOT
            netlist.add_gate(Gate(signal, kind, ((source, 1),)))
            continue

        sides = []
        for label, cover in (("S", network.set_cover), ("R", network.reset_cover)):
            terms = [
                _literal_source(netlist, cube, and_cache, f"and_{signal}_")
                for cube in cover
            ]
            if len(terms) == 1:
                sides.append(terms[0])
            else:
                or_name = f"{label}_{signal}"
                netlist.add_gate(Gate(or_name, GateKind.OR, tuple(terms)))
                sides.append((or_name, 1))
        (set_sig, set_pol), (reset_sig, reset_pol) = sides
        if style == "C":
            netlist.add_gate(
                Gate(
                    signal,
                    GateKind.C,
                    ((set_sig, set_pol), (reset_sig, 1 - reset_pol)),
                )
            )
        elif style == "RS":
            # the RS flip-flop as the paper's atomic basic element; the
            # complementary rail comes from the flip-flop's second output
            # with negligible skew, so inverse literals are polarity
            # bubbles just as in the C style
            netlist.add_gate(
                Gate(
                    signal,
                    GateKind.RS,
                    ((set_sig, set_pol), (reset_sig, reset_pol)),
                )
            )
        else:  # RS-NOR: discrete cross-coupled NOR pair (ablation style)
            rail_bar = f"{signal}_bar"
            netlist.add_gate(
                Gate(
                    signal,
                    GateKind.NOR,
                    ((reset_sig, reset_pol), (rail_bar, 1)),
                )
            )
            netlist.add_gate(
                Gate(
                    rail_bar,
                    GateKind.NOR,
                    ((set_sig, set_pol), (signal, 1)),
                )
            )
            netlist.initial_hints[rail_bar] = (signal, 0)
            netlist.declared_state_holding.add(signal)
            netlist.declared_state_holding.add(rail_bar)

    if explicit_inverters:
        _explicit_input_inverters(netlist)
    netlist.fanin_closure_check()
    return netlist


def _explicit_input_inverters(netlist: Netlist) -> None:
    """Replace AND/OR input bubbles by shared standalone inverter gates.

    Latch bubbles (the C-element's inverted reset input) stay internal:
    the paper's Section-III discussion concerns the input inversions of
    the SOP gates after technology mapping.
    """
    needed = sorted(
        {
            signal
            for gate in netlist.gates.values()
            if gate.kind in (GateKind.AND, GateKind.OR)
            for signal, polarity in gate.inputs
            if polarity == 0
        }
    )
    for signal in needed:
        netlist.add_gate(Gate(f"inv_{signal}", GateKind.NOT, ((signal, 1),)))
    for name in list(netlist.gates):
        gate = netlist.gates[name]
        if gate.kind not in (GateKind.AND, GateKind.OR):
            continue
        if all(polarity == 1 for _, polarity in gate.inputs):
            continue
        rewired = tuple(
            (signal, 1) if polarity == 1 else (f"inv_{signal}", 1)
            for signal, polarity in gate.inputs
        )
        netlist.gates[name] = Gate(name, gate.kind, rewired)
