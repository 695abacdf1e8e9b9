"""Complex-gate synthesis (the approach the paper contrasts with).

Chu's classic result [3]: a semi-modular state graph has a correct
implementation in which each non-input signal is one *complex gate*
(an arbitrary hazard-free-by-assumption Boolean function with internal
feedback) **iff** it satisfies Complete State Coding.  The paper's whole
point is that a single complex gate per signal is often unrealistic --
"the required combinational logic functions are too complex to have
single complex gate implementations from a standard library" -- which
motivates the basic-gate architecture and the stronger MC requirement.

This module implements the complex-gate flow so the contrast can be
measured: derive each signal's next-state function from the state graph
(on-set: states where the signal is 1 and stable, or excited to rise;
off-set: 0-and-stable or excited to fall; don't-care: unreachable
codes), minimise it exactly, and emit one atomic
:class:`~repro.netlist.gates.GateKind.COMPLEX` gate per signal.
A CSC violation manifests as a state code demanded in both the on- and
off-set, reported as :class:`CSCViolation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.boolean.cover import Cover
from repro.boolean.minimize import minimize_onset
from repro.boolean.sop import format_cover
from repro.core.synthesis import CSCViolation
from repro.netlist.gates import Gate, GateKind
from repro.netlist.netlist import Netlist
from repro.sg.graph import StateGraph


def next_state_function(
    sg: StateGraph, signal: str
) -> Tuple[List[Dict[str, int]], List[Dict[str, int]]]:
    """(on-set, off-set) codes of the signal's next-state function.

    The next value of ``signal`` in state ``s`` is 1 when the signal is
    high and stable or excited to rise.  Raises :class:`CSCViolation`
    when two states with equal codes disagree.
    """
    on: Dict[Tuple[int, ...], bool] = {}
    for state in sg.states:
        value = sg.value(state, signal)
        excited = sg.is_excited(state, signal)
        next_value = (1 - value) if excited else value
        code = sg.code(state)
        existing = on.get(code)
        if existing is not None and existing != bool(next_value):
            raise CSCViolation(signal, code)
        on[code] = bool(next_value)
    on_codes = [dict(zip(sg.signals, c)) for c, v in sorted(on.items()) if v]
    off_codes = [dict(zip(sg.signals, c)) for c, v in sorted(on.items()) if not v]
    return on_codes, off_codes


@dataclass
class ComplexGateImplementation:
    """One minimised SOP per non-input signal, each an atomic gate."""

    sg: StateGraph
    functions: Dict[str, Cover]

    def equations(self) -> str:
        return "\n".join(
            f"{signal} = [{format_cover(cover)}]"
            for signal, cover in sorted(self.functions.items())
        )

    def literal_count(self) -> int:
        return sum(cover.literal_count() for cover in self.functions.values())


def complex_gate_synthesize(sg: StateGraph) -> ComplexGateImplementation:
    """Derive the complex-gate implementation (requires CSC only)."""
    signals = list(sg.signals)
    all_reachable = {sg.code(s) for s in sg.states}
    import itertools

    dc_codes = [
        dict(zip(signals, bits))
        for bits in itertools.product((0, 1), repeat=len(signals))
        if bits not in all_reachable
    ]
    functions: Dict[str, Cover] = {}
    for signal in sorted(sg.non_inputs):
        on_codes, _ = next_state_function(sg, signal)
        functions[signal] = minimize_onset(signals, on_codes, dc_codes)
    return ComplexGateImplementation(sg=sg, functions=functions)


def complex_gate_netlist(
    impl: ComplexGateImplementation, name: str = None
) -> Netlist:
    """One atomic COMPLEX gate per non-input signal (with feedback)."""
    sg = impl.sg
    netlist = Netlist(
        name=name or f"{sg.name}_complex",
        inputs=tuple(s for s in sg.signals if s in sg.inputs),
        interface_outputs=tuple(s for s in sg.signals if s not in sg.inputs),
    )
    for signal, cover in impl.functions.items():
        fanins = sorted(cover.signals | {signal})
        netlist.add_gate(
            Gate(
                signal,
                GateKind.COMPLEX,
                tuple((s, 1) for s in fanins),
                function=cover,
            )
        )
    netlist.fanin_closure_check()
    return netlist
