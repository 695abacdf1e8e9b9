"""Speed-independence verification of implementations.

Under the pure delay model, "any violation of semi-modularity by
internal signals will result in hazardous behavior on circuit outputs"
(Sec. III, citing Beerel & Meng's semi-modularity/testability result).
So the verifier explores the circuit-level state space of the closed
loop (circuit + specification mirror) and checks output semi-modularity
with respect to *every gate output*.  A conflict on a gate -- the gate
gets excited and then loses its excitation without firing -- is a hazard
witness: the classic unacknowledged-gate scenario of Example 2, where
AND gate ``t = c'd`` starts switching in ER(+b_2) and input ``a``
overtakes it.

The check runs on the packed exploration of
:func:`~repro.netlist.circuit_sg.build_circuit_state_graph`: an arc
``src --e--> dst`` disables the gates in ``excited[src] & gates &
~bit(e) & ~excited[dst]`` (one excited-signal bit mask per state), so no
:class:`~repro.sg.graph.StateGraph` is built.  Conflicts come out in
source-state, arc and signal-position order -- element for element the
list :func:`~repro.sg.properties.conflict_states` gives on the circuit
graph, which :attr:`HazardReport.circuit_sg` still builds on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.netlist.circuit_sg import (
    Composition,
    PackedExploration,
    build_circuit_state_graph,
)
from repro.netlist.netlist import Netlist
from repro.sg.graph import StateGraph
from repro.sg.properties import Conflict


@dataclass
class HazardReport:
    """Verification outcome for one netlist against one specification."""

    netlist: Netlist
    spec: StateGraph
    composition: Composition
    conflicts: List[Conflict] = field(default_factory=list)

    @property
    def circuit_sg(self) -> StateGraph:
        """The circuit-level state graph (built on first access)."""
        return self.composition.sg

    @property
    def circuit_states(self) -> int:
        return self.composition.states

    @property
    def hazard_free(self) -> bool:
        """Speed-independent: no gate conflict, no conformance failure,
        and the whole space explored.

        Transient S = R overlaps at atomic RS flip-flops are reported
        separately (:attr:`rs_overlaps`): with the MC property the
        overlap always resolves by the stale side falling first (the
        active side cannot withdraw until the latch answers), so the
        flip-flop merely holds through it.
        """
        return (
            not self.conflicts
            and not self.composition.conformance_failures
            and not self.composition.truncated
        )

    @property
    def inconclusive(self) -> bool:
        """Truncated before any hazard witness: nothing is proven."""
        return (
            self.composition.truncated
            and not self.conflicts
            and not self.composition.conformance_failures
        )

    @property
    def rs_overlaps(self) -> List[Tuple]:
        return list(self.composition.rs_violations)

    def witness_trace(self, conflict: Optional[Conflict] = None) -> List:
        """The event sequence from reset to a conflict state.

        Defaults to the first conflict; returns the BFS-shortest firing
        sequence of the closed loop leading to the state in which the
        gate is excited, followed by the disabling event.
        """
        if conflict is None:
            if not self.conflicts:
                return []
            conflict = self.conflicts[0]
        return self.composition.trace_to(conflict.state) + [conflict.by]

    def describe(self) -> str:
        lines = [
            f"speed-independence check: {self.netlist.name} vs {self.spec.name}: "
            f"{'HAZARD-FREE' if self.hazard_free else 'HAZARDOUS'}",
            f"  circuit states explored: {self.circuit_states}",
        ]
        for conflict in self.conflicts[:8]:
            lines.append(f"  gate conflict: {conflict}")
        if self.conflicts:
            trace = self.witness_trace()
            lines.append(
                "  witness trace: " + " ".join(str(e) for e in trace)
            )
        for state, signal in self.composition.conformance_failures[:8]:
            lines.append(
                f"  conformance failure: output {signal!r} fires outside the "
                f"specification in state {state!r}"
            )
        if self.composition.rs_violations:
            lines.append(
                f"  note: {len(self.composition.rs_violations)} transient "
                f"S=R overlap state(s) at RS flip-flops (held through)"
            )
        if self.composition.truncated:
            lines.append("  WARNING: exploration truncated")
        return "\n".join(lines)


def verify_speed_independence(
    netlist: Netlist,
    spec: StateGraph,
    max_states: int = 500_000,
) -> HazardReport:
    """Explore the closed loop and check it for gate-level conflicts.

    The watched signals are all non-inputs of the composed graph, i.e.
    every gate output (latches, AND/OR gates, wires alike).
    """
    composition = build_circuit_state_graph(netlist, spec, max_states=max_states)
    gate_mask = 0
    for i, signal in enumerate(netlist.signals):
        if signal in netlist.gates:
            gate_mask |= 1 << i
    return HazardReport(
        netlist=netlist,
        spec=spec,
        composition=composition,
        conflicts=_gate_conflicts(composition.packed, gate_mask),
    )


def _gate_conflicts(packed: PackedExploration, gate_mask: int) -> List[Conflict]:
    """Conflicts of the watched signals in ``gate_mask``, in (source
    index, arc order, signal position) order."""
    excited = packed.excited
    hot = [mask & gate_mask for mask in excited]
    signals = packed.signals
    state_id = packed.state_id
    conflicts: List[Conflict] = []
    for src, event, dst, pos in zip(
        packed.arc_src, packed.arc_event, packed.arc_dst, packed.arc_pos
    ):
        disabled = hot[src] & ~excited[dst] & ~(1 << pos)
        while disabled:
            low = disabled & -disabled
            conflicts.append(
                Conflict(
                    state_id(src), signals[low.bit_length() - 1], event, state_id(dst)
                )
            )
            disabled ^= low
    return conflicts
