"""The fan-in decomposition ablation: why each MC cube is one AND gate.

A real standard library bounds gate *fan-in*, so wide MC cubes must be
decomposed into trees of smaller gates.  :func:`decompose_fanin` below
performs the naive balanced-tree decomposition -- and thereby
demonstrates (as an ablation, alongside ``RS-NOR`` and ``C-INV``) why the
paper treats each cube as **one** AND gate:

The MC discipline makes the *cube output* monotonic, not its partial
products.  An internal tree node computes a sub-cube (say ``a.b`` of
``a.b.d'``), which is *not* a monotonous cover of anything: it can rise
on traces where the full cube stays 0 and then be disabled by an input
change -- an unacknowledged transition.  These tests show the
decomposed Figure-3 implementation is genuinely hazardous under
unbounded delays, while Monte-Carlo simulation with *fast internal
nodes* (the realistic relational assumption, as for the input inverters
of Section III) stays clean.  Correct speed-independent decomposition
needs acknowledged intermediate signals and is later work
(Kondratyev et al. 1998, Burns' technology mapping); out of scope here.
"""

from typing import Dict, List, Tuple

import pytest

from repro.core.synthesis import synthesize
from repro.netlist.gates import Gate, GateKind
from repro.netlist.hazards import verify_speed_independence
from repro.netlist.netlist import Netlist, netlist_from_implementation


def decompose_fanin(netlist: Netlist, max_fanin: int = 2) -> Netlist:
    """A new netlist with every AND/OR gate's fan-in bounded.

    Wide AND (OR) gates become balanced trees of ``max_fanin``-input
    AND (OR) gates; input inversion bubbles stay on the leaf level.
    Latches, wires and complex gates are copied unchanged (the
    C-element/RS latch are 2-input already; complex gates are atomic by
    definition).
    """
    if max_fanin < 2:
        raise ValueError("max_fanin must be at least 2")
    mapped = Netlist(
        name=f"{netlist.name}_fanin{max_fanin}",
        inputs=netlist.inputs,
        interface_outputs=netlist.interface_outputs,
    )
    mapped.initial_hints.update(netlist.initial_hints)
    mapped.declared_state_holding.update(netlist.declared_state_holding)

    counter = [0]

    def tree(
        kind: GateKind, pins: List[Tuple[str, int]], output: str
    ) -> None:
        """Emit a balanced ``kind`` tree computing AND/OR of ``pins``."""
        level = list(pins)
        while len(level) > max_fanin:
            next_level: List[Tuple[str, int]] = []
            for start in range(0, len(level), max_fanin):
                chunk = level[start : start + max_fanin]
                if len(chunk) == 1:
                    next_level.append(chunk[0])
                    continue
                counter[0] += 1
                node = f"{output}_t{counter[0]}"
                mapped.add_gate(Gate(node, kind, tuple(chunk)))
                next_level.append((node, 1))
            level = next_level
        mapped.add_gate(Gate(output, kind, tuple(level)))

    for name, gate in netlist.gates.items():
        if gate.kind in (GateKind.AND, GateKind.OR) and len(gate.inputs) > max_fanin:
            tree(gate.kind, list(gate.inputs), name)
        else:
            mapped.add_gate(gate)
    mapped.fanin_closure_check()
    return mapped


def fanin_violations(netlist: Netlist, max_fanin: int) -> Dict[str, int]:
    """Gates whose fan-in exceeds the bound (name -> fan-in)."""
    return {
        name: len(gate.inputs)
        for name, gate in netlist.gates.items()
        if gate.kind in (GateKind.AND, GateKind.OR, GateKind.NAND, GateKind.NOR)
        and len(gate.inputs) > max_fanin
    }


class TestDecomposition:
    def test_bound_respected(self, fig3):
        netlist = netlist_from_implementation(synthesize(fig3), "C")
        assert fanin_violations(netlist, 2)  # 3-literal cubes exist
        mapped = decompose_fanin(netlist, max_fanin=2)
        assert not fanin_violations(mapped, 2)

    def test_functionality_preserved(self, fig3):
        netlist = netlist_from_implementation(synthesize(fig3), "C")
        mapped = decompose_fanin(netlist, max_fanin=2)
        base = {s: 0 for s in ("a", "b", "c", "d", "x")}
        for pattern in range(4):
            values = dict(base)
            values["a"] = pattern & 1
            values["b"] = (pattern >> 1) & 1
            original = netlist.settle(dict(values))
            new = mapped.settle(dict(values))
            for name in netlist.gates:
                assert original[name] == new[name], name

    def test_interface_untouched(self, fig3):
        netlist = netlist_from_implementation(synthesize(fig3), "C")
        mapped = decompose_fanin(netlist, max_fanin=2)
        assert mapped.inputs == netlist.inputs
        assert mapped.interface_outputs == netlist.interface_outputs
        assert set(netlist.gates) <= set(mapped.gates)

    def test_invalid_bound_rejected(self, fig3):
        netlist = netlist_from_implementation(synthesize(fig3), "C")
        with pytest.raises(ValueError):
            decompose_fanin(netlist, max_fanin=1)


class TestDecompositionBreaksSI:
    """The ablation's point: naive decomposition is NOT hazard-free.

    Partial products of an MC cube are not monotonous covers; the
    internal tree nodes get excited and disabled unacknowledged.  This
    is why the paper's architecture keeps one AND gate per cube.
    """

    def test_fig3_two_input_library_is_hazardous(self, fig3):
        netlist = netlist_from_implementation(synthesize(fig3), "C")
        mapped = decompose_fanin(netlist, max_fanin=2)
        report = verify_speed_independence(mapped, fig3)
        assert not report.hazard_free
        # the witnesses involve internal tree nodes
        assert any("_t" in c.signal for c in report.conflicts)

    def test_fast_internal_nodes_are_safe_in_simulation(self, fig3):
        """Under the realistic relational bound (internal nodes much
        faster than the signal networks, as for Section III's
        inverters), Monte-Carlo runs stay clean."""
        from repro.netlist.simulate import simulate

        netlist = netlist_from_implementation(synthesize(fig3), "C")
        mapped = decompose_fanin(netlist, max_fanin=2)
        overrides = {
            name: (0.001, 0.01) for name in mapped.gates if "_t" in name
        }
        for seed in range(10):
            report = simulate(
                mapped,
                fig3,
                max_events=300,
                seed=seed,
                delay_overrides=overrides,
            )
            assert report.hazard_free, report.describe()

    def test_baseline_stays_hazardous(self, fig4):
        """Decomposition certainly must not *mask* existing hazards."""
        from repro.core.baseline import baseline_synthesize

        netlist = netlist_from_implementation(baseline_synthesize(fig4), "C")
        mapped = decompose_fanin(netlist, max_fanin=2)
        report = verify_speed_independence(mapped, fig4)
        assert not report.hazard_free
