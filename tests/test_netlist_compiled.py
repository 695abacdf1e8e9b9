"""Packed gate evaluation and circuit composition on packed codes.

Every gate kind's :meth:`compiled_evaluator` closure must agree with the
dict-based :meth:`next_value` reference on every input code, and the
packed BFS in :func:`build_circuit_state_graph` must reproduce the
reference composition -- states, arcs, diagnostics and parent pointers
-- exactly, because serialized artifacts depend on that order.
"""

import pytest

from repro.boolean.compiled import SignalSpace
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.core.synthesis import synthesize
from repro.netlist.area import area_estimate, gate_transistors
from repro.netlist.circuit_sg import (
    build_circuit_state_graph,
    build_circuit_state_graph_reference,
)
from repro.netlist.gates import Gate, GateKind
from repro.netlist.hazards import verify_speed_independence
from repro.netlist.netlist import (
    Netlist,
    NetlistError,
    NetlistPlan,
    netlist_from_implementation,
)

pytestmark = pytest.mark.smoke

GATE_CASES = [
    Gate("y", GateKind.AND, (("a", 1), ("b", 1), ("c", 0))),
    Gate("y", GateKind.NAND, (("a", 1), ("b", 0))),
    Gate("y", GateKind.OR, (("a", 1), ("b", 0), ("c", 1))),
    Gate("y", GateKind.NOR, (("a", 0), ("b", 1))),
    Gate("y", GateKind.BUF, (("a", 1),)),
    Gate("y", GateKind.BUF, (("a", 0),)),
    Gate("y", GateKind.NOT, (("a", 1),)),
    Gate("y", GateKind.C, (("a", 1), ("b", 0))),
    Gate("y", GateKind.RS, (("a", 1), ("b", 1))),
    Gate("y", GateKind.RS, (("a", 0), ("b", 1))),
    Gate(
        "y",
        GateKind.COMPLEX,
        (("a", 1), ("b", 1), ("c", 1)),
        function=Cover([Cube({"a": 1, "b": 0}), Cube({"c": 1})]),
    ),
    # unsatisfiable conjunction: the same signal at both polarities
    Gate("y", GateKind.AND, (("a", 1), ("a", 0))),
    Gate("y", GateKind.NOR, (("a", 1), ("a", 0))),
]


def unpack(space, word):
    """A packed code back as a ``signal -> value`` dict."""
    return {
        signal: (word >> position) & 1
        for position, signal in enumerate(space.signals)
    }


class TestCompiledEvaluatorParity:
    """compiled_evaluator == next_value over every code and held value."""

    space = SignalSpace.of(("a", "b", "c", "y"))

    @pytest.mark.parametrize(
        "gate", GATE_CASES, ids=lambda g: f"{g.kind.value}-{len(g.inputs)}in"
    )
    def test_every_code(self, gate):
        evaluate = gate.compiled_evaluator(self.space)
        for word in range(1 << self.space.width):
            values = unpack(self.space, word)
            for current in (0, 1):
                assert evaluate(word, current) == gate.next_value(
                    values, current
                ), (gate.kind, values, current)

    def test_empty_cover_complex_is_constant_zero(self):
        gate = Gate("y", GateKind.COMPLEX, (), function=Cover([]))
        evaluate = gate.compiled_evaluator(self.space)
        for word in range(1 << self.space.width):
            assert evaluate(word, 1) == 0 == gate.next_value(
                unpack(self.space, word), 1
            )


class TestNetlistPlan:
    def wire(self):
        netlist = Netlist("wire", inputs=("r",), interface_outputs=("q",))
        netlist.add_gate(Gate("q", GateKind.BUF, (("r", 1),)))
        return netlist

    def test_items_follow_gate_insertion_order(self):
        netlist = self.wire()
        netlist.add_gate(Gate("n", GateKind.NOT, (("q", 1),)))
        plan = NetlistPlan(netlist)
        assert [name for name, _, _ in plan.items] == ["q", "n"]
        assert plan.space.signals == ("r", "q", "n")
        assert plan.input_bits == {"r": 1}

    def test_rs_checks_cover_satisfiable_latches_only(self):
        netlist = Netlist("latch", inputs=("s", "r"), interface_outputs=("q",))
        netlist.add_gate(Gate("q", GateKind.RS, (("s", 1), ("r", 1))))
        # S = R = s: the illegal S = R = 1 conjunction is unsatisfiable
        netlist.add_gate(Gate("p", GateKind.RS, (("s", 1), ("s", 0))))
        plan = NetlistPlan(netlist)
        assert [name for name, _, _ in plan.rs_checks] == ["q"]
        name, mask, value = plan.rs_checks[0]
        assert mask == value == plan.space.pack({"s": 1, "r": 1, "q": 0, "p": 0})

    def test_absent_signal_is_a_netlist_error(self):
        netlist = self.wire()
        netlist.add_gate(Gate("x", GateKind.AND, (("q", 1), ("ghost", 1))))
        with pytest.raises(NetlistError, match="ghost"):
            NetlistPlan(netlist)

    def test_absent_signal_in_complex_cover(self):
        netlist = self.wire()
        netlist.add_gate(
            Gate(
                "x",
                GateKind.COMPLEX,
                (("q", 1),),
                function=Cover([Cube({"q": 1, "ghost": 0})]),
            )
        )
        with pytest.raises(NetlistError):
            NetlistPlan(netlist)


def assert_same_composition(packed, reference):
    assert packed.sg.initial == reference.sg.initial
    assert packed.sg.signals == reference.sg.signals
    assert packed.sg.inputs == reference.sg.inputs
    assert packed.sg.states == reference.sg.states
    assert sorted(packed.sg.arcs()) == sorted(reference.sg.arcs())
    for state in reference.sg.states:
        assert packed.sg.code(state) == reference.sg.code(state)
        assert packed.sg.arcs_from(state) == reference.sg.arcs_from(state)
    assert packed.conformance_failures == reference.conformance_failures
    assert packed.rs_violations == reference.rs_violations
    assert packed.truncated == reference.truncated
    assert packed.parents == reference.parents


class TestCompositionParity:
    """Packed BFS reproduces the dict reference byte for byte."""

    @pytest.mark.parametrize("style", ["C", "RS"])
    def test_fig3(self, fig3, style):
        netlist = netlist_from_implementation(synthesize(fig3), style)
        assert_same_composition(
            build_circuit_state_graph(netlist, fig3),
            build_circuit_state_graph_reference(netlist, fig3),
        )

    def test_hazardous_fig4_baseline(self, fig4):
        """Diagnostics (conflicts, failures) must match on a hazardous net."""
        from repro.core.baseline import baseline_synthesize

        netlist = netlist_from_implementation(baseline_synthesize(fig4), "C")
        packed = build_circuit_state_graph(netlist, fig4)
        assert_same_composition(
            packed, build_circuit_state_graph_reference(netlist, fig4)
        )

    def test_small_specs(self, toggle_sg, choice_sg):
        for spec in (toggle_sg, choice_sg):
            netlist = netlist_from_implementation(synthesize(spec), "C")
            assert_same_composition(
                build_circuit_state_graph(netlist, spec),
                build_circuit_state_graph_reference(netlist, spec),
            )

    def test_truncation_parity(self, fig3):
        netlist = netlist_from_implementation(synthesize(fig3), "C")
        packed = build_circuit_state_graph(netlist, fig3, max_states=5)
        reference = build_circuit_state_graph_reference(
            netlist, fig3, max_states=5
        )
        assert packed.truncated and reference.truncated
        assert_same_composition(packed, reference)


def _conflict_cases(fig3, fig4):
    """Hazardous and faulty netlists: fig4 baseline C, fig3 RS-NOR and
    every stuck-at mutant of fig3's C-implementation."""
    from repro.core.baseline import baseline_synthesize
    from repro.verify.faults import stuck_at

    yield netlist_from_implementation(baseline_synthesize(fig4), "C"), fig4
    yield netlist_from_implementation(synthesize(fig3), "RS-NOR"), fig3
    clean = netlist_from_implementation(synthesize(fig3), "C")
    for gate in clean.gates:
        for value in (0, 1):
            yield stuck_at(clean, gate, value), fig3


class TestPackedHazardCheck:
    """The hazard check reads the packed exploration; the circuit graph
    and the parent map are views built on first access and equal the
    reference composition's."""

    def test_verify_builds_no_state_graph(self, fig4, monkeypatch):
        from repro.core.baseline import baseline_synthesize
        from repro.netlist import circuit_sg

        built = []

        class CountingStateGraph(circuit_sg.StateGraph):
            def __init__(self, *args, **kwargs):
                built.append(args[-1])
                super().__init__(*args, **kwargs)

            @classmethod
            def from_packed(cls, *args, **kwargs):
                built.append(kwargs.get("name"))
                return super().from_packed(*args, **kwargs)

        monkeypatch.setattr(circuit_sg, "StateGraph", CountingStateGraph)
        netlist = netlist_from_implementation(baseline_synthesize(fig4), "C")
        report = verify_speed_independence(netlist, fig4)
        assert report.conflicts and "witness trace" in report.describe()
        assert built == []
        assert report.circuit_states == len(report.circuit_sg)
        assert report.circuit_sg is report.circuit_sg
        assert len(built) == 1

    @pytest.mark.parametrize("max_states", [1, 5, 50, 500_000])
    def test_table1_views_match_reference(self, pipeline, max_states):
        from repro.bench.suite import BENCHMARKS

        for name in BENCHMARKS:
            result = pipeline(name)
            netlist = netlist_from_implementation(result.implementation, "C")
            spec = result.insertion.sg
            packed = build_circuit_state_graph(netlist, spec, max_states)
            reference = build_circuit_state_graph_reference(
                netlist, spec, max_states
            )
            assert packed.states == len(reference.sg), name
            assert packed.sg.state_list == reference.sg.state_list, name
            assert packed.sg.arcs() == reference.sg.arcs(), name
            assert list(packed.parents.items()) == list(
                reference.parents.items()
            ), name
            for state in reference.sg.state_list:
                assert packed.trace_to(state) == reference.trace_to(state)
            assert packed.truncated == reference.truncated, name
            assert packed.conformance_failures == reference.conformance_failures
            assert packed.rs_violations == reference.rs_violations

    def test_conflicts_equal_the_oracle_list(self, fig3, fig4):
        from repro.netlist.circuit_sg import CompositionError
        from repro.sg.properties import conflict_states

        witnessed = 0
        for netlist, spec in _conflict_cases(fig3, fig4):
            try:
                reference = build_circuit_state_graph_reference(netlist, spec)
            except CompositionError:
                continue  # the fault contradicts the initial state
            report = verify_speed_independence(netlist, spec)
            oracle = conflict_states(reference.sg, reference.sg.non_inputs)
            assert report.conflicts == oracle, netlist.name
            assert report.circuit_states == len(reference.sg)
            assert (
                report.composition.conformance_failures
                == reference.conformance_failures
            )
            assert report.rs_overlaps == reference.rs_violations
            witnessed += len(oracle)
        assert witnessed  # the cases do exercise the conflict path


class TestAreaEdgeCases:
    def test_empty_cover_complex_gate(self):
        gate = Gate("y", GateKind.COMPLEX, (), function=Cover([]))
        assert gate_transistors(gate) == 2  # constant pull network only

    def test_single_literal_degenerate_cube(self):
        gate = Gate(
            "y", GateKind.COMPLEX, (("a", 1),), function=Cover([Cube({"a": 1})])
        )
        assert gate_transistors(gate) == 4

    def test_area_of_netlist_with_degenerate_gates(self):
        netlist = Netlist("edge", inputs=("a",), interface_outputs=("y",))
        netlist.add_gate(
            Gate("y", GateKind.COMPLEX, (("a", 1),), function=Cover([Cube({"a": 1})]))
        )
        netlist.add_gate(Gate("z", GateKind.COMPLEX, (), function=Cover([])))
        assert area_estimate(netlist) == 4 + 2


class TestHazardEdgeCases:
    def test_degenerate_complex_gates_compose(self, toggle_sg):
        """Empty and single-literal covers survive the full hazard path."""
        netlist = Netlist("edge", inputs=("r",), interface_outputs=("q",))
        netlist.add_gate(
            Gate("q", GateKind.COMPLEX, (("r", 1),), function=Cover([Cube({"r": 1})]))
        )
        netlist.add_gate(Gate("dead", GateKind.COMPLEX, (), function=Cover([])))
        report = verify_speed_independence(netlist, toggle_sg)
        assert report.hazard_free, report.describe()

    def test_absent_signal_fails_closure_check(self):
        netlist = Netlist("edge", inputs=("r",), interface_outputs=("q",))
        netlist.add_gate(Gate("q", GateKind.AND, (("r", 1), ("ghost", 1))))
        with pytest.raises(NetlistError, match="ghost"):
            netlist.fanin_closure_check()

    def test_absent_signal_fails_hazard_verification(self, toggle_sg):
        netlist = Netlist("edge", inputs=("r",), interface_outputs=("q",))
        netlist.add_gate(Gate("q", GateKind.BUF, (("r", 1),)))
        netlist.add_gate(Gate("x", GateKind.OR, (("q", 1), ("ghost", 0))))
        with pytest.raises(NetlistError):
            verify_speed_independence(netlist, toggle_sg)
