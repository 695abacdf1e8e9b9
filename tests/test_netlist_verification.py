"""Unit tests for circuit-SG composition and hazard detection.

These are the executable versions of the paper's central claims:

* Theorem 3: an MC implementation's circuit-level SG is output
  semi-modular (hazard-free) -- tested on Figures 3 and the repaired
  Figures 1 and 4;
* Example 2: the Beerel-style implementation of Figure 4 is hazardous,
  witnessed by the unacknowledged AND gate for cube c'd.
"""

import pytest

from repro.core.baseline import baseline_synthesize
from repro.core.insertion import insert_state_signals
from repro.core.synthesis import synthesize
from repro.netlist.circuit_sg import CompositionError, build_circuit_state_graph
from repro.netlist.hazards import verify_speed_independence
from repro.netlist.netlist import netlist_from_implementation


class TestComposition:
    def test_toggle_composition(self, toggle_sg):
        netlist = netlist_from_implementation(synthesize(toggle_sg), "C")
        composition = build_circuit_state_graph(netlist, toggle_sg)
        assert not composition.conformance_failures
        assert not composition.truncated
        # wire implementation: states = spec states (gate q == output q)
        assert len(composition.sg) == len(toggle_sg)

    def test_missing_input_rejected(self, toggle_sg, fig3):
        netlist = netlist_from_implementation(synthesize(toggle_sg), "C")
        with pytest.raises(CompositionError):
            build_circuit_state_graph(netlist, fig3)

    def test_truncation_reported(self, fig3):
        netlist = netlist_from_implementation(synthesize(fig3), "C")
        composition = build_circuit_state_graph(netlist, fig3, max_states=5)
        assert composition.truncated

    def test_circuit_sg_is_a_state_graph(self, fig3):
        netlist = netlist_from_implementation(synthesize(fig3), "C")
        composition = build_circuit_state_graph(netlist, fig3)
        composition.sg.check()
        assert set(composition.sg.inputs) == set(fig3.inputs)


class TestTheorem3:
    @pytest.mark.parametrize("style", ["C", "RS"])
    def test_fig3_hazard_free(self, fig3, style):
        netlist = netlist_from_implementation(synthesize(fig3), style)
        report = verify_speed_independence(netlist, fig3)
        assert report.hazard_free, report.describe()

    @pytest.mark.parametrize("style", ["C", "RS"])
    def test_fig3_shared_hazard_free(self, fig3, style):
        netlist = netlist_from_implementation(
            synthesize(fig3, share_gates=True), style
        )
        report = verify_speed_independence(netlist, fig3)
        assert report.hazard_free, report.describe()

    def test_repaired_fig1_hazard_free(self, fig1):
        result = insert_state_signals(fig1, max_models=400)
        netlist = netlist_from_implementation(synthesize(result.sg), "C")
        report = verify_speed_independence(netlist, result.sg)
        assert report.hazard_free, report.describe()

    def test_repaired_fig4_hazard_free(self, fig4):
        result = insert_state_signals(fig4, max_models=400)
        netlist = netlist_from_implementation(synthesize(result.sg), "C")
        report = verify_speed_independence(netlist, result.sg)
        assert report.hazard_free, report.describe()

    def test_rs_overlaps_reported_but_benign(self, fig3):
        netlist = netlist_from_implementation(synthesize(fig3), "RS")
        report = verify_speed_independence(netlist, fig3)
        assert report.rs_overlaps  # transient S=R=1 states exist
        assert report.hazard_free  # ...and are held through


class TestExample2Hazard:
    def test_fig4_baseline_is_hazardous(self, fig4):
        """The paper's Example 2: t = c'd fires unacknowledged."""
        netlist = netlist_from_implementation(baseline_synthesize(fig4), "C")
        report = verify_speed_independence(netlist, fig4)
        assert not report.hazard_free
        # the witness involves the AND gate for cube c'd
        and_gates = [
            name
            for name, gate in netlist.gates.items()
            if gate.kind.value == "and"
            and set(gate.inputs) == {("c", 0), ("d", 1)}
        ]
        assert and_gates
        assert any(c.signal == and_gates[0] for c in report.conflicts)

    def test_describe_mentions_hazard(self, fig4):
        netlist = netlist_from_implementation(baseline_synthesize(fig4), "C")
        report = verify_speed_independence(netlist, fig4)
        assert "HAZARDOUS" in report.describe()


class TestRSNorAblation:
    def test_discrete_nor_pair_races(self, fig3):
        """The RS-NOR ablation: decomposing the flip-flop into two
        independently-delayed NOR gates exhibits rail races that the
        paper's atomic-latch model does not have."""
        netlist = netlist_from_implementation(synthesize(fig3), "RS-NOR")
        report = verify_speed_independence(netlist, fig3)
        assert not report.hazard_free


class TestWitnessTraces:
    def test_trace_replays_to_the_conflict(self, fig4):
        """The witness trace must be a legal firing sequence of the
        composed state graph ending at the conflict state."""
        netlist = netlist_from_implementation(baseline_synthesize(fig4), "C")
        report = verify_speed_independence(netlist, fig4)
        conflict = report.conflicts[0]
        trace = report.witness_trace(conflict)
        assert trace[-1] == conflict.by
        state = report.circuit_sg.initial
        for event in trace[:-1]:
            targets = report.circuit_sg.fire(state, event)
            assert targets, f"{event} not enabled on the witness path"
            state = targets[0]
        assert state == conflict.state
        # and the disabling event itself is enabled there
        assert report.circuit_sg.fire(state, conflict.by)

    def test_no_trace_for_clean_circuit(self, fig3):
        netlist = netlist_from_implementation(synthesize(fig3), "C")
        report = verify_speed_independence(netlist, fig3)
        assert report.witness_trace() == []


class TestDeterministicReport:
    def test_check_output_is_hash_seed_independent(self, tmp_path):
        """Conflict order, the first-8 list and the witness trace of
        ``repro-si check`` do not depend on ``PYTHONHASHSEED``."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.netlist.io import save_netlist
        from repro.stg.parser import load_g
        from repro.stg.reachability import stg_to_state_graph

        root = Path(__file__).resolve().parent.parent
        spec_path = root / "src" / "repro" / "bench" / "data" / "mp-forward-pkt.g"
        spec = stg_to_state_graph(load_g(str(spec_path)))
        netlist = netlist_from_implementation(synthesize(spec), "RS-NOR")
        assert len(verify_speed_independence(netlist, spec).conflicts) > 8
        netlist_path = tmp_path / "rs-nor.json"
        save_netlist(netlist, str(netlist_path))

        outputs = []
        for seed in ("1", "2"):
            run = subprocess.run(
                [sys.executable, "-m", "repro.cli", "check",
                 str(spec_path), str(netlist_path)],
                capture_output=True,
                env=dict(
                    os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=seed
                ),
            )
            assert run.returncode == 1, run.stderr
            outputs.append(run.stdout)
        assert b"gate conflict" in outputs[0]
        assert outputs[0] == outputs[1]
