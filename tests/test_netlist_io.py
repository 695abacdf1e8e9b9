"""Tests for netlist JSON persistence and the CLI check command."""

import os

import pytest

from repro.cli import main
from repro.core.complexgate import complex_gate_netlist, complex_gate_synthesize
from repro.core.synthesis import synthesize
from repro.netlist.hazards import verify_speed_independence
from repro.netlist.io import load_netlist, netlist_from_json, netlist_to_json, save_netlist
from repro.netlist.netlist import netlist_from_implementation

DATA = os.path.join(
    os.path.dirname(__file__), "..", "src", "repro", "bench", "data"
)


class TestRoundTrip:
    @pytest.mark.parametrize("style", ["C", "RS", "RS-NOR", "C-INV"])
    def test_all_styles_roundtrip(self, fig3, style):
        original = netlist_from_implementation(synthesize(fig3), style)
        back = netlist_from_json(netlist_to_json(original))
        assert back.inputs == original.inputs
        assert set(back.gates) == set(original.gates)
        for name in original.gates:
            assert back.gates[name].kind == original.gates[name].kind
            assert back.gates[name].inputs == original.gates[name].inputs
        assert back.initial_hints == original.initial_hints
        assert back.declared_state_holding == original.declared_state_holding

    def test_complex_gates_roundtrip(self, fig1):
        original = complex_gate_netlist(complex_gate_synthesize(fig1))
        back = netlist_from_json(netlist_to_json(original))
        for name, gate in original.gates.items():
            assert back.gates[name].function == gate.function

    def test_verification_equivalent_after_roundtrip(self, fig3):
        original = netlist_from_implementation(synthesize(fig3), "C")
        back = netlist_from_json(netlist_to_json(original))
        first = verify_speed_independence(original, fig3)
        second = verify_speed_independence(back, fig3)
        assert first.hazard_free == second.hazard_free
        assert len(first.circuit_sg) == len(second.circuit_sg)

    def test_file_roundtrip(self, tmp_path, fig3):
        path = tmp_path / "net.json"
        original = netlist_from_implementation(synthesize(fig3), "C")
        save_netlist(original, str(path))
        assert set(load_netlist(str(path)).gates) == set(original.gates)


#: JSON documents that are not netlists -> the field the error names
NOT_NETLISTS = {
    "[]": "JSON object",
    '{"a": 1}': "'inputs'",
    '{"inputs": "a", "gates": []}': "'inputs' must be a list",
    '{"inputs": ["a"]}': "'gates'",
    '{"inputs": ["a"], "gates": [{"kind": "buf", "inputs": [["a", 1]]}]}': "'output'",
    '{"inputs": ["a"], "gates": [{"output": "b", "kind": "xor", "inputs": [["a", 1]]}]}': (
        "unknown kind 'xor'"
    ),
    '{"inputs": ["a"], "gates": [{"output": "b", "kind": "buf", "inputs": [["a"]]}]}': (
        "gate 'b' inputs"
    ),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("text, field", sorted(NOT_NETLISTS.items()))
    def test_value_error_names_the_field(self, text, field):
        with pytest.raises(ValueError, match=field):
            netlist_from_json(text)

    @pytest.mark.parametrize("text", sorted(NOT_NETLISTS))
    def test_check_exits_2_not_1(self, tmp_path, capsys, text):
        """Exit 1 means "hazard found"; a non-netlist is a usage error."""
        bogus = tmp_path / "bogus.json"
        bogus.write_text(text)
        spec = os.path.join(DATA, "delement.g")
        assert main(["check", spec, str(bogus)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-si: error: malformed netlist")
        assert len(err.strip().splitlines()) == 1


class TestCliCheck:
    def test_save_and_check_good_netlist(self, tmp_path, capsys):
        spec = os.path.join(DATA, "mp-forward-pkt.g")
        saved = tmp_path / "net.json"
        assert main(["synth", spec, "--no-verify", "--save-netlist", str(saved)]) == 0
        assert main(["check", spec, str(saved)]) == 0
        out = capsys.readouterr().out
        assert "HAZARD-FREE" in out

    def test_check_catches_bad_netlist(self, tmp_path, capsys, fig4):
        """The Figure-4 baseline, saved and re-checked, must fail."""
        from repro.core.baseline import baseline_synthesize

        netlist = netlist_from_implementation(baseline_synthesize(fig4), "C")
        saved = tmp_path / "bad.json"
        save_netlist(netlist, str(saved))
        # spec as .g: write the fig4 STG equivalent -- easier: go through
        # the library API instead of the CLI for the spec side
        report = verify_speed_independence(load_netlist(str(saved)), fig4)
        assert not report.hazard_free
