"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main

pytestmark = pytest.mark.smoke

DATA = os.path.join(
    os.path.dirname(__file__), "..", "src", "repro", "bench", "data"
)


def spec(name):
    return os.path.join(DATA, name)


class TestInfo:
    def test_info_reports_properties(self, capsys):
        assert main(["info", spec("delement.g")]) == 0
        out = capsys.readouterr().out
        assert "output semi-modular : True" in out
        assert "MC analysis" in out
        assert "VIOLATED" in out

    def test_info_dot_export(self, tmp_path, capsys):
        dot = tmp_path / "sg.dot"
        assert main(["info", spec("delement.g"), "--dot", str(dot)]) == 0
        assert dot.read_text().startswith("digraph")


class TestSynth:
    def test_synth_clean_design(self, capsys):
        assert main(["synth", spec("mp-forward-pkt.g")]) == 0
        out = capsys.readouterr().out
        assert "HAZARD-FREE" in out
        assert "= C(" in out

    def test_synth_with_insertion(self, capsys):
        assert main(["synth", spec("delement.g"), "--share"]) == 0
        out = capsys.readouterr().out
        assert "state signal(s) inserted: x" in out

    def test_synth_exports(self, tmp_path, capsys):
        verilog = tmp_path / "out.v"
        dot = tmp_path / "net.dot"
        code = main(
            [
                "synth",
                spec("delement.g"),
                "--verilog",
                str(verilog),
                "--dot",
                str(dot),
            ]
        )
        assert code == 0
        assert "module" in verilog.read_text()
        assert dot.read_text().startswith("digraph")

    def test_synth_no_verify(self, capsys):
        assert main(["synth", spec("luciano.g"), "--no-verify"]) == 0
        out = capsys.readouterr().out
        assert "speed-independence check" not in out


class TestVerifyAndSimulate:
    def test_verify_exit_code_zero(self, capsys):
        assert main(["verify", spec("berkel2.g")]) == 0

    def test_simulate(self, capsys):
        code = main(
            ["simulate", spec("delement.g"), "--runs", "3", "--events", "100"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 hazardous run(s)" in out


class TestTable1:
    def test_subset(self, capsys):
        assert main(["table1", "delement", "luciano", "--no-verify"]) == 0
        out = capsys.readouterr().out
        assert "delement" in out
        assert "luciano" in out

    def test_added_signal_mismatch_exits_one(self, monkeypatch, capsys):
        from repro.bench import suite

        real = suite.paper_row

        def off_by_one(name):
            inputs, outputs, added = real(name)
            return inputs, outputs, added + 1

        monkeypatch.setattr(suite, "paper_row", off_by_one)
        assert main(["table1", "delement", "--no-verify"]) == 1
        err = capsys.readouterr().err
        assert "delement adds 1 signal(s), the paper 2" in err

    def test_si_failure_exits_one_unless_no_verify(self, monkeypatch, capsys):
        from repro.netlist.hazards import HazardReport

        monkeypatch.setattr(HazardReport, "hazard_free", property(lambda self: False))
        assert main(["table1", "delement"]) == 1
        assert "delement is not speed-independent" in capsys.readouterr().err
        assert main(["table1", "delement", "--no-verify"]) == 0

    def test_unreadable_json_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "BENCH_pipeline.json"
        path.write_bytes(b'{"hotpath": ')
        args = ["table1", "delement", "--no-verify", "--json", str(path)]
        assert main(args) == 2
        assert "cannot write pipeline metrics" in capsys.readouterr().err
        assert path.read_bytes() == b'{"hotpath": '

    def test_unknown_design_is_a_usage_error(self, capsys):
        assert main(["table1", "delement", "nosuch"]) == 2
        captured = capsys.readouterr()
        assert "unknown design(s): nosuch; available: " in captured.err
        assert "delement" in captured.err.split("available:")[1]
        assert "running" not in captured.err
        assert captured.out == ""


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


class TestSaveStg:
    def test_repaired_spec_roundtrips(self, tmp_path, capsys):
        saved = tmp_path / "repaired.g"
        code = main(
            ["synth", spec("delement.g"), "--no-verify", "--save-stg", str(saved)]
        )
        assert code == 0
        from repro.core.mc import analyze_mc
        from repro.stg.parser import load_g
        from repro.stg.reachability import stg_to_state_graph

        back = stg_to_state_graph(load_g(str(saved)))
        assert analyze_mc(back).satisfied


def test_synth_area_flag(capsys):
    assert main(["synth", spec("delement.g"), "--no-verify", "--area"]) == 0
    out = capsys.readouterr().out
    assert "area estimate" in out and "TOTAL" in out


def test_synth_regions_flag(capsys):
    assert main(["synth", spec("berkel2.g"), "--no-verify", "--regions"]) == 0
    out = capsys.readouterr().out
    assert "region mapping" in out


class TestErrorPaths:
    """Load failures must exit 2 with a message, never a traceback."""

    def test_missing_spec_file(self, capsys):
        assert main(["verify", spec("no-such-design.g")]) == 2
        err = capsys.readouterr().err
        assert "cannot read specification" in err

    def test_malformed_g_file(self, tmp_path, capsys):
        bad = tmp_path / "broken.g"
        bad.write_text(".inputs a\nthis is not a transition line\n")
        assert main(["verify", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "malformed" in err or "invalid" in err

    def test_empty_g_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.g"
        empty.write_text("")
        assert main(["info", str(empty)]) == 2

    def test_missing_spec_for_every_loading_command(self, capsys):
        for argv in (
            ["info", spec("ghost.g")],
            ["synth", spec("ghost.g")],
            ["simulate", spec("ghost.g")],
        ):
            assert main(argv) == 2, argv
        capsys.readouterr()

    def test_check_with_missing_netlist(self, tmp_path, capsys):
        assert main(["check", spec("delement.g"), str(tmp_path / "no.json")]) == 2
        assert "netlist" in capsys.readouterr().err


class TestExitCodes:
    """0 = hazard-free, 1 = hazard, 2 = usage, 3 = inconclusive."""

    def test_budget_exceeded_is_inconclusive_not_hazard(self, capsys):
        code = main(["verify", spec("delement.g"), "--budget-states", "5"])
        assert code == 3
        err = capsys.readouterr().err
        assert "budget" in err.lower() or "marking" in err.lower()

    def test_time_budget_flag_accepted(self, capsys):
        code = main(["verify", spec("delement.g"), "--budget-seconds", "120"])
        assert code == 0

    def test_unsynthesizable_arbitration_exits_1(self, tmp_path, capsys):
        """Genuine arbitration is outside the theory: the insertion
        engine gives up and the CLI must report failure, not usage."""
        from repro.bench.components import mutex_request
        from repro.stg.writer import dumps_g

        bad = tmp_path / "mutex.g"
        bad.write_text(dumps_g(mutex_request()))
        assert main(["synth", str(bad), "--max-models", "5"]) == 1
        assert "synthesis failed" in capsys.readouterr().err

    def test_fault_models_on_mc_circuit_stay_clean(self, capsys):
        code = main(
            [
                "verify",
                spec("delement.g"),
                "--fault-model",
                "delay",
                "--fault-model",
                "stuck",
                "--fault-runs",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault injection" in out
        assert "all clean" in out


class TestDiffCommand:
    def test_diff_single_benchmark_agrees(self, capsys):
        code = main(["diff", "--count", "2", "--seed", "3", "--no-repair"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 DIVERGENT" in out

    def test_diff_impossible_budget_is_inconclusive(self, capsys):
        code = main(
            ["diff", "--count", "2", "--seed", "0", "--max-states", "2"]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "skipped" in out


class TestSeedValidation:
    """--seed must be a non-negative integer everywhere it appears."""

    @pytest.mark.parametrize("argv", [
        ["verify", "x.g", "--seed", "-1"],
        ["verify", "x.g", "--seed", "banana"],
        ["verify", "x.g", "--seed", "2.5"],
        ["simulate", "x.g", "--seed", "-3"],
        ["simulate", "x.g", "--seed", "many"],
        ["diff", "--count", "1", "--seed", "-1"],
        ["diff", "--count", "1", "--seed", "x"],
        ["batch", "--corpus", "c.json", "--seed", "-2"],
        ["batch", "--corpus", "c.json", "--seed", "abc"],
    ])
    def test_garbage_seeds_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "non-negative integer" in err or "invalid" in err

    def test_zero_seed_accepted(self, capsys):
        # seed 0 is legal (CI pins it); smallest diff run as a carrier
        assert main(["diff", "--count", "1", "--seed", "0"]) == 0


class TestVerifyOracle:
    def test_demorgan_only_clean(self, capsys):
        assert main(["verify", spec("luciano.g"), "--oracle", "demorgan"]) == 0
        out = capsys.readouterr().out
        assert "HAZARD-FREE (DeMorgan)" in out

    def test_both_oracles_agree(self, capsys):
        assert main(["verify", spec("nowick.g"), "--oracle", "both"]) == 0
        out = capsys.readouterr().out
        assert "demorgan oracle" in out
        assert "hazard-free" in out.lower()

    def test_unknown_oracle_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", spec("nowick.g"), "--oracle", "psychic"])
        assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["info", spec("delement.g")],
        ["synth", spec("delement.g")],
        ["verify", spec("delement.g")],
        ["table1", "delement"],
    ],
    ids=lambda argv: argv[0],
)
def test_store_path_that_is_a_file_is_a_usage_error(argv, tmp_path, capsys):
    """Every verb validates ``--store`` up front: exit 2, one line."""
    bogus = tmp_path / "not-a-dir"
    bogus.write_text("occupied")
    assert main(argv + ["--store", str(bogus)]) == 2
    err = capsys.readouterr().err
    assert err == f"repro-si: error: --store path {str(bogus)!r} is a file, not a directory\n"


def _fresh_modules(script):
    """The modules a fresh interpreter holds after running ``script``."""
    import json
    import subprocess
    import sys

    script += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=dict(
            os.environ,
            PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"),
        ),
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_cli_import_leaves_numpy_unloaded():
    """Every CLI start pays only for the dependency-free core."""
    assert "numpy" not in _fresh_modules("import repro.cli")


def test_cli_import_leaves_fractions_and_decimal_unloaded():
    """Net invariants use integer elimination, not rational arithmetic."""
    loaded = _fresh_modules("import repro.cli, repro.stg.invariants")
    assert sorted(m for m in ("fractions", "decimal") if m in loaded) == []


def test_cli_import_loads_no_synthesis_package():
    """``import repro.cli`` compiles the parser and the spec loader only;
    every package the verbs run resolves on first use."""
    packages = (
        "core", "netlist", "pipeline", "verify", "boolean", "sat",
        "corpus", "service", "bench",
    )
    loaded = _fresh_modules("import repro.cli")
    assert sorted(
        name for name in loaded
        if any(name == f"repro.{p}" or name.startswith(f"repro.{p}.") for p in packages)
    ) == []


def test_synth_loads_only_what_it_runs():
    """A ``synth`` process imports no batch, store, oracle or export code."""
    unused = [
        "multiprocessing", "concurrent.futures", "socket", "pickle",
        "logging", "subprocess",
        "repro.pipeline.batch", "repro.pipeline.store",
        "repro.pipeline.serialize", "repro.verify.differential",
        "repro.verify.faults", "repro.verify.hazard_free",
        "repro.netlist.render", "repro.stg.invariants",
        "repro.core.complexgate", "repro.boolean.minimize",
        "repro.sg.compose", "repro.netlist.simulate",
    ]
    loaded = _fresh_modules(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['synth', {spec('nak-pa.g')!r}, '--area']) == 0\n"
    )
    assert "repro.core.insertion" in loaded
    assert sorted(name for name in unused if name in loaded) == []
