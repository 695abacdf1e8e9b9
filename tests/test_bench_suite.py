"""Tests for the Table-1 benchmark suite and the pipeline driver."""

import json

import pytest

from repro.bench.suite import (
    BENCHMARKS,
    format_table1,
    load_benchmark,
    paper_row,
    run_pipeline,
    run_table1,
    update_pipeline_json,
)
from repro.sg.properties import is_output_semi_modular
from repro.stg.reachability import stg_to_state_graph


class TestRegistry:
    def test_nine_designs(self):
        assert len(BENCHMARKS) == 9

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_benchmark("nonexistent")

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_interface_sizes_match_table1(self, name):
        stg = load_benchmark(name)
        inputs, outputs, _ = paper_row(name)
        assert len(stg.inputs) == inputs, name
        assert len(stg.non_inputs) == outputs, name

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_designs_elaborate_cleanly(self, name):
        sg = stg_to_state_graph(load_benchmark(name))
        sg.check()
        assert is_output_semi_modular(sg), name


class TestPipeline:
    @pytest.mark.parametrize("name", ["delement", "luciano", "berkel2"])
    def test_added_signal_counts(self, name):
        result = run_pipeline(name, verify=False)
        assert result.added_signals == paper_row(name)[2], name

    def test_mp_forward_pkt_needs_nothing(self):
        result = run_pipeline("mp-forward-pkt", verify=False)
        assert result.added_signals == 0
        assert result.insertion.sg is result.spec_sg

    def test_pipeline_row(self):
        result = run_pipeline("delement", verify=False)
        assert result.row == ("delement", 2, 2, 1)

    def test_verification_included(self):
        result = run_pipeline("delement", verify=True, style="RS")
        assert result.hazard_report is not None
        assert result.hazard_report.hazard_free


class TestFormatting:
    def test_table_format(self):
        results = run_table1(verify=False, names=["delement", "luciano"])
        table = format_table1(results)
        assert "delement" in table
        assert "luciano" in table
        assert "paper" in table.splitlines()[0]


class TestUpdatePipelineJson:
    @pytest.mark.parametrize(
        "content", [b'{"hotpath": {"frozen": [1, 2', b"[1, 2]\n"]
    )
    def test_unreadable_file_raises_and_is_kept(self, tmp_path, content):
        path = tmp_path / "BENCH_pipeline.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="BENCH_pipeline.json"):
            update_pipeline_json("table1", [], path=str(path))
        assert path.read_bytes() == content
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_update_keeps_other_sections(self, tmp_path):
        path = tmp_path / "BENCH_pipeline.json"
        update_pipeline_json("hotpath", {"frozen": [1, 2]}, path=str(path))
        update_pipeline_json("hazard-sim", {"ratio": 3.5}, path=str(path))
        update_pipeline_json("table1", [{"name": "delement"}], path=str(path))
        document = json.loads(path.read_text())
        assert document["hotpath"] == {"frozen": [1, 2]}
        assert document["hazard-sim"] == {"ratio": 3.5}
        assert document["table1"] == [{"name": "delement"}]
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
