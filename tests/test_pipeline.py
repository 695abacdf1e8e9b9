"""The staged pipeline: stages, memoization, engines, budgets, wrappers."""

import pytest

from repro import SynthesisResult, synthesize_from_state_graph
from repro.bench.suite import load_benchmark, run_pipeline
from repro.pipeline import (
    AnalysisContext,
    MCVerdict,
    Pipeline,
    PipelineSpec,
    STAGES,
    get_backend,
)
from repro.stg.reachability import stg_to_state_graph
from repro.verify.budget import Budget, BudgetExceeded
from repro.verify.differential import diff_state_graph

pytestmark = pytest.mark.smoke


# ----------------------------------------------------------------------
# Analysis engine and reference oracle
# ----------------------------------------------------------------------
class TestBackends:
    def test_get_backend_by_name_and_default(self):
        assert get_backend(None).name == "bitengine"
        assert get_backend("reference").name == "reference"

    def test_get_backend_unknown_name(self):
        with pytest.raises(KeyError, match="bitengine"):
            get_backend("quantum")

    def test_backends_agree_on_benchmark(self, fig3):
        """The two analysis worlds must produce identical artifacts."""
        reports = {
            name: Pipeline(AnalysisContext(backend=name))
            .run(fig3, until="mc")
            .report
            for name in ("bitengine", "reference")
        }
        dumps = {name: r.to_json() for name, r in reports.items()}
        assert dumps["bitengine"] == dumps["reference"]


# ----------------------------------------------------------------------
# PipelineSpec
# ----------------------------------------------------------------------
class TestPipelineSpec:
    def test_requires_exactly_one_entry_point(self, fig3):
        with pytest.raises(ValueError, match="exactly one"):
            PipelineSpec()
        with pytest.raises(ValueError, match="exactly one"):
            PipelineSpec(stg=load_benchmark("delement"), sg=fig3)

    def test_name_defaults_to_source_name(self, fig3):
        assert PipelineSpec.from_state_graph(fig3).name == fig3.name
        assert PipelineSpec.from_benchmark("delement").name == "delement"

    def test_unknown_stage_rejected(self, fig3):
        with pytest.raises(ValueError, match="unknown stage"):
            Pipeline().run(fig3, until="synthesis")
        assert STAGES == ("reach", "regions", "mc", "covers", "netlist")


# ----------------------------------------------------------------------
# Stage memoization (the fingerprint chain)
# ----------------------------------------------------------------------
class TestMemoization:
    def test_regions_analyzed_once_per_context(self, fig3):
        """The acceptance criterion: two runs, one region analysis."""
        context = AnalysisContext()
        pipeline = Pipeline(context)
        spec = PipelineSpec.from_state_graph(fig3)
        first = pipeline.run(spec, until="regions")
        second = pipeline.run(spec, until="regions")
        assert first is second
        assert context.cache_hits_by_stage["regions"] == 1
        assert context.cache_misses_by_stage["regions"] == 1

    def test_full_rerun_is_all_hits(self):
        context = AnalysisContext()
        pipeline = Pipeline(context)
        spec = PipelineSpec.from_benchmark("delement")
        pipeline.run(spec)
        misses_after_first = dict(context.cache_misses_by_stage)
        pipeline.run(spec)
        assert context.cache_misses_by_stage == misses_after_first
        assert all(
            context.cache_hits_by_stage.get(stage, 0) >= 1 for stage in STAGES
        )

    def test_style_change_invalidates_exactly_netlist(self):
        """An option feeding only the last stage reuses everything above."""
        context = AnalysisContext()
        pipeline = Pipeline(context)
        spec = PipelineSpec.from_benchmark("delement")
        pipeline.run(spec)
        pipeline.run(spec.with_options(style="RS"))
        assert context.cache_misses_by_stage["netlist"] == 2
        for stage in ("reach", "regions", "mc", "covers"):
            assert context.cache_misses_by_stage[stage] == 1, stage

    def test_unchanged_covers_rekey_to_cached_netlist(self):
        """Content addressing: a covers re-run with a changed option that
        produces the *same* plan fingerprints identically, so the netlist
        stage downstream still hits."""
        context = AnalysisContext()
        pipeline = Pipeline(context)
        spec = PipelineSpec.from_benchmark("delement")
        pipeline.run(spec)
        pipeline.run(spec.with_options(max_models=spec.max_models + 1))
        assert context.cache_misses_by_stage["covers"] == 2
        assert context.cache_misses_by_stage["netlist"] == 1

    def test_structurally_identical_graph_hits(self):
        """Two elaborations of one STG share every stage artifact."""
        stg = load_benchmark("delement")
        context = AnalysisContext()
        pipeline = Pipeline(context)
        pipeline.run(stg_to_state_graph(stg), until="mc")
        pipeline.run(stg_to_state_graph(stg), until="mc")
        assert context.cache_misses_by_stage["mc"] == 1
        assert context.cache_hits_by_stage["mc"] == 1

    def test_mutated_spec_recomputes(self, fig3, fig4):
        """A different specification shares nothing."""
        context = AnalysisContext()
        pipeline = Pipeline(context)
        pipeline.run(fig3, until="mc")
        pipeline.run(fig4, until="mc")
        assert context.cache_misses_by_stage["mc"] == 2
        assert context.cache_hits_by_stage.get("mc", 0) == 0

    def test_backend_keys_the_mc_stage(self, fig3):
        """Same upstream artifacts, different backend: mc recomputes."""
        context = AnalysisContext()
        Pipeline(context).run(fig3, until="mc")
        context.backend = get_backend("reference")
        verdict = Pipeline(context).run(fig3, until="mc")
        assert isinstance(verdict, MCVerdict)
        assert verdict.backend == "reference"
        assert context.cache_misses_by_stage["mc"] == 2
        assert context.cache_misses_by_stage["regions"] == 1

    def test_clear_cache_keeps_counters(self, fig3):
        context = AnalysisContext()
        pipeline = Pipeline(context)
        pipeline.run(fig3, until="regions")
        context.clear_cache()
        pipeline.run(fig3, until="regions")
        assert context.cache_misses_by_stage["regions"] == 2
        assert context.cache_info()["regions"] == (0, 2)


# ----------------------------------------------------------------------
# Budgets: one clock, one state meter (the double-bookkeeping fix)
# ----------------------------------------------------------------------
class TestBudgetSingleCharge:
    def test_nested_pipeline_charges_states_exactly_once(self):
        """Nesting the pipeline inside a verify flow must not double-charge:
        the context's budget is the only meter, charged in the stage that
        does the work and nowhere else."""
        stg = load_benchmark("delement")
        sg = stg_to_state_graph(stg)
        budget = Budget(max_states=10**9)
        budget.charge_states(len(sg.state_list), "specification elaboration")
        context = AnalysisContext(budget=budget)
        result = synthesize_from_state_graph(sg, context=context)
        expected = len(sg.state_list) + len(
            result.hazard_report.circuit_sg.state_list
        )
        assert budget.charged_states == expected
        # a re-run over the same context is pure cache: nothing re-charged
        synthesize_from_state_graph(sg, context=context)
        assert budget.charged_states == expected

    def test_differential_campaign_budget_is_shared(self, fig3):
        """diff_state_graph nests two pipelines (one per backend) inside
        the campaign's budget; the design's states are charged once."""
        budget = Budget(max_states=10**9)
        record = diff_state_graph(fig3, budget=budget, repair=False)
        assert record.agree
        assert budget.charged_states == len(fig3.state_list)

    def test_wallclock_check_trips_in_netlist_stage(self):
        sg = stg_to_state_graph(load_benchmark("delement"))
        context = AnalysisContext(budget=Budget(max_seconds=0.0))
        with pytest.raises(BudgetExceeded, match="speed-independence check"):
            synthesize_from_state_graph(sg, context=context)


# ----------------------------------------------------------------------
# Budget-lowered caps must not poison shared caches
# ----------------------------------------------------------------------
class TestBudgetCapCacheIsolation:
    def test_truncated_hazard_report_is_not_cached(self, tmp_path):
        """A drained budget lowers the hazard-check cap below the spec's
        verify_max_states; the truncated report it produces must not be
        served to later full-budget runs sharing the memo or store."""
        stg = load_benchmark("delement")
        spec = PipelineSpec.from_stg(stg)
        reach_states = len(stg_to_state_graph(stg).state_list)
        memo = {}
        store = str(tmp_path / "store")

        # after elaboration this budget leaves 1 state for the check
        lean = AnalysisContext(
            budget=Budget(max_states=reach_states + 1),
            memo=memo, store=store,
        )
        truncated = Pipeline(lean).run(spec)
        assert truncated.hazard_report.composition.truncated
        assert not truncated.hazard_report.hazard_free

        # a full-budget run over the same caches must recompute, not
        # inherit the truncated verdict
        rich = AnalysisContext(memo=memo, store=store)
        full = Pipeline(rich).run(spec)
        assert not full.hazard_report.composition.truncated
        assert full.hazard_report.hazard_free
        assert rich.cache_misses_by_stage["netlist"] == 1

    def test_lowered_but_sufficient_cap_still_caches(self):
        """When the lowered cap does not actually truncate, the artifact
        is identical to the full-cap one and stays cacheable -- the warm
        path the service's latency gate depends on."""
        stg = load_benchmark("delement")
        spec = PipelineSpec.from_stg(stg)
        memo = {}

        bounded = AnalysisContext(budget=Budget(max_states=50_000), memo=memo)
        first = Pipeline(bounded).run(spec)
        assert not first.hazard_report.composition.truncated

        sharer = AnalysisContext(memo=memo)
        second = Pipeline(sharer).run(spec)
        assert second is first
        assert sharer.cache_hits_by_stage["netlist"] == 1


# ----------------------------------------------------------------------
# JSON round-trips (shared serialization layer)
# ----------------------------------------------------------------------
class TestJsonRoundTrip:
    def test_mc_report_round_trip(self, fig4):
        from repro.core.mc import MCReport, analyze_mc

        report = analyze_mc(fig4)
        data = report.to_json()
        assert MCReport.from_json(data).to_json() == data
        assert data["satisfied"] is False

    def test_synthesis_result_round_trip(self, component_result):
        result = component_result("mutex_free_merge")
        data = result.to_json()
        rebuilt = SynthesisResult.from_json(data)
        assert rebuilt.to_json() == data
        assert rebuilt.hazard_free == result.hazard_free
        assert list(rebuilt.added_signals) == list(result.added_signals)

    def test_pipeline_result_round_trip(self, pipeline):
        from repro.bench.suite import PipelineResult

        result = pipeline("delement", verify=True)
        data = result.to_json()
        rebuilt = PipelineResult.from_json(data)
        assert rebuilt.to_json() == data
        assert rebuilt.row == result.row

    def test_table1_payload_uses_structured_rows(self, pipeline):
        from repro.bench.suite import table1_payload

        result = pipeline("delement", verify=True)
        assert table1_payload([result]) == [result.to_json()]


# ----------------------------------------------------------------------
# Wrappers and the package surface
# ----------------------------------------------------------------------
class TestCompatSurface:
    def test_wrapper_output_shape_unchanged(self, component_result):
        result = component_result("mutex_free_merge")
        assert isinstance(result, SynthesisResult)
        assert result.implementation.equations()
        assert result.hazard_report is not None

    def test_run_pipeline_accepts_shared_context(self):
        context = AnalysisContext()
        first = run_pipeline("delement", context=context)
        second = run_pipeline("delement", context=context)
        assert first.row == second.row
        assert context.cache_hits_by_stage["covers"] >= 1

    def test_verify_package_getattr_unknown_name(self):
        import repro.verify as verify

        with pytest.raises(AttributeError):
            verify.no_such_analysis


# ----------------------------------------------------------------------
# perf.recording scoping
# ----------------------------------------------------------------------
class TestPerfRecording:
    def test_recording_installs_and_restores(self):
        from repro import perf

        outer = perf.active()
        recorder = perf.PerfRecorder()
        with perf.recording(recorder) as active:
            assert active is recorder
            assert perf.active() is recorder
        assert perf.active() is outer

    def test_recording_none_is_noop(self):
        from repro import perf

        before = perf.active()
        with perf.recording(None) as active:
            assert active is None
            assert perf.active() is before

    def test_context_recorder_scoped_to_run(self, fig3):
        from repro import perf

        recorder = perf.PerfRecorder()
        context = AnalysisContext(recorder=recorder)
        Pipeline(context).run(fig3, until="regions")
        assert perf.active() is not recorder
        assert "regions" in recorder.phases
