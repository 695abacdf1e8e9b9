"""The retained reference path must match the bitengine claim-for-claim."""

import pytest

from repro.corpus import alternator, concurrent_fork, token_ring
from repro.bench.suite import load_benchmark
from repro.core.mc import analyze_mc
from repro.stg.reachability import stg_to_state_graph
from repro.pipeline.backends.reference import analyze_mc_reference
from repro.verify.differential import diff_reports

pytestmark = pytest.mark.smoke


def assert_paths_agree(sg):
    fast = analyze_mc(sg)
    reference = analyze_mc_reference(sg)
    mismatches = diff_reports(fast, reference, label=sg.name)
    assert not mismatches, "\n".join(mismatches)
    return fast, reference


class TestPaperFigures:
    def test_figure3_satisfied_and_identical(self, fig3):
        fast, reference = assert_paths_agree(fig3)
        assert fast.satisfied and reference.satisfied

    def test_figure4_violation_diagnostics_match(self, fig4):
        """The stuck-state diagnostics drive the insertion engine, so the
        reference must reproduce them exactly, not just the verdict."""
        fast, reference = assert_paths_agree(fig4)
        assert not fast.satisfied
        fast_failed = [v for v in fast.verdicts if v.mc_cube is None]
        ref_failed = [v for v in reference.verdicts if v.mc_cube is None]
        assert len(fast_failed) == len(ref_failed) >= 1


class TestBenchmarks:
    @pytest.mark.parametrize("name", ["delement", "nowick", "luciano"])
    def test_benchmark_graphs_agree(self, name):
        stg = load_benchmark(name)
        assert_paths_agree(stg_to_state_graph(stg))


class TestParametricFamilies:
    def test_token_ring(self):
        assert_paths_agree(stg_to_state_graph(token_ring(4)))

    def test_concurrent_fork(self):
        assert_paths_agree(stg_to_state_graph(concurrent_fork(3)))

    def test_alternator(self):
        assert_paths_agree(stg_to_state_graph(alternator(3)))


class TestSelectedCubes:
    def test_same_cube_chosen_per_region(self, fig3):
        """Claim-for-claim: the *same* cube, not just some valid cube."""
        fast = analyze_mc(fig3)
        reference = analyze_mc_reference(fig3)
        fast_cubes = {
            (v.er.signal, v.er.direction, v.er.index): repr(v.mc_cube)
            for v in fast.verdicts
        }
        ref_cubes = {
            (v.er.signal, v.er.direction, v.er.index): repr(v.mc_cube)
            for v in reference.verdicts
        }
        assert fast_cubes == ref_cubes

