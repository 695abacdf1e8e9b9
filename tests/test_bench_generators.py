"""Tests for the parameterised specification generators.

The families live in :mod:`repro.corpus.families`; these tests pin the
classic trio's shapes and their behaviour through the synthesis flow.
"""

import pytest

from repro.corpus import alternator, concurrent_fork, token_ring
from repro.core.mc import analyze_mc
from repro.sg.csc import has_csc
from repro.sg.properties import is_output_semi_modular
from repro.stg.reachability import stg_to_state_graph
from repro.stg.structural import is_free_choice, is_live_and_safe, is_marked_graph


class TestTokenRing:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_shape(self, n):
        stg = token_ring(n)
        assert len(stg.inputs) == n
        assert len(stg.outputs) == n
        sg = stg_to_state_graph(stg)
        assert len(sg) == 4 * n
        assert is_output_semi_modular(sg)

    @pytest.mark.parametrize("n", [3, 8, 12])
    def test_mc_clean(self, n):
        assert analyze_mc(stg_to_state_graph(token_ring(n))).satisfied

    def test_structural(self):
        stg = token_ring(4)
        assert is_marked_graph(stg.net)
        assert is_live_and_safe(stg)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            token_ring(0)


class TestConcurrentFork:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shape(self, n):
        stg = concurrent_fork(n)
        sg = stg_to_state_graph(stg)
        assert is_output_semi_modular(sg)
        assert has_csc(sg)
        # the diamond of n concurrent handshakes appears in the count
        assert len(sg) >= 2 ** n

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_mc_clean(self, n):
        assert analyze_mc(stg_to_state_graph(concurrent_fork(n))).satisfied

    def test_free_choice(self):
        assert is_free_choice(concurrent_fork(3).net)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            concurrent_fork(0)


class TestAlternator:
    @pytest.mark.parametrize("n,expected_states", [(2, 8), (3, 12), (4, 16)])
    def test_shape(self, n, expected_states):
        sg = stg_to_state_graph(alternator(n))
        assert len(sg) == expected_states
        assert is_output_semi_modular(sg)

    def test_needs_insertion(self):
        sg = stg_to_state_graph(alternator(2))
        assert not analyze_mc(sg).satisfied

    @pytest.mark.parametrize("n,expected_signals", [(2, 1), (3, 2)])
    def test_inserted_signal_count(self, n, expected_signals):
        """Two ways match luciano (one signal); three ways need two."""
        from repro.core.insertion import insert_state_signals

        sg = stg_to_state_graph(alternator(n))
        result = insert_state_signals(sg, max_models=400)
        assert len(result.added_signals) == expected_signals

    def test_rejects_one_way(self):
        with pytest.raises(ValueError):
            alternator(1)


class TestSeriesParallel:
    @pytest.mark.parametrize("seed", range(8))
    def test_generated_specs_are_wellformed(self, seed):
        from repro.corpus import random_series_parallel
        from repro.stg.structural import is_live_and_safe

        stg = random_series_parallel(seed, leaves=4)
        assert is_live_and_safe(stg)
        sg = stg_to_state_graph(stg)
        sg.check()
        assert is_output_semi_modular(sg)
        # MC analysis must complete (satisfied or not) without error
        analyze_mc(sg)

    @pytest.mark.parametrize("seed", range(5))
    def test_regions_synthesis_roundtrips_generated_specs(self, seed):
        from repro.corpus import random_series_parallel
        from repro.sg.conformance import trace_equivalent
        from repro.stg.synthesis import NotSynthesizableError, stg_from_state_graph

        sg = stg_to_state_graph(random_series_parallel(seed, leaves=3))
        try:
            stg = stg_from_state_graph(sg)
        except NotSynthesizableError:
            pytest.skip("needs label splitting")
        assert trace_equivalent(stg_to_state_graph(stg), sg)

    def test_deterministic_per_seed(self):
        from repro.corpus import random_series_parallel
        from repro.stg.writer import dumps_g

        assert dumps_g(random_series_parallel(3)) == dumps_g(
            random_series_parallel(3)
        )

    def test_pipeline_repairs_a_generated_spec(self):
        """End-to-end on a generated controller: two signals inserted,
        hazard-free (seed chosen for speed; larger seeds work too)."""
        from repro import synthesize_from_state_graph
        from repro.corpus import random_series_parallel

        sg = stg_to_state_graph(random_series_parallel(2, leaves=2))
        result = synthesize_from_state_graph(sg, max_models=300)
        assert len(result.added_signals) == 2
        assert result.hazard_free

