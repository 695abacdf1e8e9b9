"""Unit tests for expansion and state-signal insertion."""

import pytest

from repro.core.insertion import (
    InsertionError,
    expand_with_signal,
    insert_state_signals,
    labelling_from_partition,
    project_away,
)
from repro.core.mc import analyze_mc
from repro.sg.properties import is_output_semi_modular


def simple_labelling(sg, u_state, d_state):
    """x rises inside u_state, falls inside d_state, 1 in between."""
    order = {}
    # propagate: walk the cycle assigning 0 before u, 1 after, 0 after d
    labels = {}
    for state in sg.states:
        labels[state] = None
    labels[u_state] = "U"
    labels[d_state] = "D"
    # BFS from u_state forward until d_state: value 1
    frontier = [t for _, t in sg.arcs_from(u_state)]
    while frontier:
        s = frontier.pop()
        if labels[s] is not None:
            continue
        labels[s] = "1"
        frontier += [t for _, t in sg.arcs_from(s)]
    for state in sg.states:
        if labels[state] is None:
            labels[state] = "0"
    return labels


class TestExpansion:
    def test_toggle_expansion_shape(self, toggle_sg):
        labelling = {"s0": "0", "s1": "U", "s2": "1", "s3": "D"}
        expanded = expand_with_signal(toggle_sg, labelling, "x")
        # s1 and s3 split; q+ is delayed at (s1, 0)
        assert len(expanded) == 6
        assert expanded.signals == ("r", "q", "x")
        assert "x" in expanded.non_inputs

    def test_expansion_consistency(self, toggle_sg):
        labelling = {"s0": "0", "s1": "U", "s2": "1", "s3": "D"}
        expanded = expand_with_signal(toggle_sg, labelling, "x")
        expanded.check()

    def test_duplicate_signal_name_rejected(self, toggle_sg):
        with pytest.raises(ValueError):
            expand_with_signal(toggle_sg, {s: "0" for s in toggle_sg.states}, "q")

    def test_missing_label_rejected(self, toggle_sg):
        with pytest.raises(ValueError):
            expand_with_signal(toggle_sg, {"s0": "0"}, "x")

    def test_bad_label_rejected(self, toggle_sg):
        labels = {s: "0" for s in toggle_sg.states}
        labels["s0"] = "Z"
        with pytest.raises(ValueError):
            expand_with_signal(toggle_sg, labels, "x")

    def test_illegal_jump_rejected(self, toggle_sg):
        # 0 -> 1 along an arc with no U in between
        labels = {"s0": "0", "s1": "1", "s2": "1", "s3": "D"}
        with pytest.raises(ValueError):
            expand_with_signal(toggle_sg, labels, "x")

    def test_input_delay_rejected(self, toggle_sg):
        # s2 --r--> s3 with (U, 1) would delay input r
        labels = {"s0": "0", "s1": "0", "s2": "U", "s3": "1"}
        with pytest.raises(ValueError):
            expand_with_signal(toggle_sg, labels, "x")

    def test_projection_restores_original(self, toggle_sg):
        labelling = {"s0": "0", "s1": "U", "s2": "1", "s3": "D"}
        expanded = expand_with_signal(toggle_sg, labelling, "x")
        back = project_away(expanded, "x")
        original_arcs = {
            (toggle_sg.code(s), str(e), toggle_sg.code(t))
            for s, e, t in toggle_sg.arcs()
        }
        projected_arcs = {
            (back.code(s), str(e), back.code(t)) for s, e, t in back.arcs()
        }
        assert original_arcs == projected_arcs

    def test_project_away_input_rejected(self, toggle_sg):
        with pytest.raises(ValueError):
            project_away(toggle_sg, "r")


class TestPartitionLabelling:
    def test_boundary_absorption(self, toggle_sg):
        partition = {"s0": 0, "s1": 1, "s2": 1, "s3": 0}
        labelling = labelling_from_partition(toggle_sg, partition)
        assert labelling is not None
        assert labelling["s1"] == "U"
        assert labelling["s3"] == "D"
        assert labelling["s0"] == "0"
        assert labelling["s2"] == "1"

    def test_constant_partition_rejected(self, toggle_sg):
        partition = {s: 0 for s in toggle_sg.states}
        assert labelling_from_partition(toggle_sg, partition) is None

    def test_closure_over_input_arcs(self, choice_sg):
        # flip between sa1 (after a+) and the rest; the closure must
        # produce a valid labelling or reject -- never crash
        partition = {s: 0 for s in choice_sg.states}
        partition["sa1"] = 1
        partition["sa2"] = 1
        result = labelling_from_partition(choice_sg, partition)
        if result is not None:
            expand_with_signal(choice_sg, result, "x")


class TestInsertion:
    def test_fig1_needs_exactly_one_signal(self, fig1):
        """The paper: 'it is sufficient to add only one signal x'."""
        result = insert_state_signals(fig1, max_models=400)
        assert result.added_signals == ["x"]
        assert result.satisfied
        assert analyze_mc(result.sg).satisfied

    def test_fig4_needs_exactly_one_signal(self, fig4):
        """The paper: 'MC ... can remove the hazard by adding one signal'."""
        result = insert_state_signals(fig4, max_models=400)
        assert len(result.added_signals) == 1

    def test_insertion_preserves_output_semi_modularity(self, fig1):
        result = insert_state_signals(fig1, max_models=400)
        assert is_output_semi_modular(result.sg)

    def test_insertion_preserves_behaviour(self, fig1):
        """Hiding the inserted signal gives back Figure 1 exactly."""
        result = insert_state_signals(fig1, max_models=400)
        projected = project_away(result.sg, result.added_signals[0])
        original = {
            (fig1.code(s), str(e), fig1.code(t)) for s, e, t in fig1.arcs()
        }
        back = {
            (projected.code(s), str(e), projected.code(t))
            for s, e, t in projected.arcs()
        }
        assert original == back

    def test_satisfied_graph_unchanged(self, fig3):
        result = insert_state_signals(fig3)
        assert result.added_signals == []
        assert result.sg is fig3

    def test_insertion_records_rounds(self, fig4):
        result = insert_state_signals(fig4, max_models=400)
        assert len(result.rounds) == 1
        round_ = result.rounds[0]
        assert round_.signal == "x"
        assert round_.failures_after == 0
        assert round_.models_tried >= 1

    def test_budget_exhaustion_raises(self, fig1):
        with pytest.raises(InsertionError):
            insert_state_signals(fig1, max_signals=0)


class TestLazyCandidateEncodings:
    @staticmethod
    def spec_graph(name):
        from repro.bench.suite import load_benchmark
        from repro.stg.reachability import stg_to_state_graph

        return stg_to_state_graph(load_benchmark(name))

    def test_lazy_sequence_equals_eager(self):
        """Building each encoding just before its first solve yields
        nowick's first-round labellings in exactly the eager order."""
        from repro.core.insertion import _candidate_encodings, _round_robin

        sg = self.spec_graph("nowick")
        report = analyze_mc(sg)
        eager = list(_round_robin(list(_candidate_encodings(sg, report)), 20))
        lazy = list(_round_robin(_candidate_encodings(sg, report), 20))
        assert len(eager) > 100
        assert [list(l.items()) for l in lazy] == [list(l.items()) for l in eager]

    def test_every_built_encoding_is_solved(self, monkeypatch):
        """berkel3 needs the encoding sweep (nowick stops at a partition
        candidate); no encoding is built without being solved."""
        from repro.core.assignment import LabelEncoding

        built, solved = [], set()
        real_init, real_solve = LabelEncoding.__init__, LabelEncoding.solve

        def init(self, sg):
            built.append(self)
            real_init(self, sg)

        def solve(self, *args, **kwargs):
            solved.add(id(self))
            return real_solve(self, *args, **kwargs)

        monkeypatch.setattr(LabelEncoding, "__init__", init)
        monkeypatch.setattr(LabelEncoding, "solve", solve)
        result = insert_state_signals(self.spec_graph("berkel3"))
        assert result.satisfied
        assert built
        assert len(built) == len(solved)
