"""Unit tests for the 4-valued labelling encoding."""

import pytest

from repro.core.assignment import (
    LabelEncoding,
    allowed_pair,
    lifted_phases,
    phases,
)


class TestLabelTables:
    def test_phases(self):
        assert phases("0") == (0,)
        assert phases("1") == (1,)
        assert phases("U") == (0, 1)
        assert phases("D") == (1, 0)

    @pytest.mark.parametrize(
        "pair", [("0", "0"), ("0", "U"), ("0", "D"), ("U", "U"),
                 ("1", "1"), ("1", "D"), ("1", "U"), ("D", "D")]
    )
    def test_always_legal(self, pair):
        assert allowed_pair(*pair, is_input_event=True)
        assert allowed_pair(*pair, is_input_event=False)

    @pytest.mark.parametrize(
        "pair", [("U", "1"), ("U", "D"), ("D", "0"), ("D", "U")]
    )
    def test_delay_pairs_forbidden_for_inputs(self, pair):
        assert not allowed_pair(*pair, is_input_event=True)
        assert allowed_pair(*pair, is_input_event=False)

    @pytest.mark.parametrize(
        "pair", [("0", "1"), ("1", "0"), ("U", "0"), ("D", "1")]
    )
    def test_never_legal(self, pair):
        assert not allowed_pair(*pair, is_input_event=True)
        assert not allowed_pair(*pair, is_input_event=False)

    def test_lifted_phases_shared(self):
        assert lifted_phases("0", "0") == (0,)
        assert lifted_phases("U", "U") == (0, 1)
        assert lifted_phases("U", "1") == (1,)   # delayed at phase 0
        assert lifted_phases("U", "D") == (1,)   # phase-0 lift would kill x+
        assert lifted_phases("D", "U") == (0,)
        assert lifted_phases("D", "0") == (0,)
        assert lifted_phases("1", "U") == (1,)
        assert lifted_phases("0", "D") == (0,)


class TestEncoding:
    def test_models_obey_edge_rules(self, toggle_sg):
        encoding = LabelEncoding(toggle_sg)
        for _ in range(10):
            labelling = encoding.solve()
            if labelling is None:
                break
            for source, event, target in toggle_sg.arcs():
                assert allowed_pair(
                    labelling[source],
                    labelling[target],
                    event.signal in toggle_sg.inputs,
                ), (labelling, source, target)
            assert "U" in labelling.values()
            assert "D" in labelling.values()
            encoding.forbid_model(labelling)

    def test_require_label(self, toggle_sg):
        encoding = LabelEncoding(toggle_sg)
        encoding.require_label("s1", ("U",))
        labelling = encoding.solve()
        assert labelling is not None and labelling["s1"] == "U"

    def test_require_distinct_values(self, toggle_sg):
        encoding = LabelEncoding(toggle_sg)
        encoding.require_distinct_values("s0", "s2")
        labelling = encoding.solve()
        assert labelling is not None
        assert {labelling["s0"], labelling["s2"]} == {"0", "1"}

    def test_forbid_model_enumerates_distinct(self, toggle_sg):
        encoding = LabelEncoding(toggle_sg)
        seen = set()
        for _ in range(5):
            labelling = encoding.solve()
            if labelling is None:
                break
            key = tuple(sorted(labelling.items()))
            assert key not in seen
            seen.add(key)
            encoding.forbid_model(labelling)
        assert len(seen) >= 2

    def test_unsatisfiable_constraints(self, toggle_sg):
        encoding = LabelEncoding(toggle_sg)
        encoding.require_label("s0", ("0",))
        encoding.require_label("s0", ("1",))
        assert encoding.solve() is None

    def test_blocking_clause_ignores_dict_order(self, toggle_sg):
        """Equal labellings in different dict orders block with the same
        clause: a clause's first literals choose its watches."""
        encoding = LabelEncoding(toggle_sg)
        labelling = encoding.solve()
        reordered = dict(reversed(list(labelling.items())))
        assert list(reordered) != list(labelling)
        encoding.forbid_model(labelling)
        encoding.forbid_model(reordered)
        assert encoding.cnf.clauses[-1] == encoding.cnf.clauses[-2]

    def test_decoded_labelling_follows_canonical_state_order(self, toggle_sg):
        encoding = LabelEncoding(toggle_sg)
        assert encoding.states == sorted(toggle_sg.states, key=str)
        assert list(encoding.solve()) == encoding.states
