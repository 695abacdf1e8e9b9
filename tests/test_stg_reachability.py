"""Unit tests for token-flow reachability and state-graph elaboration."""

import pytest

from repro.sg.csc import has_usc
from repro.sg.properties import is_output_semi_modular
from repro.stg.parser import parse_g
from repro.stg.reachability import ReachabilityError, explore, stg_to_state_graph

TOGGLE = """
.inputs r
.outputs q
.graph
r+ q+
q+ r-
r- q-
q- r+
.marking { <q-,r+> }
.end
"""

CONCURRENT = """
.inputs r
.outputs u v
.graph
r+ u+ v+
u+ r-
v+ r-
r- u- v-
u- r+
v- r+
.marking { <u-,r+> <v-,r+> }
.end
"""


class TestExplore:
    def test_toggle_has_four_markings(self):
        exploration = explore(parse_g(TOGGLE))
        assert len(exploration.markings) == 4
        assert len(exploration.arcs) == 4

    def test_concurrency_diamond(self):
        sg = stg_to_state_graph(parse_g(CONCURRENT))
        # r+ (u+ || v+) r- (u- || v-): 2 + 4*... states: let's count:
        # idle, after r+, {u,v} diamond (2 states), both up, after r-,
        # down diamond (2), = 8
        assert len(sg) == 8
        assert is_output_semi_modular(sg)

    def test_max_states_guard(self):
        with pytest.raises(ReachabilityError):
            explore(parse_g(CONCURRENT), max_states=3)

    def test_unsafe_net_rejected(self):
        text = """
        .inputs a
        .outputs b
        .graph
        p0 a+
        a+ p1 p0
        p1 b+
        b+ p2
        p2 a-
        a- b-
        b- p0
        .marking { p0 }
        .end
        """
        # firing a+ returns a token to p0 while it may still be marked
        with pytest.raises(ReachabilityError):
            stg_to_state_graph(parse_g(text))


class TestInitialValues:
    def test_inferred_from_first_edges(self):
        sg = stg_to_state_graph(parse_g(TOGGLE))
        assert sg.code(sg.initial) == (0, 0)

    def test_declared_value_conflict_rejected(self):
        text = TOGGLE.replace(".graph", ".initial r=1\n.graph")
        with pytest.raises(ReachabilityError):
            stg_to_state_graph(parse_g(text))

    def test_declared_value_for_constant_signal(self):
        text = """
        .inputs r en
        .outputs q
        .initial en=1
        .graph
        r+ q+
        q+ r-
        r- q-
        q- r+
        .marking { <q-,r+> }
        .end
        """
        sg = stg_to_state_graph(parse_g(text))
        assert sg.value(sg.initial, "en") == 1

    def test_inconsistent_cycle_rejected(self):
        # q toggles once around a loop of odd parity: q+ then back to start
        text = """
        .inputs r
        .outputs q
        .graph
        r+ q+
        q+ r+
        .marking { <q+,r+> }
        .end
        """
        with pytest.raises(ReachabilityError):
            stg_to_state_graph(parse_g(text))


class TestStateGraphShape:
    def test_states_named_by_discovery(self):
        sg = stg_to_state_graph(parse_g(TOGGLE))
        assert sg.initial == "m0"
        assert set(sg.states) == {"m0", "m1", "m2", "m3"}

    def test_delement_alias(self):
        text = """
        .inputs a d
        .outputs b c
        .graph
        a+ c+
        c+ d+
        d+ c-
        c- d-
        d- b+
        b+ a-
        a- b-
        b- a+
        .marking { <b-,a+> }
        .end
        """
        sg = stg_to_state_graph(parse_g(text))
        assert len(sg) == 8
        assert not has_usc(sg)
