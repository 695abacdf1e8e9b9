"""Unit tests for the Petri-net substrate."""

import pytest

from repro.stg.petrinet import PetriNet
from repro.stg.reachability import ReachabilityError, explore
from repro.stg.stg import STG
from tests.test_stg_explore_oracle import marking_places


def handshake_net():
    places = {"p0", "p1", "p2", "p3"}
    transitions = {"r+", "a+", "r-", "a-"}
    arcs = [
        ("p0", "r+"), ("r+", "p1"),
        ("p1", "a+"), ("a+", "p2"),
        ("p2", "r-"), ("r-", "p3"),
        ("p3", "a-"), ("a-", "p0"),
    ]
    return PetriNet(places, transitions, arcs)


class TestConstruction:
    def test_place_transition_overlap_rejected(self):
        with pytest.raises(ValueError):
            PetriNet({"x"}, {"x"}, [])

    def test_arc_must_be_bipartite(self):
        with pytest.raises(ValueError):
            PetriNet({"p", "q"}, {"t"}, [("p", "q")])

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            PetriNet({"p"}, {"t"}, [("p", "z")])


def _explore(net, marking):
    """The kernel's exploration of ``net`` from ``marking`` (all signals inputs)."""
    signals = {t.rstrip("+-") for t in net.transitions}
    return explore(STG(net, inputs=signals, outputs=(), initial_marking=marking))


def _first_step(net, marking):
    """``(transition, successor places)`` pairs fired from ``marking``, in order."""
    exploration = _explore(net, marking)
    return [
        (exploration.transitions[t], marking_places(exploration, target))
        for source, t, target in exploration.arcs
        if source == 0
    ]


class TestFiring:
    """The firing rule, as the packed exploration kernel applies it."""

    def test_enabled_sorted(self):
        net = handshake_net()
        assert [t for t, _ in _first_step(net, {"p0"})] == ["r+"]
        assert _first_step(net, set()) == []
        choice = PetriNet(
            {"p0", "p1", "p2"},
            {"b+", "a+", "b-", "a-"},
            [
                ("p0", "b+"), ("b+", "p2"), ("p2", "b-"), ("b-", "p0"),
                ("p0", "a+"), ("a+", "p1"), ("p1", "a-"), ("a-", "p0"),
            ],
        )
        assert [t for t, _ in _first_step(choice, {"p0"})] == ["a+", "b+"]

    def test_fire_moves_token(self):
        net = handshake_net()
        assert _first_step(net, {"p0"}) == [("r+", frozenset({"p1"}))]

    def test_fire_disabled_rejected(self):
        # a+ needs p1: from {p0} only r+ fires, and a+ only after it
        exploration = _explore(handshake_net(), {"p0"})
        fired = [exploration.transitions[t] for _, t, _ in exploration.arcs]
        assert fired == ["r+", "a+", "r-", "a-"]

    def test_safeness_violation_detected(self):
        net = PetriNet(
            {"p", "q"},
            {"t+"},
            [("p", "t+"), ("t+", "q")],
        )
        with pytest.raises(ReachabilityError, match="second token on 'q'"):
            _explore(net, {"p", "q"})

    def test_join_requires_all_tokens(self):
        net = PetriNet(
            {"p", "q", "r"},
            {"t+"},
            [("p", "t+"), ("q", "t+"), ("t+", "r")],
        )
        assert _first_step(net, {"p"}) == []
        assert _first_step(net, {"p", "q"}) == [("t+", frozenset({"r"}))]

    def test_unsafe_firing_names_lowest_place(self):
        # t+ puts a token on four marked places; the message names the
        # first in sorted order, whatever the hash seed
        places = {"p", "qa", "qb", "qc", "qd"}
        arcs = [("p", "t+")] + [("t+", q) for q in sorted(places - {"p"})]
        net = PetriNet(places, {"t+"}, arcs)
        with pytest.raises(ReachabilityError) as info:
            _explore(net, places)
        assert str(info.value) == "firing 't+' puts a second token on 'qa'"


class TestConnectivity:
    def test_cycle_is_connected(self):
        assert handshake_net().check_connected()

    def test_disconnected_detected(self):
        net = PetriNet({"p", "q"}, {"t"}, [("p", "t"), ("t", "p")])
        assert not net.check_connected()

    def test_empty_net_connected(self):
        assert PetriNet(set(), set(), []).check_connected()
