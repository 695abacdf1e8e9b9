"""Unit tests for the StateGraph automaton."""

import re

import pytest

from repro.sg.events import SignalEvent
from repro.sg.graph import InconsistentStateGraph, StateGraph


def tiny():
    return StateGraph(
        signals=("r", "q"),
        inputs=("r",),
        codes={"s0": (0, 0), "s1": (1, 0), "s2": (1, 1), "s3": (0, 1)},
        arcs=[
            ("s0", SignalEvent.rise("r"), "s1"),
            ("s1", SignalEvent.rise("q"), "s2"),
            ("s2", SignalEvent.fall("r"), "s3"),
            ("s3", SignalEvent.fall("q"), "s0"),
        ],
        initial="s0",
        name="tiny",
    )


class TestConstruction:
    def test_duplicate_signals_rejected(self):
        with pytest.raises(InconsistentStateGraph):
            StateGraph(("a", "a"), (), {"s": (0, 0)}, [], "s")

    def test_unknown_inputs_rejected(self):
        with pytest.raises(InconsistentStateGraph):
            StateGraph(("a",), ("b",), {"s": (0,)}, [], "s")

    def test_bad_code_length_rejected(self):
        with pytest.raises(InconsistentStateGraph):
            StateGraph(("a", "b"), (), {"s": (0,)}, [], "s")

    def test_unknown_initial_rejected(self):
        with pytest.raises(InconsistentStateGraph):
            StateGraph(("a",), (), {"s": (0,)}, [], "t")

    def test_arc_must_flip_named_bit(self):
        message = "arc 's' --a+--> 't' conflicts with codes (0,) -> (0,)"
        with pytest.raises(InconsistentStateGraph, match=re.escape(message)):
            StateGraph(
                ("a",),
                (),
                {"s": (0,), "t": (0,)},
                [("s", SignalEvent.rise("a"), "t")],
                "s",
            )
        # a flip in the direction opposite to the event's
        message = "arc 's' --b+--> 't' conflicts with codes (0, 1) -> (0, 0)"
        with pytest.raises(InconsistentStateGraph, match=re.escape(message)):
            StateGraph(
                ("a", "b"),
                (),
                {"s": (0, 1), "t": (0, 0)},
                [("s", SignalEvent.rise("b"), "t")],
                "s",
            )

    def test_arc_must_not_change_other_bits(self):
        message = "arc 's' --a+--> 't' changes signal 'b' not named by the event"
        with pytest.raises(InconsistentStateGraph, match=re.escape(message)):
            StateGraph(
                ("a", "b"),
                (),
                {"s": (0, 0), "t": (1, 1)},
                [("s", SignalEvent.rise("a"), "t")],
                "s",
            )
        # a change on either side of the event's bit is caught
        message = "arc 's' --b---> 't' changes signal 'a' not named by the event"
        with pytest.raises(InconsistentStateGraph, match=re.escape(message)):
            StateGraph(
                ("a", "b", "c"),
                (),
                {"s": (1, 1, 0), "t": (0, 0, 0)},
                [("s", SignalEvent.fall("b"), "t")],
                "s",
            )

    def test_consistent_arcs_accepted_at_every_position(self):
        sg = StateGraph(
            ("a", "b", "c"),
            (),
            {
                "s": (0, 0, 0),
                "t": (1, 0, 0),
                "u": (1, 1, 0),
                "v": (1, 1, 1),
                "w": (0, 1, 1),
            },
            [
                ("s", SignalEvent.rise("a"), "t"),
                ("t", SignalEvent.rise("b"), "u"),
                ("u", SignalEvent.rise("c"), "v"),
                ("v", SignalEvent.fall("a"), "w"),
            ],
            "s",
        )
        assert len(sg.arcs()) == 4

    def test_arc_event_on_unknown_signal(self):
        message = "arc event on unknown signal 'z'"
        with pytest.raises(InconsistentStateGraph, match=re.escape(message)):
            StateGraph(
                ("a",),
                (),
                {"s": (0,), "t": (1,)},
                [("s", SignalEvent.rise("z"), "t")],
                "s",
            )

    def test_arc_to_unknown_state(self):
        message = "arc ('s', a+, 'x') references unknown state"
        with pytest.raises(InconsistentStateGraph, match=re.escape(message)):
            StateGraph(("a",), (), {"s": (0,)}, [("s", SignalEvent.rise("a"), "x")], "s")

    def test_self_loop_conflicts_with_codes(self):
        # equal codes: the packed check sees no flipped bit at all
        message = "arc 's' --a+--> 's' conflicts with codes (0, 1) -> (0, 1)"
        with pytest.raises(InconsistentStateGraph, match=re.escape(message)):
            StateGraph(
                ("a", "b"), (), {"s": (0, 1)}, [("s", SignalEvent.rise("a"), "s")], "s"
            )

    @pytest.mark.parametrize("code", [(0, 2), (-1, 0), (0, 256)])
    def test_code_values_must_be_bits(self, code):
        with pytest.raises(InconsistentStateGraph, match="bad code for state 's'"):
            StateGraph(("a", "b"), (), {"s": code}, [], "s")

    def test_check_flags_unreachable_states(self):
        sg = StateGraph(
            ("a",),
            (),
            {"s": (0,), "t": (1,)},
            [],
            "s",
        )
        with pytest.raises(InconsistentStateGraph):
            sg.check()


class TestAccessors:
    def test_basic_queries(self):
        sg = tiny()
        assert sg.non_inputs == frozenset({"q"})
        assert sg.code("s1") == (1, 0)
        assert sg.code_dict("s2") == {"r": 1, "q": 1}
        assert sg.value("s3", "q") == 1
        assert sg.signal_position("q") == 1
        assert len(sg) == 4

    def test_excitation_queries(self):
        sg = tiny()
        assert sg.excited_signals("s0") == {"r"}
        assert sg.is_excited("s1", "q")
        assert not sg.is_excited("s1", "r")
        assert sg.enabled_events("s1") == [SignalEvent.rise("q")]

    def test_fire(self):
        sg = tiny()
        assert sg.fire("s0", SignalEvent.rise("r")) == ["s1"]
        assert sg.fire("s0", SignalEvent.rise("q")) == []

    def test_successors_predecessors(self):
        sg = tiny()
        assert sg.successors("s0") == ["s1"]
        assert sg.predecessors("s0") == ["s3"]

    def test_arcs_roundtrip(self):
        sg = tiny()
        assert len(sg.arcs()) == 4


class TestTraversal:
    def test_reachable_from(self):
        sg = tiny()
        assert sg.reachable_from("s0") == {"s0", "s1", "s2", "s3"}

    def test_reaches(self):
        sg = tiny()
        assert sg.reaches("s0", {"s2"})
        assert sg.reaches("s2", {"s2"})


class TestDerivedViews:
    def test_restricted_to(self):
        sg = tiny()
        sub = sg.restricted_to({"s0", "s1"}, initial="s0")
        assert len(sub) == 2
        assert len(sub.arcs()) == 1

    def test_restricted_requires_initial(self):
        with pytest.raises(ValueError):
            tiny().restricted_to({"s1"})

    def test_relabelled(self):
        sg = tiny().relabelled({"s0": "start"})
        assert sg.initial == "start"
        assert sg.code("start") == (0, 0)

    def test_relabelled_must_be_injective(self):
        with pytest.raises(ValueError):
            tiny().relabelled({"s0": "x", "s1": "x"})
