"""Unit tests for structural Petri-net classes."""

import random

import pytest

from repro.bench.suite import BENCHMARKS, load_benchmark
from repro.corpus.families import fuzz_specs
from repro.stg.parser import parse_g
from repro.stg.reachability import ReachabilityError, explore
from repro.stg.structural import (
    is_free_choice,
    is_live_and_safe,
    is_live_marking_graph,
    is_marked_graph,
)

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

CHOICE = """
.inputs a b
.outputs q
.graph
p0 a+ b+
a+ q+
q+ a-
a- q-
q- p0
b+ q+/2
q+/2 b-
b- q-/2
q-/2 p0
.marking { p0 }
.end
"""


def test_toggle_is_marked_graph():
    stg = parse_g(TOGGLE)
    assert is_marked_graph(stg.net)
    assert is_free_choice(stg.net)
    assert is_live_and_safe(stg)


def test_choice_is_free_choice_not_marked_graph():
    stg = parse_g(CHOICE)
    assert not is_marked_graph(stg.net)
    assert is_free_choice(stg.net)
    assert is_live_and_safe(stg)


def test_non_free_choice_detected():
    text = """
    .inputs a b
    .outputs q
    .graph
    p0 a+ b+
    p1 a+
    a+ q+
    b+ q+/2
    q+ p0 p1
    q+/2 p0 p1
    .marking { p0 p1 }
    .end
    """
    stg = parse_g(text)
    # a+ consumes {p0, p1} while b+ consumes only p0 -> not free choice
    assert not is_free_choice(stg.net)


def test_dead_transition_not_live():
    text = """
    .inputs a
    .outputs q
    .graph
    p0 a+
    a+ q+
    q+ p0
    p1 a-
    a- q-
    q- p1
    .marking { p0 }
    .end
    """
    # the a-/q- loop never gets a token (and would be inconsistent
    # anyway); liveness fails
    stg = parse_g(text)
    assert not is_live_and_safe(stg)


def test_benchmarks_live_and_safe():
    for name in BENCHMARKS:
        assert is_live_and_safe(load_benchmark(name)), name


def test_nowick_is_free_choice_with_real_choice():
    stg = load_benchmark("nowick")
    assert is_free_choice(stg.net)
    assert not is_marked_graph(stg.net)


def test_marked_graph_benchmarks():
    for name in ("delement", "duplicator", "mp-forward-pkt"):
        assert is_marked_graph(load_benchmark(name).net), name


def test_deadlock_not_live():
    text = """
    .inputs a
    .outputs q
    .graph
    p0 a+
    a+ q+
    q+ a-
    a- q-
    q- pd
    .marking { p0 }
    .end
    """
    # one pass through the handshake ends in {pd}, which enables nothing
    assert not is_live_and_safe(parse_g(text))


def test_marking_graph_without_transitions_is_live():
    assert is_live_marking_graph(1, [], 0)


def test_marking_without_successors_is_a_dead_bottom_component():
    arcs = [(0, 0, 1)]
    assert not is_live_marking_graph(2, arcs, 1)
    assert is_live_marking_graph(2, arcs + [(1, 0, 0)], 1)


def _indexed(order, arcs, transitions):
    """``is_live_marking_graph`` arguments for a graph over named markings."""
    number = {t: i for i, t in enumerate(sorted(transitions))}
    return (
        len(order),
        [(order[s], number[t], order[d]) for s, t, d in arcs],
        len(number),
    )


def _fixpoint_is_live(order, arcs, transitions):
    """The set-merging liveness fixpoint the Tarjan pass replaced (oracle)."""
    successors = {m: [] for m in order}
    fired_at = {m: set() for m in order}
    for source, transition, target in arcs:
        successors[source].append(target)
        fired_at[source].add(transition)
    all_transitions = set(transitions)
    can_fire = {m: set(fired_at[m]) for m in order}
    changed = True
    while changed:
        changed = False
        for marking in order:
            merged = set(can_fire[marking])
            for target in successors[marking]:
                merged |= can_fire[target]
            if merged != can_fire[marking]:
                can_fire[marking] = merged
                changed = True
    return all(can_fire[m] == all_transitions for m in order)


def _random_marking_graph(rng):
    """A small graph with a transient part and several bottom cycles."""
    size = rng.randint(1, 24)
    names = [f"m{i}" for i in range(size)]
    indices = list(range(size))
    rng.shuffle(indices)
    order = dict(zip(names, indices))
    transitions = [f"t{i}" for i in range(rng.randint(1, 4))]
    arcs = []
    # plant up to three disjoint cycles at the end of the node list
    cursor = size
    for _ in range(rng.randint(0, 3)):
        length = rng.randint(1, 4)
        if cursor - length < 0:
            break
        cycle = names[cursor - length : cursor]
        cursor -= length
        covering = rng.random() < 0.6
        for i, source in enumerate(cycle):
            target = cycle[(i + 1) % length]
            if covering:
                for transition in transitions[i::length] or transitions[:1]:
                    arcs.append((source, transition, target))
            else:
                arcs.append((source, rng.choice(transitions), target))
    # the rest only points forward or into the cycles, with a few sinks
    for i in range(cursor):
        for _ in range(rng.choice((0,) + (1, 2, 2, 3) * 4)):
            target = names[rng.randint(i, size - 1)]
            arcs.append((names[i], rng.choice(transitions), target))
    rng.shuffle(arcs)
    return order, arcs, frozenset(transitions)


@pytest.mark.smoke
def test_marking_graph_liveness_matches_fixpoint_oracle():
    verdicts = []
    rng = random.Random(2026)
    for _ in range(400):
        order, arcs, transitions = _random_marking_graph(rng)
        expected = _fixpoint_is_live(order, arcs, transitions)
        assert is_live_marking_graph(*_indexed(order, arcs, transitions)) == expected
        verdicts.append(expected)
    # the quadratic oracle bounds the graph size kept in a smoke test
    for _, stg in fuzz_specs(40, seed=3):
        try:
            exploration = explore(stg, max_states=600)
        except ReachabilityError:
            continue
        count = len(exploration.markings)
        arcs = exploration.arcs
        transitions = range(len(exploration.transitions))
        assert is_live_marking_graph(count, arcs, len(transitions))
        assert _fixpoint_is_live(range(count), arcs, transitions)
        # silencing one transition leaves dead ends and smaller cycles
        silenced = min(transitions)
        kept = [arc for arc in arcs if arc[1] != silenced]
        expected = _fixpoint_is_live(range(count), kept, transitions)
        assert is_live_marking_graph(count, kept, len(transitions)) == expected
        verdicts.append(expected)
    assert True in verdicts and False in verdicts
