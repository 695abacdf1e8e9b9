"""The packed exploration kernel against the frozenset exploration it replaced.

``_oracle_explore``, ``_oracle_is_live`` and ``_oracle_state_graph`` are
test-local copies of the marking-set reachability, liveness pass and
state-graph assembly that ran before markings were packed into
integers.  The kernel must reproduce them exactly: markings in the same
BFS order, the same parities, the same arcs, the same liveness verdicts,
the same state graphs and the same error messages.  The one intended
difference is the unsafe-firing message, which now names the lowest
doubly-marked place in sorted order; the oracle names that place too
(it used to take whichever place a ``set`` iteration met first).
"""

import pytest

import repro.corpus.factory as factory
from repro.bench.suite import BENCHMARKS, load_benchmark
from repro.corpus import CorpusSpec, generate_corpus
from repro.corpus.families import concurrent_fork, fuzz_specs, token_ring
from repro.corpus.spec import AdmissionSpec
from repro.pipeline.delta import AddEdge, SpecDelta
from repro.sg.graph import StateGraph
from repro.stg.parser import parse_g
from repro.stg.reachability import (
    ExplorationSnapshot,
    ReachabilityError,
    explore,
    stg_to_state_graph,
)
from repro.stg.structural import is_live_and_safe, is_live_marking_graph

pytestmark = pytest.mark.smoke


# ----------------------------------------------------------------------
# The frozenset oracle
# ----------------------------------------------------------------------
def _oracle_explore(stg, max_states=200_000):
    """``(order, parities, arcs)`` over ``frozenset`` markings."""
    signals = stg.signals
    position = {s: i for i, s in enumerate(signals)}
    net = stg.net
    initial = stg.initial_marking
    order = {initial: 0}
    parities = {initial: tuple(0 for _ in signals)}
    arcs = []
    queue = [initial]
    head = 0
    while head < len(queue):
        marking = queue[head]
        head += 1
        parity = parities[marking]
        expansions = []
        for transition in sorted(t for t in net.transitions if net.preset[t] <= marking):
            after = set(marking) - net.preset[transition]
            for place in sorted(net.postset[transition]):
                if place in after:
                    raise ReachabilityError(
                        f"firing {transition!r} puts a second token on {place!r}"
                    )
                after.add(place)
            expansions.append((transition, frozenset(after)))
        for transition, after in expansions:
            i = position[stg.event_of(transition).signal]
            new_parity = parity[:i] + (parity[i] ^ 1,) + parity[i + 1 :]
            known = parities.get(after)
            if known is None:
                if len(order) >= max_states:
                    raise ReachabilityError(f"more than {max_states} reachable markings")
                order[after] = len(order)
                parities[after] = new_parity
                queue.append(after)
            elif known != new_parity:
                raise ReachabilityError(
                    f"inconsistent state assignment: marking reached with "
                    f"signal parities {known} and {new_parity}"
                )
            arcs.append((marking, transition, after))
    return order, parities, arcs


def _oracle_is_live(order, arcs, transitions):
    """Every bottom strongly connected component fires every transition.

    One iterative Tarjan pass over markings numbered by ``order``, with
    the fired transitions of a component as a set of names.
    """
    everything = set(transitions)
    count = len(order)
    successors = [[] for _ in range(count)]
    fired = [[] for _ in range(count)]
    for source, transition, target in arcs:
        i = order[source]
        successors[i].append(order[target])
        fired[i].append(transition)
    index = [-1] * count
    low = [0] * count
    component = [-1] * count
    stack = []
    counter = 0
    for root in range(count):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        calls = [(root, 0)]
        while calls:
            node, position = calls[-1]
            edges = successors[node]
            if position < len(edges):
                calls[-1] = (node, position + 1)
                target = edges[position]
                if index[target] < 0:
                    index[target] = low[target] = counter
                    counter += 1
                    stack.append(target)
                    calls.append((target, 0))
                elif component[target] < 0 and index[target] < low[node]:
                    low[node] = index[target]
                continue
            calls.pop()
            if calls:
                parent = calls[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] != index[node]:
                continue
            members = []
            while True:
                member = stack.pop()
                component[member] = node
                members.append(member)
                if member == node:
                    break
            if all(component[t] == node for m in members for t in successors[m]):
                seen = set()
                for member in members:
                    seen.update(fired[member])
                if seen != everything:
                    return False
    return True


def _oracle_state_graph(stg, max_states=200_000):
    """The state graph assembled from the oracle's exploration."""
    order, parities, arcs = _oracle_explore(stg, max_states)
    position = {s: i for i, s in enumerate(stg.signals)}
    values = {s: None for s in stg.signals}
    for marking, transition, _ in arcs:
        event = stg.event_of(transition)
        implied = event.value_before ^ parities[marking][position[event.signal]]
        if values[event.signal] is None:
            values[event.signal] = implied
        elif values[event.signal] != implied:
            raise ReachabilityError(
                f"signal {event.signal!r} has no consistent initial value"
            )
    initial = {}
    for signal, value in values.items():
        explicit = stg.initial_values.get(signal)
        if value is None:
            initial[signal] = explicit if explicit is not None else 0
        elif explicit is not None and explicit != value:
            raise ReachabilityError(
                f"declared initial value of {signal!r} ({explicit}) "
                f"contradicts the net (inferred {value})"
            )
        else:
            initial[signal] = value
    name = lambda marking: f"m{order[marking]}"  # noqa: E731
    codes = {
        name(m): tuple(initial[s] ^ p[i] for i, s in enumerate(stg.signals))
        for m, p in parities.items()
    }
    sg_arcs = sorted({(name(s), stg.event_of(t), name(d)) for s, t, d in arcs})
    return StateGraph(stg.signals, stg.inputs, codes, sg_arcs, "m0", name=stg.name)


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def marking_places(exploration, index):
    """The marked places of the kernel's marking ``index``."""
    marking = exploration.markings[index]
    return frozenset(p for i, p in enumerate(exploration.places) if marking >> i & 1)


def _outcome(run):
    try:
        return "ok", run()
    except ReachabilityError as exc:
        return "error", str(exc)


def _kernel_as_oracle(stg, max_states=200_000):
    """The kernel's result in the oracle's ``frozenset`` form."""
    exploration = explore(stg, max_states=max_states)
    markings = [marking_places(exploration, k) for k in range(len(exploration.markings))]
    width = len(stg.signals)
    order = {m: k for k, m in enumerate(markings)}
    parities = {
        m: tuple(p.to_bytes(width, "little")) for m, p in zip(markings, exploration.parities)
    }
    arcs = [(markings[s], exploration.transitions[t], markings[d]) for s, t, d in exploration.arcs]
    live = is_live_marking_graph(len(markings), exploration.arcs, len(exploration.transitions))
    return order, parities, arcs, live


def _graph_view(sg):
    return (
        sg.state_list,
        [sg.code(s) for s in sg.state_list],
        [(s, str(e), t) for s, e, t in sg.arcs()],
        [[(str(e), t) for e, t in sg.arcs_into(s)] for s in sg.state_list],
    )


def _assert_matches_oracle(stg, max_states=200_000):
    """Kernel, liveness and state graph equal the oracle's, errors included."""
    expected = _outcome(lambda: _oracle_explore(stg, max_states))
    actual = _outcome(lambda: _kernel_as_oracle(stg, max_states))
    assert actual[0] == expected[0], (stg.name, actual, expected)
    if expected[0] == "error":
        assert actual[1] == expected[1]
        assert not is_live_and_safe(stg, max_states)
    else:
        order, parities, arcs = expected[1]
        assert list(actual[1][0]) == list(order)
        assert actual[1][1] == parities
        assert actual[1][2] == arcs
        live = _oracle_is_live(order, arcs, stg.net.transitions)
        assert actual[1][3] == live
        assert is_live_and_safe(stg, max_states) == live
    expected_sg = _outcome(lambda: _graph_view(_oracle_state_graph(stg, max_states)))
    actual_sg = _outcome(lambda: _graph_view(stg_to_state_graph(stg, max_states)))
    assert actual_sg == expected_sg, stg.name
    return expected[0]


# ----------------------------------------------------------------------
# Equivalence over the design streams
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_table1_specs_match_oracle(name):
    assert _assert_matches_oracle(load_benchmark(name)) == "ok"


def test_fuzz_specs_match_oracle():
    outcomes = [_assert_matches_oracle(stg, 3000) for _, stg in fuzz_specs(40, seed=3)]
    assert "ok" in outcomes


@pytest.mark.parametrize("seed, cap", [(7, 20_000), (2026, 30)])
def test_corpus_candidates_match_oracle(seed, cap, monkeypatch):
    """Every candidate the factory draws, admitted or rejected."""
    admission = factory.admission_failure
    seen = []

    def checked(stg, spec):
        seen.append(_assert_matches_oracle(stg, spec.admission.max_states))
        return admission(stg, spec)

    monkeypatch.setattr(factory, "admission_failure", checked)
    spec = CorpusSpec(count=12, seed=seed, admission=AdmissionSpec(max_states=cap))
    designs, stats = generate_corpus(spec)
    assert len(designs) == 12
    assert seen.count("ok") >= 12
    assert seen.count("error") == stats.rejections.get("state-cap", 0)


# ----------------------------------------------------------------------
# Error cases
# ----------------------------------------------------------------------
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

UNSAFE = """
.inputs a
.outputs b
.graph
p a+
a+ qa qb qc qd
qa b+
qb b+
qc b+
qd b+
b+ p
.marking { p qa qb qc qd }
.end
"""

ODD_CYCLE = """
.inputs r
.outputs q
.graph
r+ q+
q+ r+
.marking { <q+,r+> }
.end
"""

# two rising edges of q in one cycle: q+ fires at parity 0 and at parity 1
NO_INITIAL_VALUE = """
.inputs r
.outputs q
.graph
r+ q+
q+ r-
r- q+/2
q+/2 r+
.marking { <q+/2,r+> }
.end
"""


@pytest.mark.parametrize(
    "text, max_states, message",
    [
        (CONCURRENT, 3, "more than 3 reachable markings"),
        (UNSAFE, 200_000, "firing 'a+' puts a second token on 'qa'"),
        (ODD_CYCLE, 200_000, "inconsistent state assignment"),
        (NO_INITIAL_VALUE, 200_000, "signal 'q' has no consistent initial value"),
        (
            TOGGLE.replace(".graph", ".initial r=1\n.graph"),
            200_000,
            "declared initial value of 'r' (1) contradicts the net (inferred 0)",
        ),
    ],
    ids=["state-cap", "unsafe", "inconsistent-assignment", "initial-value", "declared"],
)
def test_errors_match_oracle(text, max_states, message):
    stg = parse_g(text)
    _assert_matches_oracle(stg, max_states)
    with pytest.raises(ReachabilityError) as info:
        stg_to_state_graph(stg, max_states=max_states)
    assert message in str(info.value)


def test_unsafe_firing_reported_before_a_cap_error_at_the_same_marking():
    # from the initial marking r+ finds a new marking (over the cap of 1)
    # and x+ is unsafe; every enabled transition fires first, so the
    # safeness violation wins, as it did in the frozenset exploration
    stg = parse_g(
        """
        .inputs r x
        .outputs q
        .graph
        p0 r+
        r+ p1
        p1 q+
        q+ p0
        px x+
        x+ px py
        py q+
        .marking { p0 px py }
        .end
        """
    )
    _assert_matches_oracle(stg, 1)
    with pytest.raises(ReachabilityError, match="second token on 'py'"):
        explore(stg, max_states=1)


def test_parallel_transitions_of_one_edge_make_one_arc():
    # a+ and a+/2 both move the token from p0 to p1
    stg = parse_g(
        """
        .inputs a
        .outputs b
        .graph
        p0 a+ a+/2
        a+ p1
        a+/2 p1
        p1 b+
        b+ a-
        a- b-
        b- p0
        .marking { p0 }
        .end
        """
    )
    _assert_matches_oracle(stg)
    exploration = explore(stg)
    assert [(s, d) for s, _, d in exploration.arcs[:2]] == [(0, 1), (0, 1)]
    sg = stg_to_state_graph(stg)
    assert [str(e) for e, _ in sg.arcs_from("m0")] == ["a+"]


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def test_plain_run_builds_no_snapshot(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a plain run captured a snapshot")

    monkeypatch.setattr(ExplorationSnapshot, "capture", classmethod(refuse))
    stg_to_state_graph(concurrent_fork(3))


def test_captured_snapshot_stays_packed():
    captured = []
    stg = concurrent_fork(3)
    stg_to_state_graph(stg, on_snapshot=captured.append)
    (snapshot,) = captured
    exploration = snapshot.exploration
    assert exploration == explore(stg)
    assert all(type(m) is int for m in exploration.markings)
    assert all(type(v) is frozenset for v in snapshot.preset.values())


def test_replay_across_an_added_place_matches_fresh_exploration():
    """A marked implicit place renumbers the places; replay still applies."""
    stg = token_ring(3)
    snapshot = ExplorationSnapshot.capture(stg, explore(stg))
    ts = sorted(stg.net.transitions)
    edited = SpecDelta((AddEdge(ts[1], ts[0], marked=True),)).apply_to_stg(stg)
    assert sorted(edited.net.places) != sorted(stg.net.places)
    stats = {}
    assert explore(edited, snapshot=snapshot, stats=stats) == explore(edited)
    assert stats["replayed"] > 0
    assert stats["replayed"] + stats["expanded"] == len(explore(edited).markings)
