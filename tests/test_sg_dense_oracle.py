"""The dense ``StateGraph`` against the tuple-coded graph it replaced.

``_TupleGraph`` is a test-local copy of the constructor that kept one
code tuple per state and ``(event, state)`` adjacency dicts, with the
views the analyses read.  ``_tuple_reach`` and ``_tuple_expand`` are
copies of the reachability assembly and the state-signal expansion
that fed it ``(name, event, name)`` triples -- the expansion walking the
parent's ``state_list`` where it used to walk a hash-ordered ``frozenset``.
The dense graph must agree with them on state ids and order, codes,
successor and predecessor order, excited sets, the pipeline fingerprint,
the bitmask engine's bitsets and every ``InconsistentStateGraph``
message; the store's ``/6`` payloads must decode to equal graphs,
regions and MC reports.
"""

import hashlib
import json
import os

import pytest

import repro.core.insertion as insertion
import repro.corpus.factory as factory
from repro.bench.suite import BENCHMARKS, load_benchmark
from repro.core.assignment import lifted_phases, phases
from repro.corpus import CorpusSpec, generate_corpus
from repro.corpus.families import concurrent_fork, fuzz_specs
from repro.corpus.spec import AdmissionSpec
from repro.pipeline import AnalysisContext, Pipeline, PipelineSpec
from repro.pipeline.artifacts import fingerprint_state_graph
from repro.pipeline.serialize import stage_artifact_from_json, stage_artifact_to_json
from repro.pipeline.store import ArtifactStore
from repro.sg.bitengine import bit_analysis
from repro.sg.events import SignalEvent
from repro.sg.graph import InconsistentStateGraph, StateGraph, event_id
from repro.stg.reachability import (
    ReachabilityError,
    _infer_initial_values,
    explore,
    stg_to_state_graph,
)

pytestmark = pytest.mark.smoke


# ----------------------------------------------------------------------
# The tuple-coded oracle
# ----------------------------------------------------------------------
class _TupleGraph:
    """Tuple codes in a dict, adjacency as ``(event, state)`` tuples."""

    def __init__(self, signals, inputs, codes, arcs, initial, name="sg"):
        self.name = name
        self.signals = tuple(signals)
        if len(set(self.signals)) != len(self.signals):
            raise InconsistentStateGraph("duplicate signal names")
        self.inputs = frozenset(inputs)
        unknown = self.inputs - set(self.signals)
        if unknown:
            raise InconsistentStateGraph(f"inputs not in signal list: {sorted(unknown)}")
        self._index = {s: i for i, s in enumerate(self.signals)}
        self._codes = {}
        for state, code in codes.items():
            vector = tuple(map(int, code))
            if len(vector) != len(self.signals) or not {0, 1}.issuperset(vector):
                raise InconsistentStateGraph(f"bad code for state {state!r}: {code!r}")
            self._codes[state] = vector
        if initial not in self._codes:
            raise InconsistentStateGraph(f"initial state {initial!r} has no code")
        self.initial = initial
        self._succ = {s: [] for s in self._codes}
        self._pred = {s: [] for s in self._codes}
        for source, event, target in arcs:
            if source not in self._codes or target not in self._codes:
                raise InconsistentStateGraph(
                    f"arc ({source!r}, {event}, {target!r}) references unknown state"
                )
            self._check_arc(source, event, target)
            self._succ[source].append((event, target))
            self._pred[target].append((event, source))

    def _check_arc(self, source, event, target):
        i = self._index.get(event.signal)
        if i is None:
            raise InconsistentStateGraph(f"arc event on unknown signal {event.signal!r}")
        src, dst = self._codes[source], self._codes[target]
        if src[i] != event.value_before or dst[i] != event.value_after:
            raise InconsistentStateGraph(
                f"arc {source!r} --{event}--> {target!r} conflicts with codes "
                f"{src} -> {dst}"
            )
        for j, (a, b) in enumerate(zip(src, dst)):
            if j != i and a != b:
                raise InconsistentStateGraph(
                    f"arc {source!r} --{event}--> {target!r} changes signal "
                    f"{self.signals[j]!r} not named by the event"
                )

    @property
    def state_list(self):
        return tuple(self._codes)

    def code(self, state):
        return self._codes[state]

    def arcs(self):
        return [(s, e, t) for s, out in self._succ.items() for e, t in out]

    def arcs_from(self, state):
        return tuple(self._succ[state])

    def arcs_into(self, state):
        return tuple(self._pred[state])

    def excited_signals(self, state):
        return frozenset(e.signal for e, _ in self._succ[state])

    def reachable_from(self, state):
        seen, frontier = {state}, [state]
        while frontier:
            for _, target in self._succ[frontier.pop()]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    def restricted_to(self, keep):
        return _TupleGraph(
            self.signals,
            self.inputs,
            {s: c for s, c in self._codes.items() if s in keep},
            [(s, e, t) for s in self.state_list if s in keep for e, t in self._succ[s] if t in keep],
            self.initial,
            name=self.name,
        )


def _tuple_fingerprint(sg):
    """The pipeline fingerprint, computed from tuple codes and arc triples."""
    arcs = sorted(
        f"{s}>{e.signal}{'+' if e.direction == 1 else '-'}>{t}" for s, e, t in sg.arcs()
    )
    codes = sorted(f"{s}={''.join(map(str, sg.code(s)))}" for s in sg.state_list)
    hasher = hashlib.sha256()
    for part in (
        sg.name,
        ",".join(sg.signals),
        ",".join(sorted(sg.inputs)),
        str(sg.initial),
        "|".join(codes),
        "|".join(arcs),
    ):
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x1f")
    return hasher.hexdigest()


def _tuple_reach(stg, max_states=200_000):
    """Reachability assembled into tuple codes and sorted name triples."""
    exploration = explore(stg, max_states=max_states)
    initial = _infer_initial_values(stg, exploration)
    width = len(stg.signals)
    names = [f"m{k}" for k in range(len(exploration.markings))]
    codes = {
        name: tuple((initial ^ parity).to_bytes(width, "little"))
        for name, parity in zip(names, exploration.parities)
    }
    arcs = sorted(
        {
            (names[s], stg.event_of(exploration.transitions[t]), names[d])
            for s, t, d in exploration.arcs
        }
    )
    return _TupleGraph(stg.signals, stg.inputs, codes, arcs, "m0", name=stg.name)


def _tuple_expand(sg, labelling, signal, name=None):
    """State-signal expansion over tuple codes, in ``sg.state_list`` order."""
    codes = {}
    for state in sg.state_list:
        for phase in phases(labelling[state]):
            codes[(state, phase)] = sg.code(state) + (phase,)
    arcs = []
    for state in sg.state_list:
        if labelling[state] == "U":
            arcs.append(((state, 0), SignalEvent(signal, +1), (state, 1)))
        elif labelling[state] == "D":
            arcs.append(((state, 1), SignalEvent(signal, -1), (state, 0)))
    for source, event, target in sg.arcs():
        lifts = lifted_phases(labelling[source], labelling[target])
        if not lifts:
            raise ValueError("cannot be lifted")
        if event.signal in sg.inputs and set(lifts) != set(phases(labelling[source])):
            raise ValueError("delays input event")
        for phase in lifts:
            arcs.append(((source, phase), event, (target, phase)))
    expanded = _TupleGraph(
        sg.signals + (signal,),
        sg.inputs,
        codes,
        arcs,
        (sg.initial, phases(labelling[sg.initial])[0]),
        name=name or f"{sg.name}+{signal}",
    )
    reachable = expanded.reachable_from(expanded.initial)
    if len(reachable) != len(expanded.state_list):
        expanded = expanded.restricted_to(reachable)
    return expanded


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def _views(sg, predecessors=True):
    states = sg.state_list
    return {
        "states": states,
        "codes": [sg.code(s) for s in states],
        "successors": [[(str(e), t) for e, t in sg.arcs_from(s)] for s in states],
        "predecessors": (
            [[(str(e), t) for e, t in sg.arcs_into(s)] for s in states]
            if predecessors
            else None
        ),
        "excited": [sg.excited_signals(s) for s in states],
        "arcs": [(s, str(e), t) for s, e, t in sg.arcs()],
        "initial": sg.initial,
    }


def _assert_engine_matches(dense, oracle):
    """The bitmask engine's tables equal bitsets built from the tuple views."""
    engine = bit_analysis(dense)
    states = oracle.state_list
    position = {s: k for k, s in enumerate(states)}
    for i, signal in enumerate(oracle.signals):
        ones = sum(1 << k for k, s in enumerate(states) if oracle.code(s)[i])
        assert engine.literal_bits(i, 1) == ones
        assert engine.literal_bits(i, 0) == engine.all_states_bits ^ ones
        excited = sum(
            1 << k for k, s in enumerate(states) if signal in oracle.excited_signals(s)
        )
        assert engine.excited_bits(signal) == excited
    succ = [0] * len(states)
    pred = [0] * len(states)
    for source, _, target in oracle.arcs():
        succ[position[source]] |= 1 << position[target]
        pred[position[target]] |= 1 << position[source]
    assert engine.succ_bits == succ
    assert engine.pred_bits == pred
    some = frozenset(states[::3])
    assert engine.states_of(engine.bits_of(some)) == some


def _assert_same_graph(dense, oracle):
    assert _views(dense) == _views(oracle)
    assert fingerprint_state_graph(dense) == _tuple_fingerprint(oracle)
    _assert_engine_matches(dense, oracle)


def _outcome(run):
    try:
        return "ok", run()
    except ReachabilityError as exc:
        return "error", str(exc)


def _assert_reach_matches(stg, max_states=200_000):
    expected = _outcome(lambda: _tuple_reach(stg, max_states))
    actual = _outcome(lambda: stg_to_state_graph(stg, max_states))
    assert actual[0] == expected[0], stg.name
    if expected[0] == "error":
        assert actual[1] == expected[1]
    else:
        _assert_same_graph(actual[1], expected[1])
    return expected[0]


# ----------------------------------------------------------------------
# Reachability graphs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_table1_specs_match_oracle(name):
    assert _assert_reach_matches(load_benchmark(name)) == "ok"


def test_fuzz_specs_match_oracle():
    outcomes = [_assert_reach_matches(stg, 3000) for _, stg in fuzz_specs(40, seed=3)]
    assert "ok" in outcomes


@pytest.mark.parametrize("seed, cap", [(7, 20_000), (2026, 30)])
def test_corpus_streams_match_oracle(seed, cap, monkeypatch):
    """Every candidate the factory draws, admitted or rejected."""
    admission = factory.admission_failure
    seen = []

    def checked(stg, spec):
        seen.append(_assert_reach_matches(stg, spec.admission.max_states))
        return admission(stg, spec)

    monkeypatch.setattr(factory, "admission_failure", checked)
    designs, _ = generate_corpus(
        CorpusSpec(count=12, seed=seed, admission=AdmissionSpec(max_states=cap))
    )
    assert len(designs) == 12
    assert seen.count("ok") >= 12


# ----------------------------------------------------------------------
# Insertion expansions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["berkel3", "duplicator"])
def test_every_insertion_expansion_matches_oracle(name, monkeypatch):
    """Each expansion the insertion search makes, including its errors."""
    expand = insertion.expand_with_signal
    calls = []

    def recorded(sg, labelling, signal, name=None):
        try:
            result = expand(sg, labelling, signal, name)
        except ValueError:
            calls.append((sg, dict(labelling), signal, name, None))
            raise
        calls.append((sg, dict(labelling), signal, name, result))
        return result

    monkeypatch.setattr(insertion, "expand_with_signal", recorded)
    spec = stg_to_state_graph(load_benchmark(name))
    result = insertion.insert_state_signals(spec)
    assert len(result.rounds) == 2
    assert len(calls) > 20
    parents = {}
    for sg, labelling, signal, label, expanded in calls:
        parent = parents.get(id(sg))
        if parent is None:
            parent = parents[id(sg)] = _TupleGraph(
                sg.signals,
                sg.inputs,
                {s: sg.code(s) for s in sg.state_list},
                sg.arcs(),
                sg.initial,
                name=sg.name,
            )
            assert _views(parent, predecessors=False) == _views(sg, predecessors=False)
        if expanded is None:
            with pytest.raises(ValueError):
                _tuple_expand(parent, labelling, signal, label)
            continue
        _assert_same_graph(expanded, _tuple_expand(parent, labelling, signal, label))


# ----------------------------------------------------------------------
# Consistency messages
# ----------------------------------------------------------------------
RISE_A = SignalEvent.rise("a")

BAD_GRAPHS = {
    "bad code": (("a", "b"), {"s": (0, 2)}, []),
    "unknown state": (("a",), {"s": (0,)}, [("s", RISE_A, "x")]),
    "unknown signal": (("a",), {"s": (0,), "t": (1,)}, [("s", SignalEvent.rise("z"), "t")]),
    "self-loop": (("a", "b"), {"s": (0, 1)}, [("s", RISE_A, "s")]),
    "wrong direction": (
        ("a", "b"),
        {"s": (0, 1), "t": (0, 0)},
        [("s", SignalEvent.rise("b"), "t")],
    ),
    "extra signal change": (("a", "b"), {"s": (0, 0), "t": (1, 1)}, [("s", RISE_A, "t")]),
    "falling extra change": (
        ("a", "b", "c"),
        {"s": (1, 1, 0), "t": (0, 0, 0)},
        [("s", SignalEvent.fall("b"), "t")],
    ),
}


def _message(cls, signals, codes, arcs):
    with pytest.raises(InconsistentStateGraph) as info:
        cls(signals, (), codes, arcs, "s")
    return str(info.value)


@pytest.mark.parametrize("case", sorted(BAD_GRAPHS))
def test_inconsistent_graph_messages_unchanged(case):
    signals, codes, arcs = BAD_GRAPHS[case]
    assert _message(StateGraph, signals, codes, arcs) == _message(
        _TupleGraph, signals, codes, arcs
    )


@pytest.mark.parametrize("case", ["self-loop", "wrong direction", "extra signal change"])
def test_packed_constructor_names_the_same_rule(case):
    """``from_packed`` rejects a bad arc with the tuple path's message."""
    signals, codes, arcs = BAD_GRAPHS[case]
    states = list(codes)
    position = {s: i for i, s in enumerate(signals)}
    with pytest.raises(InconsistentStateGraph) as info:
        StateGraph.from_packed(
            signals,
            (),
            states,
            [sum(v << i for i, v in enumerate(code)) for code in codes.values()],
            [states.index(s) for s, _, _ in arcs],
            [event_id(position[e.signal], e.direction) for _, e, _ in arcs],
            [states.index(t) for _, _, t in arcs],
        )
    assert str(info.value) == _message(_TupleGraph, signals, codes, arcs)


def test_packed_constructor_rejects_bad_codes_and_indices():
    with pytest.raises(InconsistentStateGraph, match="bad code for state 's': 4"):
        StateGraph.from_packed(("a", "b"), (), ["s"], [4], [], [], [])
    with pytest.raises(InconsistentStateGraph, match="references unknown state"):
        StateGraph.from_packed(("a",), (), ["s", "t"], [0, 1], [0], [1], [2])
    with pytest.raises(InconsistentStateGraph, match="unknown signal"):
        StateGraph.from_packed(("a",), (), ["s", "t"], [0, 1], [0], [3], [1])
    with pytest.raises(InconsistentStateGraph, match="duplicate state ids"):
        StateGraph.from_packed(("a",), (), ["s", "s"], [0, 1], [], [], [])


# ----------------------------------------------------------------------
# Canonical order
# ----------------------------------------------------------------------
def test_states_iterate_in_construction_order_as_a_set():
    sg = stg_to_state_graph(load_benchmark("delement"))
    assert list(sg.states) == list(sg.state_list)
    assert "m0" in sg.states and len(sg.states) == len(sg)
    assert sg.states == frozenset(sg.state_list)
    assert sg.states - {"m0"} == set(sg.state_list[1:])
    keep = set(sg.state_list[::-1][: len(sg) // 2]) | {"m0"}
    restricted = sg.restricted_to(keep)
    assert list(restricted.state_list) == [s for s in sg.state_list if s in keep]


# ----------------------------------------------------------------------
# Store round-trips of the /6 payloads
# ----------------------------------------------------------------------
def _artifacts(stg):
    pipeline = Pipeline(AnalysisContext())
    spec = PipelineSpec.from_stg(stg)
    return {
        stage: pipeline.run(spec, until=stage)
        for stage in ("reach", "regions", "mc", "covers")
    }


@pytest.mark.parametrize(
    "stg", [concurrent_fork(4), load_benchmark("berkel3")], ids=["fork4", "berkel3"]
)
def test_payloads_decode_to_equal_graphs_regions_and_reports(stg):
    artifacts = _artifacts(stg)
    upstream = {
        "reach": (),
        "regions": (artifacts["reach"],),
        "mc": (artifacts["reach"],),
        "covers": (artifacts["reach"], artifacts["mc"]),
    }
    decoded = {}
    for stage, parts in upstream.items():
        payload = json.loads(json.dumps(stage_artifact_to_json(stage, artifacts[stage], parts)))
        decoded[stage] = stage_artifact_from_json(stage, payload, parts)
    fresh, loaded = artifacts["reach"].sg, decoded["reach"].sg
    assert _views(loaded) == _views(fresh)
    assert loaded.packed_codes == fresh.packed_codes
    assert decoded["regions"].regions == artifacts["regions"].regions
    for mine, theirs in zip(
        decoded["mc"].report.verdicts, artifacts["mc"].report.verdicts
    ):
        assert mine == theirs
    covers = decoded["covers"]
    assert _views(covers.sg) == _views(artifacts["covers"].sg)
    assert covers.insertion.report.verdicts == artifacts["covers"].insertion.report.verdicts
    assert (
        covers.implementation.equations()
        == artifacts["covers"].implementation.equations()
    )


def test_regions_against_a_reordered_graph_are_a_corrupt_miss(tmp_path):
    """Masks refer to one state order: a graph with the same fingerprint
    in another order does not decode them."""
    artifacts = _artifacts(load_benchmark("delement"))
    reached = artifacts["reach"]
    sg = reached.sg
    order = list(reversed(range(len(sg))))
    renumber = {old: new for new, old in enumerate(order)}
    given = list(sg.given_arc_order())
    shuffled = StateGraph.from_packed(
        sg.signals,
        sg.inputs,
        [sg.state_list[k] for k in order],
        [sg.packed_codes[k] for k in order],
        [renumber[sg.arc_sources[a]] for a in given],
        [sg.arc_events[a] for a in given],
        [renumber[sg.arc_targets[a]] for a in given],
        renumber[sg.initial_index],
        name=sg.name,
    )
    assert fingerprint_state_graph(shuffled) == reached.fingerprint
    other = type(reached)(sg=shuffled, source=None, fingerprint=reached.fingerprint)
    store = ArtifactStore(str(tmp_path / "store"))
    key = (reached.fingerprint,)
    assert store.put("regions", key, artifacts["regions"], (reached,))
    assert store.get("regions", key, (other,)) is None
    assert store.stats()["corrupt"] == {"regions": 1}
    assert not os.path.exists(store.path_for("regions", key))
