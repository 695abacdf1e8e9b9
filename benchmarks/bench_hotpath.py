"""Hot-path regression harness for the bitmask analysis engine.

Times ``analyze_mc`` on the two stress generators the engine was tuned
on -- ``concurrent_fork(5)`` (exponential state count, region-analysis
bound) and ``token_ring(12)`` (wide smallest cover cubes, greedy-search
bound) -- and records the results into the ``hotpath`` section of
``BENCH_pipeline.json`` next to the frozen pre-engine baseline, so any
later PR can see at a glance whether the hot path regressed.

Also measures the persistent artifact store's cold-vs-warm win on the
full Table-1 corpus (the ``store`` section): the warm sweep must serve
every stage from disk (zero misses) and beat the cold sweep's wall
time.

The ``hazard-sim`` section records the packed hazard check's win over
every synthesized Table-1 netlist: :func:`verify_speed_independence`
(packed BFS, conflicts on bit masks) against the retained per-literal
dict reference (:func:`build_circuit_state_graph_reference` plus
:func:`~repro.sg.properties.conflict_states` on its graph), next to the
frozen paired A/B that accepted the packed check.

Each measurement builds a *fresh* state graph per round: the engine
memoises aggressively in ``sg._analysis_cache``, and a warm graph would
time cache hits instead of the analysis.

Run with ``pytest benchmarks/bench_hotpath.py``; the ``smoke`` marker
selects a sub-second subset (``-m smoke``) for quick sanity checks.
"""

import os

import pytest

from repro.corpus import concurrent_fork, token_ring
from repro.bench.suite import update_pipeline_json
from repro.core.mc import analyze_mc
from repro.sg.bitengine import bit_analysis
from repro.stg.reachability import stg_to_state_graph

#: analyze_mc wall time before the bitmask engine (same host, fresh
#: graph per run, best/median over 8 interleaved trials of the paired
#: A/B harness that gated the engine's >= 3x acceptance criterion).
#: Frozen: do not re-measure.
PRE_CHANGE_BASELINE_MS = {
    "concurrent_fork(5)": {"best": 17.82, "median": 22.56},
    "token_ring(12)": {"best": 23.81, "median": 28.53},
}

#: the engine's times from the *same* paired run as the baseline above
#: (fork(5): 3.06x best / 3.34x median; ring(12): 4.68x / 4.83x).
#: Frozen alongside it so the acceptance pair survives noisy reruns.
PAIRED_POST_CHANGE_MS = {
    "concurrent_fork(5)": {"best": 5.82, "median": 6.76},
    "token_ring(12)": {"best": 5.09, "median": 5.90},
}

CASES = {
    "concurrent_fork(5)": lambda: concurrent_fork(5),
    "token_ring(12)": lambda: token_ring(12),
}

_measured = {}

_JSON_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_pipeline.json",
)


@pytest.fixture(scope="module", autouse=True)
def _record_hotpath_json():
    """After the module's benchmarks ran, merge them into the JSON log."""
    yield
    if not _measured:
        return
    update_pipeline_json(
        "hotpath",
        {
            "pre_change_baseline_ms": PRE_CHANGE_BASELINE_MS,
            "paired_post_change_ms": PAIRED_POST_CHANGE_MS,
            "measured_ms": _measured,
        },
        path=_JSON_PATH,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_hotpath_analyze_mc(case, benchmark):
    stg = CASES[case]()

    def fresh_graph():
        return (stg_to_state_graph(stg),), {}

    report = benchmark.pedantic(
        analyze_mc, setup=fresh_graph, rounds=7, iterations=1
    )
    assert report.satisfied
    stats = benchmark.stats.stats
    _measured[case] = {
        "best": stats.min * 1000,
        "median": stats.median * 1000,
    }
    baseline = PRE_CHANGE_BASELINE_MS[case]
    print(
        f"\n[hotpath] {case}: best {stats.min * 1000:.2f}ms "
        f"(pre-engine {baseline['best']:.2f}ms, "
        f"{baseline['best'] / (stats.min * 1000):.2f}x)"
    )


@pytest.mark.smoke
@pytest.mark.parametrize("maker,n", [(concurrent_fork, 3), (token_ring, 6)])
def test_hotpath_smoke(maker, n):
    """Sub-second sanity check: the engine path runs and counts work."""
    sg = stg_to_state_graph(maker(n))
    report = analyze_mc(sg)
    assert report.satisfied
    engine = bit_analysis(sg)
    assert engine.cube_evals > 0  # the bitset path actually ran


# ----------------------------------------------------------------------
# Persistent artifact store: cold vs warm over the Table-1 corpus
# ----------------------------------------------------------------------
_store_measured = {}


@pytest.fixture(scope="module", autouse=True)
def _record_store_json():
    """Merge the cold/warm store measurements into the JSON log."""
    yield
    if not _store_measured:
        return
    update_pipeline_json("store", _store_measured, path=_JSON_PATH)


def test_store_cold_vs_warm(tmp_path):
    """A warm store sweep recomputes nothing and beats the cold sweep.

    Runs the full Table-1 pipeline (insertion + synthesis + hazard
    check) over every bundled design twice against one store directory.
    The second sweep must be all hits -- zero reachability/MC/insertion
    recomputation -- which is the store's entire reason to exist.
    """
    import time

    from repro.bench.suite import BENCHMARKS, run_pipeline
    from repro.pipeline.store import ArtifactStore

    root = str(tmp_path / "artifact-store")

    cold_store = ArtifactStore(root)
    started = time.perf_counter()
    cold = [run_pipeline(name, store=cold_store) for name in BENCHMARKS]
    cold_seconds = time.perf_counter() - started
    assert cold_store.totals()["hit"] == 0

    warm_store = ArtifactStore(root)
    started = time.perf_counter()
    warm = [run_pipeline(name, store=warm_store) for name in BENCHMARKS]
    warm_seconds = time.perf_counter() - started
    traffic = warm_store.totals()
    assert traffic["miss"] == 0, f"warm sweep recomputed stages: {traffic}"
    assert traffic["hit"] >= 5 * len(BENCHMARKS)

    # identical results either way (equations are the full functional
    # content; the hazard verdict must agree claim-for-claim)
    for cold_result, warm_result in zip(cold, warm):
        assert (
            cold_result.implementation.equations()
            == warm_result.implementation.equations()
        )
        assert (
            cold_result.hazard_report.hazard_free
            == warm_result.hazard_report.hazard_free
        )

    _store_measured.update(
        {
            "designs": len(BENCHMARKS),
            "cold_s": round(cold_seconds, 4),
            "warm_s": round(warm_seconds, 4),
            "speedup": round(cold_seconds / warm_seconds, 2),
            "warm_traffic": traffic,
        }
    )
    print(
        f"\n[store] Table-1 corpus: cold {cold_seconds:.2f}s, "
        f"warm {warm_seconds:.2f}s "
        f"({cold_seconds / warm_seconds:.1f}x, {traffic['hit']} hits)"
    )


# ----------------------------------------------------------------------
# Circuit composition: compiled-IR BFS vs dict reference (Table-1)
# ----------------------------------------------------------------------

#: total wall time for one hazard-check sweep over every synthesized
#: Table-1 netlist: the retained per-literal dict BFS
#: (build_circuit_state_graph_reference) plus conflict_states on its
#: eagerly built circuit graph.  Best/median over 7 interleaved trials
#: of the paired A/B run that accepted the packed hazard check on this
#: host.  Frozen: do not re-measure.
HAZARD_SIM_REFERENCE_CHECK_MS = {
    "table1_corpus": {"best": 37.29, "median": 38.86},
}

#: verify_speed_independence (packed BFS, conflicts on bit masks, no
#: circuit graph) from the *same* paired run as the reference above
#: (5.89x best / 5.69x median). Frozen alongside it.
HAZARD_SIM_PACKED_CHECK_MS = {
    "table1_corpus": {"best": 6.33, "median": 6.83},
}

_hazard_sim_measured = {}


@pytest.fixture(scope="module", autouse=True)
def _record_hazard_sim_json():
    """Merge the hazard-sim A/B measurements into the JSON log."""
    yield
    if not _hazard_sim_measured:
        return
    update_pipeline_json(
        "hazard-sim",
        {
            "reference_check_ms": HAZARD_SIM_REFERENCE_CHECK_MS,
            "packed_check_ms": HAZARD_SIM_PACKED_CHECK_MS,
            "measured_ms": _hazard_sim_measured,
        },
        path=_JSON_PATH,
    )


def _table1_composition_pairs():
    """Every Table-1 (netlist, spec) composition input, synthesized once."""
    from repro.bench.suite import BENCHMARKS, run_pipeline

    pairs = []
    for name in BENCHMARKS:
        result = run_pipeline(name)
        pairs.append((result.hazard_report.netlist, result.insertion.sg))
    return pairs


def _reference_check(netlist, spec):
    """The oracle hazard check: dict BFS, eager graph, conflict_states."""
    from repro.netlist.circuit_sg import build_circuit_state_graph_reference
    from repro.sg.properties import conflict_states

    composition = build_circuit_state_graph_reference(netlist, spec)
    return composition, conflict_states(composition.sg, composition.sg.non_inputs)


def test_hazard_sim_packed_vs_reference():
    """The packed hazard check beats the reference and agrees with it."""
    import time

    from repro.netlist.hazards import verify_speed_independence

    pairs = _table1_composition_pairs()

    # parity first: the benchmark is meaningless if the paths diverge
    for netlist, spec in pairs:
        report = verify_speed_independence(netlist, spec)
        reference, conflicts = _reference_check(netlist, spec)
        packed = report.composition
        assert report.conflicts == conflicts
        assert report.circuit_states == len(reference.sg)
        assert packed.sg.state_list == reference.sg.state_list
        assert packed.sg.arcs() == reference.sg.arcs()
        assert packed.conformance_failures == reference.conformance_failures
        assert packed.rs_violations == reference.rs_violations

    packed_times, reference_times = [], []
    for _ in range(7):
        start = time.perf_counter()
        for netlist, spec in pairs:
            verify_speed_independence(netlist, spec)
        packed_times.append((time.perf_counter() - start) * 1000)
        start = time.perf_counter()
        for netlist, spec in pairs:
            _reference_check(netlist, spec)
        reference_times.append((time.perf_counter() - start) * 1000)

    packed_times.sort()
    reference_times.sort()
    _hazard_sim_measured["table1_corpus"] = {
        "packed": {
            "best": round(packed_times[0], 2),
            "median": round(packed_times[3], 2),
        },
        "reference": {
            "best": round(reference_times[0], 2),
            "median": round(reference_times[3], 2),
        },
        "speedup_best": round(reference_times[0] / packed_times[0], 2),
    }
    print(
        f"\n[hazard-sim] Table-1 corpus: packed {packed_times[0]:.2f}ms, "
        f"reference {reference_times[0]:.2f}ms "
        f"({reference_times[0] / packed_times[0]:.2f}x)"
    )
