"""Host-independent hot-path regression gate for CI.

``BENCH_pipeline.json`` freezes the paired A/B measurement that accepted
the bitmask engine: ``pre_change_baseline_ms`` (the pure dict-based
path, now available as the ``reference`` analysis engine in
:mod:`repro.pipeline.backends`) against ``paired_post_change_ms`` (the
``bitengine`` backend) on the same host.  Absolute milliseconds are
meaningless across CI runners, but the *ratio* between the two backends
is not: both run on the same interpreter on the same host in the same
process.

The ``hazard-sim`` section freezes the analogous pair for the gate-level
hazard check over every synthesized Table-1 netlist: the packed check
(:func:`~repro.netlist.hazards.verify_speed_independence`, which builds
no circuit graph) against the retained per-literal dict reference
(:func:`~repro.netlist.circuit_sg.build_circuit_state_graph_reference`
plus :func:`~repro.sg.properties.conflict_states` on its graph).

The ``incremental`` section (written by ``benchmarks/bench_incremental.py``)
freezes the single-edit warm-vs-cold re-synthesis measurement of the
delta pipeline.  Like ``service`` it is gated on an absolute floor
(``--incremental-floor``, default 5x) over the recorded long-tail
designs (nowick/berkel3): the warm path rides the reachability replay
plus the content-addressed artifact chain, so anything under the floor
means delta re-synthesis stopped reusing.

The ``service`` section (written by ``benchmarks/bench_service.py``)
freezes the resident job server's cold-single-shot over warm-p50 win.
Unlike the paired sections it is gated on an *absolute* floor
(``--service-floor``, default 10x) rather than a frozen ratio: the warm
path is hundreds of times faster than the cold one, so a generous
absolute floor separates "the shared store/memo stopped serving" from
scheduler noise on a loaded CI runner.

This script re-measures both paths of each pair on the current host and
fails (exit 1) when a measured advantage falls more than ``--factor``
(default 1.25, i.e. 25%) below its frozen ratio -- the fast path got
relatively slower, which is exactly what a hot-path regression looks
like regardless of how fast the runner is.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py [--factor 1.25]
                                                         [--rounds 5]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict

from repro.corpus import concurrent_fork, token_ring
from repro.pipeline.backends import get_backend
from repro.stg.reachability import stg_to_state_graph

CASES = {
    "concurrent_fork(5)": lambda: concurrent_fork(5),
    "token_ring(12)": lambda: token_ring(12),
}

_JSON_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_pipeline.json",
)


@dataclass(frozen=True)
class FrozenBaseline:
    """The accepted A/B measurement, as a typed structured artifact."""

    #: case -> best-of-N milliseconds of the reference (dict-based) path
    reference_ms: Dict[str, float]
    #: case -> best-of-N milliseconds of the bitengine path
    engine_ms: Dict[str, float]

    @property
    def ratios(self) -> Dict[str, float]:
        """Per-case frozen (reference / engine) speed ratios."""
        return {
            case: self.reference_ms[case] / self.engine_ms[case]
            for case in self.reference_ms
            if case in self.engine_ms
        }

    @classmethod
    def from_json(cls, document: dict) -> "FrozenBaseline":
        hotpath = document["hotpath"]
        return cls(
            reference_ms={
                case: row["best"]
                for case, row in hotpath["pre_change_baseline_ms"].items()
            },
            engine_ms={
                case: row["best"]
                for case, row in hotpath["paired_post_change_ms"].items()
            },
        )


def frozen_ratios(path: str = _JSON_PATH) -> dict:
    """Per-case frozen (reference / engine) ratios from the pipeline log."""
    with open(path) as handle:
        document = json.load(handle)
    return FrozenBaseline.from_json(document).ratios


def frozen_hazard_sim_ratios(path: str = _JSON_PATH) -> dict:
    """Frozen (reference check / packed check) hazard-check ratios."""
    with open(path) as handle:
        document = json.load(handle)
    section = document["hazard-sim"]
    return FrozenBaseline(
        reference_ms={
            case: row["best"]
            for case, row in section["reference_check_ms"].items()
        },
        engine_ms={
            case: row["best"]
            for case, row in section["packed_check_ms"].items()
        },
    ).ratios


# One packed hazard sweep takes a few milliseconds, so one scheduler
# hiccup would decide a sample: each timed region repeats its sweep until
# it lasts at least this long.
_HAZARD_SIM_MIN_REGION_S = 0.05


def measure_hazard_sim_ratio(rounds: int = 5) -> tuple:
    """Best-of-N Table-1 sweep times of the packed and reference checks, in ms.

    Each side is the whole hazard check: ``verify_speed_independence``
    against the dict BFS plus ``conflict_states`` on its graph.  Each
    timed region repeats its sweep for at least
    ``_HAZARD_SIM_MIN_REGION_S`` and is divided by the repeat count; the
    two sides still alternate round by round.
    """
    from repro.bench.suite import BENCHMARKS, run_pipeline
    from repro.netlist.circuit_sg import build_circuit_state_graph_reference
    from repro.netlist.hazards import verify_speed_independence
    from repro.sg.properties import conflict_states

    pairs = []
    for name in BENCHMARKS:
        result = run_pipeline(name)
        pairs.append((result.hazard_report.netlist, result.insertion.sg))

    def packed() -> None:
        for netlist, spec in pairs:
            verify_speed_independence(netlist, spec)

    def reference() -> None:
        for netlist, spec in pairs:
            composition = build_circuit_state_graph_reference(netlist, spec)
            conflict_states(composition.sg, composition.sg.non_inputs)

    def repeats(sweep) -> int:
        start = time.perf_counter()
        sweep()
        once = time.perf_counter() - start
        return max(1, math.ceil(_HAZARD_SIM_MIN_REGION_S / max(once, 1e-6)))

    def timed(sweep, count: int) -> float:
        start = time.perf_counter()
        for _ in range(count):
            sweep()
        return (time.perf_counter() - start) / count

    packed_count, reference_count = repeats(packed), repeats(reference)
    packed_times, reference_times = [], []
    for _ in range(rounds):
        packed_times.append(timed(packed, packed_count))
        reference_times.append(timed(reference, reference_count))
    return min(packed_times) * 1000, min(reference_times) * 1000


def incremental_section(path: str = _JSON_PATH) -> dict:
    """The ``incremental`` single-edit record ({} when never measured)."""
    with open(path) as handle:
        document = json.load(handle)
    section = document.get("incremental")
    return section if isinstance(section, dict) else {}


def check_incremental(section: dict, floor: float) -> tuple:
    """Gate the recorded long-tail single-edit speedups -> (ok, messages).

    The speedup is recomputed from the recorded latencies (not trusted
    from the rounded field); every design named in ``long_tail`` must
    clear the absolute floor.
    """
    designs = section.get("long_tail") or []
    edits = section.get("edits") or {}
    if not designs:
        return False, ["incremental: no long_tail designs recorded"]
    ok, messages = True, []
    for name in designs:
        row = edits.get(name)
        try:
            cold_ms = float(row["cold_ms"])
            warm_ms = float(row["warm_ms"])
        except (KeyError, TypeError, ValueError):
            return False, [f"incremental/{name}: malformed record"]
        if warm_ms <= 0:
            return False, [f"incremental/{name}: non-positive warm ({warm_ms}ms)"]
        speedup = cold_ms / warm_ms
        verdict = "ok" if speedup >= floor else "REGRESSED"
        messages.append(
            f"incremental/{name}: cold {cold_ms:.1f}ms, warm {warm_ms:.2f}ms "
            f"-> {speedup:.0f}x single-edit speedup (floor {floor:.0f}x): "
            f"{verdict}"
        )
        if speedup < floor:
            ok = False
    return ok, messages


def service_section(path: str = _JSON_PATH) -> dict:
    """The ``service`` load-test record ({} when never measured)."""
    with open(path) as handle:
        document = json.load(handle)
    section = document.get("service")
    return section if isinstance(section, dict) else {}


def batch_section(path: str = _JSON_PATH) -> dict:
    """The ``batch`` cold-vs-resumed record ({} when never measured)."""
    with open(path) as handle:
        document = json.load(handle)
    section = document.get("batch")
    return section if isinstance(section, dict) else {}


def corpus_section(path: str = _JSON_PATH) -> dict:
    """The ``corpus`` factory-throughput record ({} when never measured)."""
    with open(path) as handle:
        document = json.load(handle)
    section = document.get("corpus")
    return section if isinstance(section, dict) else {}


def check_corpus(section: dict, floor: float) -> tuple:
    """Gate one recorded corpus measurement -> (ok, message).

    Throughput is recomputed from the recorded wall-clock and admitted
    count (not trusted from the rounded field) and must clear the
    absolute floor; the bench also records stream determinism and the
    full admission ledger, and a recording where the stream was not
    deterministic or the counters do not add up fails outright.
    """
    try:
        seconds = float(section["seconds"])
        admitted = int(section["admitted"])
        candidates = int(section["candidates"])
        rejected = int(section["rejected"])
    except (KeyError, TypeError, ValueError):
        return False, "corpus: malformed section (missing counters)"
    if seconds <= 0:
        return False, f"corpus: non-positive wall-clock ({seconds}s)"
    if not section.get("deterministic", False):
        return False, "corpus: recorded stream was not deterministic"
    if candidates != admitted + rejected:
        return False, (
            f"corpus: admission ledger does not add up "
            f"({candidates} candidates != {admitted} admitted "
            f"+ {rejected} rejected)"
        )
    designs_per_s = admitted / seconds
    verdict = "ok" if designs_per_s >= floor else "REGRESSED"
    message = (
        f"corpus: {admitted} designs in {seconds * 1000:.0f}ms "
        f"-> {designs_per_s:.0f} designs/s with the admission bar on "
        f"(floor {floor:.0f}/s): {verdict}"
    )
    return designs_per_s >= floor, message


def check_batch(section: dict, floor: float) -> tuple:
    """Gate one recorded batch measurement -> (ok, message).

    The resumed speedup is recomputed from the recorded wall-clocks
    (not trusted from the rounded field) and must clear the absolute
    floor; the bench also records whether every design resume-skipped
    and whether the two manifests were byte-identical, and a
    recording that says otherwise fails outright.
    """
    try:
        cold_ms = float(section["cold_ms"])
        resumed_ms = float(section["resumed_ms"])
    except (KeyError, TypeError, ValueError):
        return False, "batch: malformed section (missing wall-clocks)"
    if resumed_ms <= 0:
        return False, f"batch: non-positive resumed time ({resumed_ms}ms)"
    if not section.get("manifests_identical", False):
        return False, "batch: recorded manifests were not byte-identical"
    if section.get("resume_skips") != section.get("designs"):
        return False, (
            f"batch: only {section.get('resume_skips')}/"
            f"{section.get('designs')} designs resume-skipped"
        )
    speedup = cold_ms / resumed_ms
    verdict = "ok" if speedup >= floor else "REGRESSED"
    message = (
        f"batch: cold {cold_ms:.0f}ms, resumed {resumed_ms:.1f}ms over "
        f"{section.get('designs', '?')} designs -> {speedup:.0f}x resumed "
        f"speedup (floor {floor:.0f}x): {verdict}"
    )
    return speedup >= floor, message


def check_service(section: dict, floor: float) -> tuple:
    """Gate one recorded service measurement -> (ok, message).

    ``warm_speedup`` is recomputed from the recorded latencies (not
    trusted from the rounded field) and must clear the absolute floor.
    """
    try:
        cold_ms = float(section["cold_ms"])
        warm_p50_ms = float(section["warm_p50_ms"])
    except (KeyError, TypeError, ValueError):
        return False, "service: malformed section (missing latencies)"
    if warm_p50_ms <= 0:
        return False, f"service: non-positive warm p50 ({warm_p50_ms}ms)"
    speedup = cold_ms / warm_p50_ms
    verdict = "ok" if speedup >= floor else "REGRESSED"
    message = (
        f"service/{section.get('design', '?')}: cold {cold_ms:.1f}ms, "
        f"warm p50 {warm_p50_ms:.1f}ms -> {speedup:.1f}x warm speedup "
        f"(floor {floor:.0f}x): {verdict}"
    )
    return speedup >= floor, message


def measure_ratio(case: str, rounds: int = 5) -> tuple:
    """Best-of-N wall times for both backends on a fresh graph per round."""
    stg = CASES[case]()
    engine, reference = get_backend("bitengine"), get_backend("reference")
    engine_times, reference_times = [], []
    for _ in range(rounds):
        sg = stg_to_state_graph(stg)
        start = time.perf_counter()
        engine.analyze_mc(sg)
        engine_times.append(time.perf_counter() - start)
        sg = stg_to_state_graph(stg)  # fresh: both backends start cold
        start = time.perf_counter()
        reference.analyze_mc(sg)
        reference_times.append(time.perf_counter() - start)
    return min(engine_times) * 1000, min(reference_times) * 1000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--factor", type=float, default=1.25,
        help="tolerated relative slowdown of the engine vs the frozen "
        "ratio (default 1.25 = fail beyond 25%%)",
    )
    parser.add_argument(
        "--rounds", type=int, default=5,
        help="measurement rounds per case (best-of, default 5)",
    )
    parser.add_argument(
        "--json", default=_JSON_PATH,
        help="path to BENCH_pipeline.json (default: repo root)",
    )
    parser.add_argument(
        "--service-floor", type=float, default=10.0,
        help="minimum recorded warm speedup of the job server "
        "(default 10.0; the section is skipped when absent)",
    )
    parser.add_argument(
        "--incremental-floor", type=float, default=5.0,
        help="minimum recorded single-edit warm speedup on the long-tail "
        "designs (default 5.0; the section is skipped when absent)",
    )
    parser.add_argument(
        "--batch-floor", type=float, default=5.0,
        help="minimum recorded resumed-vs-cold batch speedup "
        "(default 5.0; the section is skipped when absent)",
    )
    parser.add_argument(
        "--corpus-floor", type=float, default=25.0,
        help="minimum recorded corpus-factory throughput in designs/s "
        "(default 25.0; the section is skipped when absent)",
    )
    parser.add_argument(
        "--sections",
        default="hotpath,hazard-sim,service,incremental,batch,corpus",
        help="comma-separated subset of gates to run (default: all); "
        "e.g. --sections service against a fresh bench_service output",
    )
    args = parser.parse_args(argv)
    sections = {name.strip() for name in args.sections.split(",") if name}
    unknown = sections - {
        "hotpath", "hazard-sim", "service", "incremental", "batch",
        "corpus",
    }
    if unknown:
        print(
            f"check_regression: unknown section(s) {', '.join(sorted(unknown))}",
            file=sys.stderr,
        )
        return 2

    failed = []
    if "hotpath" not in sections:
        frozen = {}
    else:
        try:
            frozen = frozen_ratios(args.json)
        except (OSError, KeyError, ValueError) as exc:
            print(f"check_regression: cannot load frozen baseline: {exc}",
                  file=sys.stderr)
            return 2
    for case in sorted(CASES) if "hotpath" in sections else ():
        if case not in frozen:
            print(f"{case}: no frozen baseline, skipped")
            continue
        engine_ms, reference_ms = measure_ratio(case, rounds=args.rounds)
        measured = reference_ms / engine_ms
        floor = frozen[case] / args.factor
        verdict = "ok" if measured >= floor else "REGRESSED"
        print(
            f"{case}: engine {engine_ms:.2f}ms, reference {reference_ms:.2f}ms "
            f"-> {measured:.2f}x (frozen {frozen[case]:.2f}x, "
            f"floor {floor:.2f}x): {verdict}"
        )
        if measured < floor:
            failed.append(case)

    frozen_hazard = {}
    if "hazard-sim" in sections:
        try:
            frozen_hazard = frozen_hazard_sim_ratios(args.json)
        except (OSError, KeyError, ValueError):
            print("hazard-sim: no frozen baseline, skipped")
    if "table1_corpus" in frozen_hazard:
        packed_ms, reference_ms = measure_hazard_sim_ratio(rounds=args.rounds)
        measured = reference_ms / packed_ms
        frozen_ratio = frozen_hazard["table1_corpus"]
        floor = frozen_ratio / args.factor
        verdict = "ok" if measured >= floor else "REGRESSED"
        print(
            f"hazard-sim/table1_corpus: packed {packed_ms:.2f}ms, "
            f"reference {reference_ms:.2f}ms "
            f"-> {measured:.2f}x (frozen {frozen_ratio:.2f}x, "
            f"floor {floor:.2f}x): {verdict}"
        )
        if measured < floor:
            failed.append("hazard-sim/table1_corpus")

    incremental = {}
    if "incremental" in sections:
        try:
            incremental = incremental_section(args.json)
        except (OSError, ValueError):
            pass
    if incremental:
        ok, messages = check_incremental(incremental, args.incremental_floor)
        for message in messages:
            print(message)
        if not ok:
            failed.append("incremental")
    elif "incremental" in sections:
        print("incremental: no recorded measurement, skipped")

    service = {}
    if "service" in sections:
        try:
            service = service_section(args.json)
        except (OSError, ValueError):
            pass
    if service:
        ok, message = check_service(service, args.service_floor)
        print(message)
        if not ok:
            failed.append("service")
    elif "service" in sections:
        print("service: no recorded measurement, skipped")

    batch = {}
    if "batch" in sections:
        try:
            batch = batch_section(args.json)
        except (OSError, ValueError):
            pass
    if batch:
        ok, message = check_batch(batch, args.batch_floor)
        print(message)
        if not ok:
            failed.append("batch")
    elif "batch" in sections:
        print("batch: no recorded measurement, skipped")

    corpus = {}
    if "corpus" in sections:
        try:
            corpus = corpus_section(args.json)
        except (OSError, ValueError):
            pass
    if corpus:
        ok, message = check_corpus(corpus, args.corpus_floor)
        print(message)
        if not ok:
            failed.append("corpus")
    elif "corpus" in sections:
        print("corpus: no recorded measurement, skipped")

    if failed:
        print(
            f"check_regression: hot path regressed on {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
