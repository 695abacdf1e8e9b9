"""The Table-1 benchmark suite and the end-to-end pipeline driver.

Table 1 of the paper reports, for nine asynchronous-controller designs,
the interface size and the number of state signals the MC-driven state
assignment inserts.  The original 1994 ``.tim`` files are not available;
each design here is a reconstruction as an STG with the *same interface
size* and the control structure its name denotes in the asynchronous
benchmark literature (see DESIGN.md).  The reproduction target is the
shape of the table: how many signals MC reduction needs (0-2 per
design), with every run far under the paper's 5-minute timeout.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro import perf
from repro.core.insertion import InsertionResult
from repro.core.synthesis import Implementation
from repro.netlist.hazards import HazardReport
from repro.netlist.netlist import netlist_from_implementation
from repro.sg.graph import StateGraph
from repro.stg.parser import load_g
from repro.stg.stg import STG

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

#: benchmark name -> (file, paper's (inputs, outputs, added signals))
BENCHMARKS: Dict[str, Tuple[str, Tuple[int, int, int]]] = {
    "nak-pa": ("nak-pa.g", (4, 5, 1)),
    "nowick": ("nowick.g", (3, 2, 1)),
    "duplicator": ("duplicator.g", (2, 2, 2)),
    "ganesh8": ("ganesh8.g", (2, 2, 2)),
    "berkel2": ("berkel2.g", (2, 2, 1)),
    "berkel3": ("berkel3.g", (2, 2, 2)),
    "mp-forward-pkt": ("mp-forward-pkt.g", (3, 4, 0)),
    "luciano": ("luciano.g", (1, 2, 1)),
    "delement": ("delement.g", (2, 2, 1)),
}


def load_benchmark(name: str) -> STG:
    """Load one of the Table-1 designs by name."""
    try:
        filename, _ = BENCHMARKS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {sorted(BENCHMARKS)}"
        ) from None
    return load_g(os.path.join(_DATA_DIR, filename))


def paper_row(name: str) -> Tuple[int, int, int]:
    """The paper's (inputs, outputs, added signals) for a design."""
    return BENCHMARKS[name][1]


@dataclass
class PipelineResult:
    """Everything the Table-1 harness reports for one design."""

    name: str
    stg: STG
    spec_sg: StateGraph
    insertion: InsertionResult
    implementation: Implementation
    hazard_report: Optional[HazardReport]
    elapsed_seconds: float
    #: per-phase wall time / op counters when run with ``profile=True``
    profile: Optional[Dict] = None
    #: per-stage reuse ledger of the run that produced this result:
    #: stage -> {"mode": "hit" | "miss" | "partial", ...counts}
    reuse: Optional[Dict] = None

    @property
    def added_signals(self) -> int:
        return len(self.insertion.added_signals)

    @property
    def row(self) -> Tuple[str, int, int, int]:
        return (
            self.name,
            len(self.stg.inputs),
            len(self.stg.non_inputs),
            self.added_signals,
        )

    def to_json(self) -> Dict:
        """One structured Table-1 row (the ``table1`` section schema)."""
        from repro.pipeline.serialize import pipeline_result_to_json

        return pipeline_result_to_json(self)

    @classmethod
    def from_json(cls, data: Dict) -> "PipelineResult":
        """Rebuild a comparable row from :meth:`to_json` output."""
        from repro.pipeline.serialize import pipeline_result_from_json

        return pipeline_result_from_json(data)


def unknown_designs_error(names: Iterable[str]) -> Optional[str]:
    """The usage error for ``names`` that are not Table-1 designs, or None."""
    unknown = sorted(set(names) - set(BENCHMARKS))
    if not unknown:
        return None
    return (
        f"unknown design(s): {', '.join(unknown)}; "
        f"available: {', '.join(sorted(BENCHMARKS))}"
    )


def run_pipeline(
    name: str,
    verify: bool = True,
    style: str = "C",
    max_models: int = 400,
    profile: bool = False,
    context=None,
    store=None,
) -> PipelineResult:
    """Full MC-reduction pipeline for one benchmark.

    Drives :class:`repro.pipeline.Pipeline` end to end: STG -> state
    graph -> MC-driven state-signal insertion -> standard implementation
    -> (optionally) circuit-level speed-independence verification.

    With ``profile=True`` a fresh :mod:`repro.perf` recorder is scoped
    to this run (via :func:`repro.perf.recording`) and its per-phase
    wall times and op counters land in ``result.profile``.  Pass a
    ``context`` to run the ``reference`` oracle or share budgets/caches
    across designs; ``profile`` is ignored when a context is supplied
    (the context's own recorder wins).  ``store`` (a directory path or
    :class:`~repro.pipeline.store.ArtifactStore`) backs the default
    context with the persistent artifact cache; it is ignored when an
    explicit ``context`` is supplied (configure the context instead).
    """
    from repro.pipeline import AnalysisContext, Pipeline, PipelineSpec

    if context is None:
        context = AnalysisContext(
            recorder=perf.PerfRecorder() if profile else None,
            store=store,
        )
    started = time.perf_counter()
    stg = load_benchmark(name)
    spec = PipelineSpec.from_stg(
        stg, name=name, style=style, verify=verify, max_models=max_models
    )
    pipeline = Pipeline(context)
    hazard_report = None
    if verify:
        hazard_report = pipeline.run(spec, until="netlist").hazard_report
        reuse = {k: dict(v) for k, v in context.last_reuse.items()}
        plan = pipeline.run(spec, until="covers")
    else:
        plan = pipeline.run(spec, until="covers")
        reuse = {k: dict(v) for k, v in context.last_reuse.items()}
    reached = pipeline.run(spec, until="reach")
    return PipelineResult(
        name=name,
        stg=stg,
        spec_sg=reached.sg,
        insertion=plan.insertion,
        implementation=plan.implementation,
        hazard_report=hazard_report,
        elapsed_seconds=time.perf_counter() - started,
        profile=(
            context.recorder.as_dict() if context.recorder is not None else None
        ),
        reuse=reuse,
    )


def run_table1(
    verify: bool = True,
    names: Optional[List[str]] = None,
    profile: bool = False,
    store=None,
) -> List[PipelineResult]:
    """Run the whole Table-1 suite; returns one result per design.

    Designs run one after another in the requested order.  ``store`` (a
    directory path) warms every design from the persistent artifact
    cache.
    """
    return [
        run_pipeline(name, verify=verify, profile=profile, store=store)
        for name in names or BENCHMARKS
    ]


#: current schema tag of BENCH_pipeline.json; bump on breaking changes
PIPELINE_JSON_SCHEMA = "repro-bench-pipeline/1"


def update_pipeline_json(
    section: str, payload, path: str = "BENCH_pipeline.json"
) -> str:
    """Merge one section into the machine-readable benchmark trajectory.

    ``BENCH_pipeline.json`` is the cross-PR perf record: each harness
    owns one top-level section (``hotpath`` from
    ``benchmarks/bench_hotpath.py``, ``table1`` from this suite,
    ``scaling`` from ``benchmarks/bench_scaling.py``) and updates it in
    place, leaving the others untouched so trajectories accumulate.
    Returns the path written.
    """
    document = {"schema": PIPELINE_JSON_SCHEMA}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                existing = json.load(handle)
            if isinstance(existing, dict):
                document.update(existing)
        except (OSError, ValueError):
            pass  # unreadable trajectory: start a fresh one
    document["schema"] = PIPELINE_JSON_SCHEMA
    document[section] = payload
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def table1_payload(results: List[PipelineResult]) -> List[Dict]:
    """The ``table1`` section of BENCH_pipeline.json."""
    return [result.to_json() for result in results]


def write_pipeline_json(
    results: List[PipelineResult], path: str = "BENCH_pipeline.json"
) -> str:
    """Write the Table-1 rows into BENCH_pipeline.json (section ``table1``)."""
    return update_pipeline_json("table1", table1_payload(results), path)


def format_table1(results: List[PipelineResult]) -> str:
    """Render the paper's Table 1 with measured columns alongside.

    ``area`` is the static-CMOS transistor estimate of the standard
    C-implementation (an extension column; the paper reports none).
    """
    from repro.netlist.area import area_estimate

    header = (
        f"{'Example':<16}{'in':>4}{'out':>5}{'added':>7}{'paper':>7}"
        f"{'states':>8}{'SI':>6}{'area':>6}{'time[s]':>9}"
    )
    lines = [header, "-" * len(header)]
    for result in results:
        paper_added = paper_row(result.name)[2]
        hazard_free = (
            "yes"
            if result.hazard_report and result.hazard_report.hazard_free
            else ("-" if result.hazard_report is None else "NO")
        )
        if result.hazard_report is not None:
            netlist = result.hazard_report.netlist
        else:
            netlist = netlist_from_implementation(result.implementation, "C")
        lines.append(
            f"{result.name:<16}{len(result.stg.inputs):>4}"
            f"{len(result.stg.non_inputs):>5}{result.added_signals:>7}"
            f"{paper_added:>7}{len(result.insertion.sg):>8}"
            f"{hazard_free:>6}{area_estimate(netlist):>6}"
            f"{result.elapsed_seconds:>9.2f}"
        )
    return "\n".join(lines)
