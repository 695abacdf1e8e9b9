"""repro -- Monotonous-Cover synthesis of speed-independent circuits.

A reproduction of A. Kondratyev, M. Kishinevsky, B. Lin, P. Vanbekbergen
and A. Yakovlev, *Basic Gate Implementation of Speed-Independent
Circuits*, DAC 1994.

The library implements the paper's theory and tooling end to end:

* **State graphs** (:mod:`repro.sg`): the specification model, with all
  behavioural properties (semi-modularity, distributivity, persistency,
  CSC) and region machinery (excitation/quiescent/constant-function
  regions, unique entry, triggers, ordered/concurrent signals).
* **Signal transition graphs** (:mod:`repro.stg`): 1-safe labelled Petri
  nets in the ``.g`` format, elaborated to state graphs by token-flow
  reachability.
* **Monotonous Cover theory** (:mod:`repro.core`): cover cubes, correct
  covers, monotonous covers and their generalised (gate-sharing) form;
  MC analysis; synthesis of standard C- and RS-implementations; the
  Beerel-Meng-style correct-cover baseline; and SAT-driven state-signal
  insertion (generalized state assignment) repairing MC violations.
* **Gate-level verification** (:mod:`repro.netlist`): netlists over
  basic gates, composition with the specification environment into a
  circuit-level state graph, and speed-independence checking (output
  semi-modularity over every gate) under the pure unbounded-delay model.
* **Benchmarks** (:mod:`repro.bench`): the paper's figures entered
  verbatim and the nine Table-1 designs with the full pipeline driver.

Quick start::

    from repro import synthesize_from_stg
    from repro.bench import load_benchmark

    result = synthesize_from_stg(load_benchmark("delement"))
    print(result.implementation.equations())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - resolved lazily at run time
    from repro.core import Implementation, InsertionResult
    from repro.netlist import HazardReport, Netlist
    from repro.sg import StateGraph
    from repro.stg import STG

__version__ = "1.0.0"

__all__ = [
    "Cube",
    "Cover",
    "StateGraph",
    "SignalEvent",
    "STG",
    "parse_g",
    "load_g",
    "stg_to_state_graph",
    "analyze_mc",
    "synthesize",
    "baseline_synthesize",
    "insert_state_signals",
    "Implementation",
    "InsertionResult",
    "MCReport",
    "SynthesisError",
    "Netlist",
    "netlist_from_implementation",
    "verify_speed_independence",
    "HazardReport",
    "SynthesisResult",
    "synthesize_from_stg",
    "synthesize_from_state_graph",
    "Pipeline",
    "PipelineSpec",
    "AnalysisContext",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "boolean": ("Cube", "Cover"),
        "core": (
            "analyze_mc",
            "baseline_synthesize",
            "insert_state_signals",
            "synthesize",
            "Implementation",
            "InsertionResult",
            "MCReport",
            "SynthesisError",
        ),
        "netlist": (
            "Netlist",
            "netlist_from_implementation",
            "verify_speed_independence",
            "HazardReport",
        ),
        "sg": ("StateGraph", "SignalEvent"),
        "stg": ("STG", "parse_g", "load_g", "stg_to_state_graph"),
        "pipeline": ("Pipeline", "PipelineSpec", "AnalysisContext"),
    },
)


@dataclass
class SynthesisResult:
    """End-to-end synthesis outcome (see :func:`synthesize_from_stg`)."""

    spec: StateGraph
    insertion: InsertionResult
    implementation: Implementation
    netlist: Netlist
    hazard_report: Optional[HazardReport]

    @property
    def added_signals(self):
        return self.insertion.added_signals

    @property
    def hazard_free(self) -> bool:
        return bool(self.hazard_report and self.hazard_report.hazard_free)


def _run_synthesis(spec, context) -> SynthesisResult:
    """Drive the staged pipeline and package the classic result shape."""
    from repro.pipeline import AnalysisContext, Pipeline

    pipeline = Pipeline(context if context is not None else AnalysisContext())
    synthesized = pipeline.run(spec, until="netlist")
    plan = pipeline.run(spec, until="covers")  # memo hit: same artifacts
    reached = pipeline.run(spec, until="reach")
    return SynthesisResult(
        spec=reached.sg,
        insertion=plan.insertion,
        implementation=plan.implementation,
        netlist=synthesized.netlist,
        hazard_report=synthesized.hazard_report,
    )


def synthesize_from_state_graph(
    sg: StateGraph,
    style: str = "C",
    share_gates: bool = False,
    verify: bool = True,
    max_models: int = 400,
    verify_max_states: int = 500_000,
    context=None,
) -> SynthesisResult:
    """The paper's full synthesis procedure from a state graph.

    1. insert state signals until the (generalised) MC requirement holds,
    2. derive the standard C- or RS-implementation,
    3. optionally verify speed independence at the gate level
       (``verify_max_states`` caps the circuit-level composition; a
       truncated composition makes the hazard report *inconclusive*
       rather than hazard-free).

    A thin wrapper over :class:`repro.pipeline.Pipeline`; pass an
    :class:`~repro.pipeline.AnalysisContext` to share a budget or reuse
    memoised stage artifacts.
    """
    from repro.pipeline import PipelineSpec

    spec = PipelineSpec.from_state_graph(
        sg,
        style=style,
        share_gates=share_gates,
        verify=verify,
        max_models=max_models,
        verify_max_states=verify_max_states,
    )
    return _run_synthesis(spec, context)


def synthesize_from_stg(
    stg: STG,
    style: str = "C",
    share_gates: bool = False,
    verify: bool = True,
    max_models: int = 400,
    context=None,
) -> SynthesisResult:
    """Convenience wrapper: elaborate the STG, then synthesise."""
    from repro.pipeline import PipelineSpec

    spec = PipelineSpec.from_stg(
        stg,
        style=style,
        share_gates=share_gates,
        verify=verify,
        max_models=max_models,
    )
    return _run_synthesis(spec, context)
