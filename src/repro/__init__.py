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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple

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


# ----------------------------------------------------------------------
# The verdict policy: every surface (CLI, batch workers, service) names
# a design's outcome and its exit code through these definitions.
# ----------------------------------------------------------------------
#: exit codes: 0 ok; 1 hazard found or synthesis failed; 2 usage or load
#: error; 3 inconclusive (a budget tripped, the state space truncated)
EXIT_OK = 0
EXIT_HAZARD = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

#: design statuses, as batch manifest rows and service verdicts spell them
STATUS_OK = "hazard-free"
STATUS_UNVERIFIED = "synthesised"
STATUS_HAZARD = "hazardous"
STATUS_INCONCLUSIVE = "inconclusive"
STATUS_FAILED = "failed"
STATUS_ERROR = "error"

STATUS_EXIT = {
    STATUS_OK: EXIT_OK,
    STATUS_UNVERIFIED: EXIT_OK,
    STATUS_HAZARD: EXIT_HAZARD,
    STATUS_INCONCLUSIVE: EXIT_INCONCLUSIVE,
    STATUS_FAILED: EXIT_HAZARD,
    STATUS_ERROR: EXIT_HAZARD,
}

TRUNCATED = "circuit state space truncated before full exploration"


class Verdict(NamedTuple):
    """A design status plus its deterministic reason text."""

    status: str
    detail: str = ""

    @property
    def exit_code(self) -> int:
        return STATUS_EXIT[self.status]


def verdict_of(report) -> Verdict:
    """The verdict of a hazard report (``None``: verification was off).

    Reads ``hazard_free``, ``inconclusive`` and ``conflict_count``, which
    the live and the cached (detached) report types both expose.
    """
    if report is None:
        return Verdict(STATUS_UNVERIFIED)
    if report.hazard_free:
        return Verdict(STATUS_OK)
    if report.inconclusive:
        return Verdict(STATUS_INCONCLUSIVE, TRUNCATED)
    return Verdict(STATUS_HAZARD, f"{report.conflict_count} conflict(s)")


def verdict_errors() -> Tuple[type, ...]:
    """The exceptions that name a verdict (see :func:`verdict_of_error`).

    A function, so that ``except verdict_errors()`` imports the types
    only once an exception is raised.
    """
    from repro.core.insertion import InsertionError
    from repro.core.synthesis import CSCViolation, SynthesisError
    from repro.stg.reachability import ReachabilityError
    from repro.verify.budget import BudgetExceeded

    return (BudgetExceeded, ReachabilityError, CSCViolation, InsertionError, SynthesisError)


def verdict_of_error(exc: Exception) -> Verdict:
    """The verdict of an exception in :func:`verdict_errors`.

    A tripped budget or a blown reachability cap is inconclusive; a
    synthesis that cannot complete is a definite failure.
    """
    from repro.stg.reachability import ReachabilityError
    from repro.verify.budget import BudgetExceeded

    if isinstance(exc, (BudgetExceeded, ReachabilityError)):
        return Verdict(STATUS_INCONCLUSIVE, getattr(exc, "reason", None) or str(exc))
    return Verdict(STATUS_FAILED, f"synthesis failed: {exc}")


# ----------------------------------------------------------------------
# The design driver
# ----------------------------------------------------------------------
@dataclass
class SynthesisResult:
    """End-to-end synthesis outcome (see :func:`synthesize_from_stg`)."""

    spec: StateGraph
    insertion: InsertionResult
    implementation: Implementation
    netlist: Netlist
    hazard_report: Optional[HazardReport]
    #: fingerprint of the netlist-stage artifact
    fingerprint: str = ""
    #: per-stage reuse ledger of the run that synthesised the netlist:
    #: stage -> {"mode": "hit" | "miss" | "partial", ...counts}
    reuse: Dict[str, Dict] = field(default_factory=dict)

    @property
    def added_signals(self):
        return self.insertion.added_signals

    @property
    def hazard_free(self) -> bool:
        return bool(self.hazard_report and self.hazard_report.hazard_free)


def run_synthesis(spec, context=None, delta=None) -> SynthesisResult:
    """Run one :class:`~repro.pipeline.PipelineSpec` to its netlist.

    The one driver every surface packages a design through.  ``delta``
    re-synthesises ``spec`` with that edit applied, reusing the base
    spec's artifacts in ``context`` (see :meth:`Pipeline.run`).
    """
    from repro.pipeline import Pipeline

    pipeline = Pipeline(context)
    synthesized = pipeline.run(spec, until="netlist", delta=delta)
    reuse = {k: dict(v) for k, v in pipeline.context.last_reuse.items()}
    if delta is not None:
        spec = spec.apply_delta(delta)
    plan = pipeline.run(spec, until="covers")  # memo hit: same artifacts
    reached = pipeline.run(spec, until="reach")
    return SynthesisResult(
        spec=reached.sg,
        insertion=plan.insertion,
        implementation=plan.implementation,
        netlist=synthesized.netlist,
        hazard_report=synthesized.hazard_report,
        fingerprint=synthesized.fingerprint,
        reuse=reuse,
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
    return run_synthesis(spec, context)


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
    return run_synthesis(spec, context)
