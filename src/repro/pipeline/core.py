"""The staged synthesis pipeline: one orchestrator for every flow.

Every end-to-end run in the repo -- the ``repro-si`` CLI, the library
wrappers (:func:`repro.synthesize_from_stg`), the Table-1 bench harness
and the verify campaigns -- is a :class:`Pipeline` driving the same five
stages over a shared :class:`~repro.pipeline.context.AnalysisContext`::

    reach ──> regions ──> mc ──> covers ──> netlist

========== ============================================================
reach      elaborate the STG (or adopt a ready state graph)
regions    excitation regions of every non-input signal
mc         the context engine's Monotonous Cover analysis (Defs. 17-19)
covers     MC-driven state-signal insertion + standard implementation
netlist    basic-gate netlist + optional speed-independence check
========== ============================================================

``Pipeline.run(spec, until=<stage>)`` returns that stage's typed frozen
artifact (:mod:`repro.pipeline.artifacts`).  Results are memoised on the
context, keyed on the upstream artifact's fingerprint chained with every
option that feeds the stage -- running the same spec twice in one
context performs each analysis exactly once, while a mutated
specification recomputes exactly the stages downstream of the mutation.

The context also carries the single :class:`~repro.verify.budget.Budget`
the run charges (circuit composition and specification elaboration are
charged here, in the stage that performs them, and nowhere else) and the
optional perf recorder installed for the duration of each ``run``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional, Union

from repro import perf
from repro.pipeline.artifacts import (
    CoverPlan,
    MCVerdict,
    ReachedSG,
    RegionMap,
    SynthesizedNetlist,
    fingerprint_cover_plan,
    fingerprint_mc_report,
    fingerprint_netlist,
    fingerprint_region_map,
    fingerprint_state_graph,
    fingerprint_stg,
)
from repro.pipeline.context import AnalysisContext
from repro.pipeline.incremental import adoptable_regions, adoptable_verdicts
from repro.sg.graph import StateGraph
from repro.stg.stg import STG

#: stage names, in execution order (the ``until=`` vocabulary)
STAGES = ("reach", "regions", "mc", "covers", "netlist")


@dataclass(frozen=True)
class PipelineSpec:
    """What to synthesise and with which options.

    Exactly one of ``stg`` / ``sg`` is the entry point; every other
    field is a stage option.  Specs are immutable values -- derive
    variants with :func:`dataclasses.replace` (the pipeline's
    memoisation keys on the fields that matter per stage, so an
    option-only variant reuses every unaffected upstream artifact).
    """

    stg: Optional[STG] = None
    sg: Optional[StateGraph] = None
    name: str = ""
    style: str = "C"
    #: ``False``, ``True`` (greedy Sec.-VI sharing) or ``"optimal"``
    share_gates: object = False
    verify: bool = True
    max_models: int = 400
    #: reachability cap when elaborating ``stg``
    max_states: int = 200_000
    #: circuit-composition cap for the hazard check
    verify_max_states: int = 500_000

    def __post_init__(self):
        if (self.stg is None) == (self.sg is None):
            raise ValueError("exactly one of stg/sg must be given")
        if not self.name:
            source = self.stg if self.stg is not None else self.sg
            object.__setattr__(self, "name", source.name)

    # ------------------------------------------------------------------
    @classmethod
    def from_stg(cls, stg: STG, **options) -> "PipelineSpec":
        return cls(stg=stg, **options)

    @classmethod
    def from_state_graph(cls, sg: StateGraph, **options) -> "PipelineSpec":
        return cls(sg=sg, **options)

    @classmethod
    def from_benchmark(cls, name: str, **options) -> "PipelineSpec":
        """A Table-1 design by name (see :data:`repro.bench.BENCHMARKS`)."""
        from repro.bench.suite import load_benchmark

        return cls(stg=load_benchmark(name), name=name, **options)

    def with_options(self, **options) -> "PipelineSpec":
        return replace(self, **options)

    def apply_delta(self, delta) -> "PipelineSpec":
        """The spec with a :class:`~repro.pipeline.delta.SpecDelta` applied.

        ``delta`` may be a ``SpecDelta``, edit text (``"add a+ b-"``
        lines) or the JSON form; only STG-based specs can be edited.
        """
        delta = _coerce_delta(delta)
        if self.stg is None:
            raise ValueError("apply_delta needs an STG-based spec")
        return replace(self, stg=delta.apply_to_stg(self.stg))


def _coerce_delta(delta):
    from repro.pipeline.delta import SpecDelta

    if isinstance(delta, SpecDelta):
        return delta
    if isinstance(delta, dict):
        return SpecDelta.from_json(delta)
    return SpecDelta.parse(delta)


@dataclass
class _DeltaHints:
    """Base-spec artifacts offered to the stages of a delta run.

    Every field is optional: absent hints degrade each stage to its
    plain from-scratch compute.  Hints never change results — they only
    let stages skip recomputing sub-results whose input cone provably
    matches the base (see :mod:`repro.pipeline.incremental`).
    """

    snapshot: object = None  # ExplorationSnapshot of the base STG
    base_reached: Optional[ReachedSG] = None
    base_regions: Optional[RegionMap] = None
    base_mc: Optional[MCVerdict] = None


class Pipeline:
    """Drives the staged flow over one :class:`AnalysisContext`."""

    stages = STAGES

    def __init__(self, context: Optional[AnalysisContext] = None):
        self.context = context if context is not None else AnalysisContext()

    # ------------------------------------------------------------------
    def run(
        self,
        spec: Union[PipelineSpec, STG, StateGraph],
        until: str = "netlist",
        delta=None,
    ):
        """Run the pipeline up to (and including) stage ``until``.

        Returns that stage's artifact; upstream artifacts land in the
        context's memo cache, so a later ``run`` of an earlier stage (or
        a re-run) is a cache hit.  Raw ``STG`` / ``StateGraph`` inputs
        are coerced to a default :class:`PipelineSpec`.

        ``delta`` switches to incremental re-synthesis: ``spec`` is the
        *base*, the pipeline runs on ``spec.apply_delta(delta)``, and
        the base spec's artifacts (probed from the context caches, plus
        the base exploration snapshot when this context elaborated it)
        are offered to each stage as reuse hints.  Incremental results
        are byte-identical to running the edited spec from scratch — the
        hints only scope *recomputation* to what the edit dirtied.
        ``delta`` accepts a :class:`~repro.pipeline.delta.SpecDelta`,
        edit text lines or the JSON form.
        """
        if until not in STAGES:
            raise ValueError(f"unknown stage {until!r}; stages are {STAGES}")
        if isinstance(spec, STG):
            spec = PipelineSpec.from_stg(spec)
        elif isinstance(spec, StateGraph):
            spec = PipelineSpec.from_state_graph(spec)
        hints: Optional[_DeltaHints] = None
        if delta is not None:
            if spec.stg is None:
                raise ValueError("delta re-synthesis needs an STG-based spec")
            base_spec = spec
            spec = base_spec.apply_delta(delta)
            hints = self._delta_hints(base_spec)
        self.context.last_reuse = {}
        with perf.recording(self.context.recorder):
            reached = self._reach(spec, hints)
            if until == "reach":
                return reached
            regions = self._regions(reached, hints)
            if until == "regions":
                return regions
            mc = self._mc(reached, regions, hints)
            if until == "mc":
                return mc
            covers = self._covers(spec, reached, mc)
            if until == "covers":
                return covers
            return self._netlist(spec, covers)

    def _delta_hints(self, base_spec: PipelineSpec) -> _DeltaHints:
        """Probe the context caches for the base spec's artifacts.

        Probes bypass the hit/miss counters (they are not part of the
        edited run's traffic).  Anything not found simply leaves the
        corresponding hint empty.
        """
        ctx = self.context
        hints = _DeltaHints()
        if base_spec.sg is not None:
            base_reached = ctx.probe("reach", (fingerprint_state_graph(base_spec.sg),))
        else:
            base_stg_fp = fingerprint_stg(base_spec.stg)
            hints.snapshot = ctx.incremental.reach_snapshot(base_stg_fp)
            base_reached = ctx.probe("reach", (base_stg_fp, base_spec.max_states))
        if base_reached is not None:
            hints.base_reached = base_reached
            hints.base_regions = ctx.probe(
                "regions", (base_reached.fingerprint,), upstream=(base_reached,)
            )
            if hints.base_regions is not None:
                hints.base_mc = ctx.probe(
                    "mc",
                    (hints.base_regions.fingerprint, ctx.backend.name),
                    upstream=(base_reached,),
                )
        return hints

    # ------------------------------------------------------------------
    def _reach(
        self, spec: PipelineSpec, hints: Optional[_DeltaHints] = None
    ) -> ReachedSG:
        ctx = self.context
        if spec.sg is not None:
            key = (fingerprint_state_graph(spec.sg),)

            def adopt() -> ReachedSG:
                return ReachedSG(sg=spec.sg, source=None, fingerprint=key[0])

            return ctx.memoize("reach", key, adopt)

        key = (fingerprint_stg(spec.stg), spec.max_states)

        def elaborate() -> ReachedSG:
            from repro.stg.reachability import stg_to_state_graph

            # The budget may lower the cap below spec.max_states, but it
            # cannot poison the shared memo/store: stg_to_state_graph
            # raises on hitting its cap instead of returning a truncated
            # graph, so a graph that elaborated successfully is
            # identical for every cap >= its size.
            cap = ctx.budget.remaining_states(spec.max_states)
            snapshot = hints.snapshot if hints is not None else None
            stats: dict = {}
            sg = stg_to_state_graph(
                spec.stg,
                max_states=min(cap, spec.max_states),
                snapshot=snapshot,
                on_snapshot=lambda snap: ctx.incremental.put_reach_snapshot(
                    key[0], snap
                ),
                stats=stats,
            )
            ctx.budget.charge_states(
                len(sg.state_list), "specification elaboration"
            )
            if snapshot is not None:
                ctx.note_reuse(
                    "reach",
                    "partial",
                    replayed_markings=stats.get("replayed", 0),
                    expanded_markings=stats.get("expanded", 0),
                )
            return ReachedSG(
                sg=sg, source=spec.stg, fingerprint=fingerprint_state_graph(sg)
            )

        return ctx.memoize("reach", key, elaborate)

    def _regions(
        self, reached: ReachedSG, hints: Optional[_DeltaHints] = None
    ) -> RegionMap:
        ctx = self.context
        key = (reached.fingerprint,)

        def compute() -> RegionMap:
            from repro.sg.regions import excitation_regions

            sg = reached.sg
            adopted = {}
            if hints is not None and hints.base_regions is not None:
                adopted = adoptable_regions(
                    hints.base_reached.sg, hints.base_regions.regions, sg
                )
            regions_list = []
            with perf.phase("regions"):
                for signal in sorted(sg.non_inputs):
                    ers = adopted.get(signal)
                    if ers is None:
                        ers = excitation_regions(sg, signal)
                    else:
                        # seed the graph's region cache so downstream
                        # analyses agree object-for-object
                        sg._analysis_cache.setdefault(("regions", signal), ers)
                    regions_list.extend(ers)
            if adopted:
                ctx.note_reuse(
                    "regions",
                    "partial",
                    reused_signals=len(adopted),
                    computed_signals=len(sg.non_inputs) - len(adopted),
                )
            regions = tuple(regions_list)
            return RegionMap(
                regions=regions,
                fingerprint=fingerprint_region_map(reached.fingerprint, regions),
            )

        return ctx.memoize("regions", key, compute, upstream=(reached,))

    def _mc(
        self,
        reached: ReachedSG,
        regions: RegionMap,
        hints: Optional[_DeltaHints] = None,
    ) -> MCVerdict:
        ctx = self.context
        key = (regions.fingerprint, ctx.backend.name)

        def analyze() -> MCVerdict:
            sg = reached.sg
            reuse_map: dict = {}
            if hints is not None and hints.base_mc is not None and ctx.backend.supports_reuse:
                reuse_map = adoptable_verdicts(
                    hints.base_reached.sg,
                    hints.base_regions.regions,
                    hints.base_mc.report,
                    sg,
                    regions.regions,
                )
            if reuse_map:
                report = ctx.backend.analyze_mc(sg, reuse=reuse_map)
                functions = {(er.signal, er.direction) for er in regions.regions}
                ctx.note_reuse(
                    "mc",
                    "partial",
                    reused_functions=len(reuse_map),
                    computed_functions=len(functions) - len(reuse_map),
                )
            else:
                report = ctx.backend.analyze_mc(sg)
            return MCVerdict(
                report=report,
                backend=ctx.backend.name,
                fingerprint=fingerprint_mc_report(
                    regions.fingerprint, ctx.backend.name, report
                ),
            )

        return ctx.memoize("mc", key, analyze, upstream=(reached,))

    def _covers(
        self, spec: PipelineSpec, reached: ReachedSG, mc: MCVerdict
    ) -> CoverPlan:
        ctx = self.context
        key = (mc.fingerprint, spec.max_models, spec.share_gates)

        def plan() -> CoverPlan:
            from repro.core.insertion import insert_state_signals
            from repro.core.synthesis import synthesize

            # a wall-clock budget bounds the insertion search too; an
            # expired deadline raises InsertionDeadlineExpired (inconclusive)
            seconds_left = ctx.budget.seconds_left
            with perf.phase("insertion"):
                insertion = insert_state_signals(
                    reached.sg,
                    max_models=spec.max_models,
                    deadline=(
                        None
                        if seconds_left is None
                        else time.monotonic() + seconds_left
                    ),
                    report=mc.report,
                    analysis_cache=ctx.incremental.insertion_cache,
                )
            with perf.phase("synthesis"):
                implementation = synthesize(
                    insertion.sg,
                    share_gates=spec.share_gates,
                    report=insertion.report,
                )
            return CoverPlan(
                insertion=insertion,
                implementation=implementation,
                fingerprint=fingerprint_cover_plan(
                    mc.fingerprint, insertion, implementation
                ),
            )

        return ctx.memoize("covers", key, plan, upstream=(reached, mc))

    def _netlist(self, spec: PipelineSpec, covers: CoverPlan) -> SynthesizedNetlist:
        ctx = self.context
        key = (
            covers.fingerprint,
            spec.style,
            spec.verify,
            spec.verify_max_states,
        )
        # the cap the hazard check actually runs under: the spec's
        # request, lowered by whatever the run's budget has left
        verify_cap = min(
            spec.verify_max_states,
            ctx.budget.remaining_states(spec.verify_max_states),
        )

        def build() -> SynthesizedNetlist:
            from repro.netlist.hazards import verify_speed_independence
            from repro.netlist.netlist import netlist_from_implementation

            with perf.phase("netlist"):
                netlist = netlist_from_implementation(
                    covers.implementation, spec.style
                )
            report = None
            if spec.verify:
                with perf.phase("hazard-check"):
                    report = verify_speed_independence(
                        netlist, covers.sg, max_states=verify_cap
                    )
                ctx.budget.charge_states(
                    report.circuit_states, "circuit composition"
                )
                ctx.budget.check_time("speed-independence check")
            return SynthesizedNetlist(
                netlist=netlist,
                hazard_report=report,
                fingerprint=fingerprint_netlist(
                    covers.fingerprint, netlist, report
                ),
            )

        def cap_independent(artifact: SynthesizedNetlist) -> bool:
            # ``key`` promises the spec's full verify_max_states.  When
            # the budget lowered the cap, only a complete exploration is
            # byte-identical to the full-cap artifact; a truncated
            # report would poison the shared memo/store for later
            # full-budget runs.
            if verify_cap >= spec.verify_max_states:
                return True
            report = artifact.hazard_report
            return report is None or not report.composition.truncated

        return ctx.memoize("netlist", key, build, cache_if=cap_independent)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Pipeline(context={self.context!r})"


__all__ = ["Pipeline", "PipelineSpec", "STAGES"]
