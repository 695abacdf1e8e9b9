"""The entry points the traced pass wraps, one span name per layer.

Every probe sits at a public boundary of one module of ``repro``; see
README.md for which per-layer metric each span feeds.  The DeMorgan
oracle runs from the ``Pipeline.run`` probe, so ``synth`` processes and
batch workers check every design the same way: the ``netlist`` run
gives the SI verdict, the ``covers`` run that the program makes right
after it gives the implementation the oracle reads.
"""

from __future__ import annotations

import os
import weakref

from spans import SpanRecorder, wrap_function, wrap_method


def _count_result(counter: str, measure):
    def after(recorder: SpanRecorder, args, kwargs, result) -> None:
        recorder.count(counter, measure(result))

    return after


def _memo_stage(args, kwargs) -> str:
    stage = args[1] if len(args) > 1 else kwargs["stage"]
    return f"pipeline.{stage}"


def _admission(recorder: SpanRecorder, args, kwargs, result) -> None:
    recorder.count("corpus.rejected" if result else "corpus.admitted")


def _store_put(recorder: SpanRecorder, args, kwargs, result) -> None:
    if result:
        store, stage, key = args[:3]
        recorder.count("store.bytes", os.path.getsize(store.path_for(stage, key)))


def _sat_model(recorder: SpanRecorder, args, kwargs, result) -> None:
    if result is not None:
        recorder.count("sat.models")


def _oracle_hook(recorder: SpanRecorder):
    """Pipeline.run probe: DeMorgan oracle on every synthesized design."""
    from repro.verify.hazard_free import cross_check_verdicts, demorgan_check

    pending = {}

    def after(recorder: SpanRecorder, args, kwargs, result) -> None:
        until = kwargs.get("until", args[2] if len(args) > 2 else "netlist")
        if until == "netlist":
            report = result.hazard_report
            pending["verdict"] = None if report is None else bool(report.hazard_free)
            return
        if until != "covers" or "verdict" not in pending:
            return
        verdict = pending.pop("verdict")
        name = getattr(args[1], "name", None) or result.implementation.sg.name
        with recorder.span("verify.demorgan"):
            demorgan = demorgan_check(result.implementation)
            mismatch = cross_check_verdicts(name, demorgan, verdict)
        recorder.oracle.append(
            {
                "design": name,
                "claims": len(demorgan.claims),
                "conclusive": demorgan.conclusive,
                "mismatch": mismatch,
            }
        )

    return after


def install(recorder: SpanRecorder) -> None:
    """Wrap every probed entry point of the already imported program."""
    import repro.cli  # noqa: F401  (binds the CLI's names first)
    from repro.core import assignment, insertion, mc, synthesis
    from repro.corpus import factory
    from repro.netlist import hazards, netlist
    from repro.pipeline import backends, batch, context, core, store  # noqa: F401
    from repro.sat import solver
    from repro.sg import regions
    from repro.stg import parser, reachability

    fn = wrap_function
    fn(recorder, parser, "load_g", "stg.load_g")
    fn(recorder, parser, "parse_g", "stg.load_g")
    fn(
        recorder, reachability, "stg_to_state_graph", "stg.reach",
        _count_result("stg.spec_states", lambda sg: len(sg.state_list)),
    )
    fn(recorder, factory, "admission_failure", "corpus.admission", _admission)
    fn(recorder, regions, "excitation_regions", "sg.regions")
    fn(recorder, regions, "all_excitation_regions", "sg.regions")
    fn(recorder, mc, "analyze_mc", "mc.analyze")
    fn(recorder, insertion, "insert_state_signals", "insertion")
    fn(recorder, insertion, "expand_with_signal", "insertion.expand")
    fn(recorder, insertion, "add_separation_constraints", "assignment.constraints")
    fn(recorder, insertion, "add_alias_entry_constraints", "assignment.constraints")
    fn(recorder, synthesis, "synthesize", "synthesis.synthesize")
    fn(recorder, netlist, "netlist_from_implementation", "netlist.build")
    fn(
        recorder, hazards, "verify_speed_independence", "netlist.hazard_check",
        _count_result("netlist.circuit_states", lambda r: len(r.circuit_sg.state_list)),
    )
    fn(recorder, batch, "run_batch", "batch.run")

    solved = weakref.WeakSet()

    def _encoding_solved(recorder: SpanRecorder, args, kwargs, result) -> None:
        if args[0] not in solved:
            solved.add(args[0])
            recorder.count("assignment.encodings_solved")

    wrap_method(recorder, solver.Solver, "__init__", "sat.build")
    wrap_method(recorder, solver.Solver, "solve", "sat.solve", _sat_model)
    wrap_method(recorder, assignment.LabelEncoding, "__init__", "assignment.encoding")
    wrap_method(
        recorder, assignment.LabelEncoding, "solve", "assignment.solve", _encoding_solved
    )
    wrap_method(recorder, context.AnalysisContext, "memoize", _memo_stage)
    wrap_method(recorder, store.ArtifactStore, "put", "store.put", _store_put)
    wrap_method(recorder, store.ArtifactStore, "get", "store.get")
    wrap_method(recorder, core.Pipeline, "run", "pipeline.run", _oracle_hook(recorder))
