"""Command-line interface: ``repro-si``.

Subcommands mirror the library pipeline::

    repro-si info spec.g          # properties + MC analysis of an STG
    repro-si synth spec.g         # full synthesis, equations + netlist
    repro-si verify spec.g        # synthesise and model-check (exit code)
    repro-si simulate spec.g      # Monte-Carlo random-delay simulation
    repro-si diff                 # differential oracle sweep (CI gate)
    repro-si table1               # the paper's Table 1 (exit 1 on a mismatch)
    repro-si batch *.g            # corpus synthesis over a process pool
    repro-si batch --corpus c.json  # ... over a generated design stream
    repro-si serve                # resident HTTP job server (asyncio)

``synth`` accepts ``--style C|RS``, ``--share`` (Section-VI gate
sharing), ``--verilog FILE`` and ``--dot FILE`` exports.  ``verify``
accepts ``--budget-states`` / ``--budget-seconds`` graceful-degradation
bounds and ``--fault-model`` dynamic fault injection.

Exit codes distinguish *verdicts* from *non-answers*: 0 success, 1
hazard found or synthesis failed, 2 usage or load error, 3 inconclusive
(the verdict policy in :mod:`repro`, shared with batch and the service).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import (
    EXIT_HAZARD,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    STATUS_ERROR,
    STATUS_FAILED,
    STATUS_INCONCLUSIVE,
    Verdict,
    perf,
    synthesize_from_state_graph,
    verdict_errors,
    verdict_of,
    verdict_of_error,
)
from repro.sg.graph import InconsistentStateGraph
from repro.stg.parser import load_g
from repro.stg.reachability import StateCapExceeded, stg_to_state_graph


class CliError(Exception):
    """A usage/input problem: reported on stderr, exit :data:`EXIT_USAGE`."""


def _load(path: str, max_states: int = 1_000_000):
    try:
        stg = load_g(path)
    except OSError as exc:
        raise CliError(f"cannot read specification: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"malformed .g file {path!r}: {exc}") from exc
    if not stg.net.transitions:
        raise CliError(f"malformed .g file {path!r}: no transitions")
    try:
        return stg, stg_to_state_graph(stg, max_states=max_states)
    except StateCapExceeded:
        raise  # state blowup: inconclusive, handled in main()
    except (InconsistentStateGraph, ValueError) as exc:
        # an unsafe or inconsistent net (ReachabilityError) included
        raise CliError(f"invalid specification {path!r}: {exc}") from exc


def _int_at_least(minimum: int, what: str):
    """argparse type: an int >= ``minimum``, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid integer value: {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be a {what} (got {value})")
        return value

    return parse


#: the one validator for every count flag (worker counts, model and state
#: budgets, run and event counts, the server's queue and retention
#: limits): a 0 or negative value is a loud usage error, not a run that
#: misbehaves
parse_positive = _int_at_least(1, "positive integer")
#: the one validator for every ``--seed``: garbage like ``banana`` or
#: ``-3`` is a usage error instead of a mid-run traceback; 0 stays legal
parse_seed = _int_at_least(0, "non-negative integer")


def validated_store(path: Optional[str]) -> Optional[str]:
    """Validate a ``--store`` directory up front (usage error, exit 2).

    :func:`main` runs every verb's ``--store`` through this, so a bad
    store path is a one-line usage error instead of an :class:`OSError`
    traceback from ``ArtifactStore`` mid-run (exit 1, which reads as a
    hazard).  This checks the three failure shapes eagerly: the path
    collides with an existing *file*, the directory cannot be created,
    or it is not writable.
    """
    if path is None:
        return None
    import os
    import tempfile

    if os.path.exists(path) and not os.path.isdir(path):
        raise CliError(
            f"--store path {path!r} is a file, not a directory"
        )
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create --store directory {path!r}: {exc}") from exc
    try:
        with tempfile.NamedTemporaryFile(dir=path, prefix=".store-probe-"):
            pass
    except OSError as exc:
        raise CliError(f"--store directory {path!r} is not writable: {exc}") from exc
    return path


def _reported(verdict: Verdict) -> int:
    """Print the stderr line an inconclusive or failed verdict gets; its exit code."""
    if verdict.status == STATUS_INCONCLUSIVE:
        print(f"repro-si: inconclusive: {verdict.detail}", file=sys.stderr)
    elif verdict.status == STATUS_FAILED:
        print(f"repro-si: {verdict.detail}", file=sys.stderr)
    return verdict.exit_code


def _start_profile(args: argparse.Namespace) -> Optional[perf.PerfRecorder]:
    """Install a perf recorder when the subcommand got ``--profile``."""
    return perf.enable() if getattr(args, "profile", False) else None


def _finish_profile(recorder: Optional[perf.PerfRecorder], context=None) -> None:
    if recorder is not None:
        print()
        print(recorder.report())
        store = getattr(context, "store", None)
        if store is not None:
            print()
            print(_store_traffic_report(store))
        perf.disable()


def _store_traffic_report(store) -> str:
    """Per-stage artifact-store traffic lines for ``--profile`` output."""
    from repro.pipeline.store import EVENTS

    lines = ["artifact store traffic:"]
    stats = store.stats()
    stages = sorted({s for stages in stats.values() for s in stages})
    if not stages:
        lines.append("  (no store traffic)")
        return "\n".join(lines)
    events = [e for e in EVENTS if stats.get(e)]
    for stage in stages:
        parts = ", ".join(
            f"{event} {stats[event][stage]}"
            for event in events
            if stats[event].get(stage)
        )
        lines.append(f"  {stage:<8} {parts}")
    totals = store.totals()
    summary = ", ".join(
        f"{event} {count}" for event, count in sorted(totals.items()) if count
    )
    lines.append(f"  total    {summary or '(none)'}")
    return "\n".join(lines)


def cmd_info(args: argparse.Namespace) -> int:
    from repro.pipeline import AnalysisContext, Pipeline
    from repro.sg.analysis import statistics
    from repro.sg.csc import has_csc, has_usc
    from repro.sg.properties import (
        is_output_distributive,
        is_output_semi_modular,
        is_persistent,
    )

    recorder = _start_profile(args)
    stg, sg = _load(args.spec)

    print(f"{stg}")
    print(f"state graph: {statistics(sg).describe()}")
    print(f"  output semi-modular : {is_output_semi_modular(sg)}")
    print(f"  output distributive : {is_output_distributive(sg)}")
    print(f"  persistent          : {is_persistent(sg)}")
    print(f"  USC / CSC           : {has_usc(sg)} / {has_csc(sg)}")
    context = AnalysisContext(store=args.store)
    report = Pipeline(context).run(sg, until="mc").report
    print(report.describe())
    if args.dot:
        from repro.netlist.render import sg_to_dot

        with open(args.dot, "w") as handle:
            handle.write(sg_to_dot(sg))
        print(f"state graph written to {args.dot}")
    _finish_profile(recorder, context)
    return EXIT_OK


def _edit_synthesis(args, context, stg):
    """``synth --edit``: base synthesis, then delta re-synthesis.

    Runs the unedited specification first (warming the context's memo
    cache and exploration snapshot), applies the ``--edit`` lines as a
    :class:`~repro.pipeline.delta.SpecDelta`, and re-synthesises
    incrementally.  The returned result is for the *edited* design and
    is byte-identical to a from-scratch run; a per-stage reuse summary
    goes to stderr.
    """
    from repro import run_synthesis
    from repro.pipeline import PipelineSpec
    from repro.pipeline.delta import DeltaError, SpecDelta

    try:
        delta = SpecDelta.parse(args.edit)
    except DeltaError as exc:
        raise CliError(f"bad --edit: {exc}") from exc
    spec = PipelineSpec.from_stg(
        stg,
        style=args.style,
        share_gates=args.share,
        verify=not args.no_verify,
        max_models=args.max_models,
    )
    run_synthesis(spec, context)  # base synthesis: warms snapshot + artifacts
    try:
        result = run_synthesis(spec, context, delta=delta)
    except DeltaError as exc:
        raise CliError(f"--edit does not apply: {exc}") from exc
    print(f"edit: {delta.describe()}", file=sys.stderr)
    for stage, entry in result.reuse.items():
        counts = ", ".join(
            f"{k}={v}" for k, v in entry.items() if k != "mode"
        )
        suffix = f" ({counts})" if counts else ""
        print(f"  {stage}: {entry['mode']}{suffix}", file=sys.stderr)
    return result


def cmd_synth(args: argparse.Namespace) -> int:
    from repro.pipeline import AnalysisContext

    recorder = _start_profile(args)
    context = AnalysisContext(store=args.store)
    if getattr(args, "edit", None):
        stg, _ = _load(args.spec)
        result = _edit_synthesis(args, context, stg)
    else:
        _, sg = _load(args.spec)
        result = synthesize_from_state_graph(
            sg,
            style=args.style,
            share_gates=args.share,
            verify=not args.no_verify,
            max_models=args.max_models,
            context=context,
        )
    if result.added_signals:
        print(result.insertion.describe())
    print(result.implementation.equations())
    if args.regions:
        print()
        print(result.implementation.region_report())
    if args.area:
        from repro.netlist.area import area_report

        print()
        print(area_report(result.netlist))
    print()
    print(result.netlist.describe())
    if result.hazard_report is not None:
        print()
        print(result.hazard_report.describe())
    if args.verilog:
        from repro.netlist.render import netlist_to_verilog

        with open(args.verilog, "w") as handle:
            handle.write(netlist_to_verilog(result.netlist))
        print(f"Verilog written to {args.verilog}")
    if args.save_netlist:
        from repro.netlist.io import save_netlist

        save_netlist(result.netlist, args.save_netlist)
        print(f"netlist JSON written to {args.save_netlist}")
    if args.save_stg:
        from repro.stg.synthesis import stg_from_state_graph
        from repro.stg.writer import dumps_g

        repaired = stg_from_state_graph(result.insertion.sg)
        with open(args.save_stg, "w") as handle:
            handle.write(dumps_g(repaired))
        print(f"repaired specification written to {args.save_stg}")
    if args.dot:
        from repro.netlist.render import netlist_to_dot

        with open(args.dot, "w") as handle:
            handle.write(netlist_to_dot(result.netlist))
        print(f"netlist graph written to {args.dot}")
    _finish_profile(recorder, context)
    if result.hazard_report is not None and not result.hazard_free:
        return EXIT_HAZARD
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.pipeline import AnalysisContext
    from repro.verify.budget import Budget

    recorder = _start_profile(args)
    budget = Budget(max_states=args.budget_states, max_seconds=args.budget_seconds)
    _, sg = _load(args.spec, max_states=budget.remaining_states(1_000_000))
    budget.charge_states(len(sg.state_list), "specification elaboration")
    # the pipeline's netlist stage charges the circuit composition and
    # runs the wall-clock check against this same budget -- exactly once
    context = AnalysisContext(budget=budget, store=args.store)
    run_si = args.oracle in ("si", "both")
    result = synthesize_from_state_graph(
        sg,
        style=args.style,
        verify=run_si,
        context=context,
    )
    exit_code = EXIT_OK
    if run_si:
        print(result.hazard_report.describe())
        exit_code = _reported(verdict_of(result.hazard_report))
    if args.oracle in ("demorgan", "both"):
        from repro.verify.hazard_free import cross_check_verdicts, demorgan_check

        demorgan = demorgan_check(result.implementation)
        print(demorgan.describe())
        if args.oracle == "demorgan":
            if demorgan.claims:
                exit_code = EXIT_HAZARD
            elif not demorgan.conclusive:
                exit_code = EXIT_INCONCLUSIVE
        elif exit_code != EXIT_INCONCLUSIVE:
            # only cross-check against a *conclusive* SI verdict
            mismatch = cross_check_verdicts(
                args.spec, demorgan, result.hazard_free
            )
            if mismatch is not None:
                print(f"repro-si: {mismatch}", file=sys.stderr)
                exit_code = EXIT_HAZARD
    if args.fault_model:
        from repro.verify.faults import run_fault_injection

        fault_report = run_fault_injection(
            result.netlist,
            result.insertion.sg,
            models=args.fault_model,
            runs=args.fault_runs,
            seed=args.seed,
            context=context,
        )
        print()
        print(fault_report.describe())
        if not fault_report.mc_robust:
            exit_code = EXIT_HAZARD
        elif fault_report.truncated and exit_code == EXIT_OK:
            exit_code = EXIT_INCONCLUSIVE
    _finish_profile(recorder, context)
    return exit_code


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.netlist.simulate import monte_carlo

    _, sg = _load(args.spec)
    result = synthesize_from_state_graph(sg, style=args.style, verify=False)
    reports = monte_carlo(
        result.netlist,
        result.insertion.sg,
        runs=args.runs,
        max_events=args.events,
        seed=args.seed,
    )
    bad = [r for r in reports if not r.hazard_free]
    total_events = sum(r.fired_events for r in reports)
    print(
        f"{len(reports)} runs, {total_events} events, "
        f"{len(bad)} hazardous run(s)"
    )
    for report in bad[:3]:
        print(report.describe())
    return EXIT_HAZARD if bad else EXIT_OK


def _diff_table1() -> int:
    """Pipeline parity: run the Table-1 designs through bitengine and reference.

    Every design's MC stage runs once on each engine; the serialized
    artifacts (:mod:`repro.pipeline.serialize`) must be identical.  Any
    artifact diff is a definite failure (exit 1).
    """
    from repro.bench.suite import BENCHMARKS
    from repro.pipeline import AnalysisContext, Pipeline, PipelineSpec
    from repro.pipeline.serialize import mc_report_to_json
    from repro.verify.differential import diff_reports

    divergent = 0
    for name in BENCHMARKS:
        spec = PipelineSpec.from_benchmark(name)
        fast, reference = (
            Pipeline(AnalysisContext(backend=engine)).run(spec, until="mc").report
            for engine in ("bitengine", "reference")
        )
        mismatches = []
        if mc_report_to_json(fast) != mc_report_to_json(reference):
            mismatches = diff_reports(
                fast, reference, label="bitengine vs reference"
            ) or ["bitengine vs reference: artifacts differ"]
        status = "parity" if not mismatches else "DIVERGED"
        print(f"{name}: {status} (bitengine, reference)")
        for line in mismatches:
            print(f"  {line}")
        divergent += bool(mismatches)
    print(
        f"pipeline parity: {len(BENCHMARKS)} design(s) x "
        f"bitengine vs reference, {divergent} divergent"
    )
    return EXIT_OK if divergent == 0 else EXIT_HAZARD


def cmd_diff(args: argparse.Namespace) -> int:
    """Differential oracle sweep: bitengine vs the reference oracle (CI gate)."""
    from repro.verify.differential import differential_campaign

    if args.table1:
        return _diff_table1()
    progress = None
    if args.verbose:
        progress = lambda record: print(record.describe(), file=sys.stderr)  # noqa: E731
    report = differential_campaign(
        count=args.count,
        seed=args.seed,
        repair=not args.no_repair,
        max_states=args.max_states,
        max_seconds_each=args.max_seconds_each,
        repair_seconds=args.repair_seconds,
        progress=progress,
    )
    print(report.describe())
    if report.exit_code == EXIT_INCONCLUSIVE:
        print(f"repro-si: inconclusive: {report.detail}", file=sys.stderr)
    return report.exit_code


def cmd_check(args: argparse.Namespace) -> int:
    """Verify an externally-provided netlist against a specification."""
    from repro.netlist.circuit_sg import CompositionError, InitialStateMismatch
    from repro.netlist.hazards import verify_speed_independence
    from repro.netlist.io import load_netlist

    _, sg = _load(args.spec)
    try:
        netlist = load_netlist(args.netlist)
    except OSError as exc:
        raise CliError(f"cannot read netlist: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"malformed netlist {args.netlist!r}: {exc}") from exc
    try:
        report = verify_speed_independence(netlist, sg, max_states=args.max_states)
    except InitialStateMismatch as exc:
        # the circuit's own reset state is wrong: a failed check
        return _reported(
            Verdict(STATUS_FAILED, f"netlist {args.netlist!r} does not conform: {exc}")
        )
    except CompositionError as exc:
        # the netlist does not fit the specification's signals: a usage
        # error, not a hazard
        raise CliError(
            f"netlist {args.netlist!r} does not match {args.spec!r}: {exc}"
        ) from exc
    print(report.describe())
    return _reported(verdict_of(report))


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.bench.suite import (
        format_table1,
        run_table1,
        table1_problems,
        unknown_designs_error,
        write_pipeline_json,
    )

    error = unknown_designs_error(args.designs)
    if error is not None:
        raise CliError(error)
    results = run_table1(
        verify=not args.no_verify,
        names=args.designs,
        profile=args.profile,
        store=args.store,
        progress=lambda name: print(f"running {name} ...", file=sys.stderr),
    )
    print(format_table1(results))
    if args.json:
        try:
            path = write_pipeline_json(results, args.json)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot write pipeline metrics: {exc}") from exc
        print(f"pipeline metrics written to {path}", file=sys.stderr)
    problems = table1_problems(results, verify=not args.no_verify)
    for problem in problems:
        print(f"repro-si: table1: {problem}", file=sys.stderr)
    return EXIT_HAZARD if problems else EXIT_OK


def cmd_batch(args: argparse.Namespace) -> int:
    """Corpus synthesis: every ``.g`` spec through the full pipeline."""
    from repro.corpus import CorpusError, CorpusSpecError, load_corpus_spec
    from repro.pipeline.batch import (
        JOURNAL_SUFFIX,
        BatchJournal,
        ResumeError,
        batch_options,
        run_batch,
    )

    corpus = None
    if args.corpus:
        if args.specs:
            raise CliError("give .g specifications or --corpus, not both")
        try:
            corpus = load_corpus_spec(args.corpus)
        except (OSError, CorpusSpecError) as exc:
            raise CliError(f"cannot load corpus spec: {exc}") from exc
        if args.seed is not None:
            corpus = corpus.with_seed(args.seed)
    elif args.seed is not None:
        raise CliError("--seed only applies to --corpus runs")
    elif not args.specs:
        raise CliError("no specifications given (pass .g files or --corpus)")

    options = batch_options(
        style=args.style,
        share_gates=args.share,
        verify=not args.no_verify,
        max_models=args.max_models,
        max_states=args.max_states,
        timeout_seconds=args.timeout_seconds,
    )
    journal = None
    if args.manifest:
        # every completed design lands in the journal as it finishes, so
        # an interrupted sweep resumes from exactly where it died
        journal = BatchJournal(args.manifest + JOURNAL_SUFFIX, options)

    def stream(outcome) -> None:
        print(outcome.describe(), file=sys.stderr)
        if journal is not None:
            journal.append(outcome)

    try:
        report = run_batch(
            args.specs,
            store=args.store,
            jobs=args.jobs,
            resume=args.resume,
            progress=stream,
            corpus=corpus,
            **options,
        )
    except (ResumeError, CorpusError) as exc:
        raise CliError(str(exc)) from exc
    finally:
        if journal is not None:
            journal.close()
    print(report.describe())
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as handle:
            handle.write(report.manifest_text())
        print(f"manifest written to {args.manifest}", file=sys.stderr)
        if journal is not None:
            journal.close(remove=True)  # the manifest now has every row
    else:
        print(report.manifest_text(), end="")
    if args.stats:
        import json as _json

        with open(args.stats, "w", encoding="utf-8") as handle:
            _json.dump(report.stats(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"run stats written to {args.stats}", file=sys.stderr)
    return report.exit_code


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the resident synthesis job server (see docs/API.md)."""
    from repro.service.server import serve

    return serve(
        host=args.host,
        port=args.port,
        store=args.store,
        workers=args.workers,
        tenant_tokens=args.tenant_tokens,
        tenant_refill=args.tenant_refill,
        job_max_states=args.job_max_states,
        job_max_seconds=args.job_max_seconds,
        max_queued=args.max_queued,
        memo_entries=args.memo_entries,
        keep_jobs=args.keep_jobs,
        port_file=args.port_file,
    )


_STYLES = ["C", "RS", "RS-NOR", "C-INV"]


def _add_store(parser, help="persistent artifact store directory (warm-start cache)"):
    parser.add_argument("--store", default=None, metavar="DIR", help=help)


def _add_profile(parser, help="print per-phase wall time and primitive-op counts"):
    parser.add_argument("--profile", action="store_true", help=help)


def _add_share(parser) -> None:
    parser.add_argument(
        "--share",
        nargs="?",
        const=True,
        default=False,
        choices=[True, "optimal"],
        help="Sec.-VI gate sharing (pass 'optimal' for the exact optimiser)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-si",
        description="Monotonous-cover synthesis of speed-independent "
        "circuits (Kondratyev et al., DAC 1994)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="analyse an STG specification")
    p_info.add_argument("spec", help=".g file")
    p_info.add_argument("--dot", help="write the state graph as Graphviz")
    _add_store(p_info)
    _add_profile(p_info)
    p_info.set_defaults(func=cmd_info)

    p_synth = sub.add_parser("synth", help="synthesise an implementation")
    p_synth.add_argument("spec", help=".g file")
    p_synth.add_argument("--style", choices=_STYLES, default="C")
    _add_share(p_synth)
    p_synth.add_argument("--no-verify", action="store_true")
    p_synth.add_argument(
        "--edit", action="append", metavar="EDIT", default=None,
        help="delta re-synthesis: synthesise the spec, apply this edit "
        "('add a+ b- [marked]' | 'drop a+ b-' | 'retype x internal' | "
        "'marking p1 p2'; repeatable) and re-synthesise incrementally",
    )
    p_synth.add_argument(
        "--regions", action="store_true",
        help="print the per-region cube mapping report",
    )
    p_synth.add_argument(
        "--area", action="store_true",
        help="print the transistor-count area estimate",
    )
    p_synth.add_argument("--max-models", type=parse_positive, default=400)
    p_synth.add_argument("--verilog", help="write structural Verilog")
    p_synth.add_argument("--save-netlist", help="write the netlist as JSON")
    p_synth.add_argument(
        "--save-stg",
        help="write the (repaired) specification back as a .g STG",
    )
    p_synth.add_argument("--dot", help="write the netlist as Graphviz")
    _add_store(p_synth)
    _add_profile(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_verify = sub.add_parser("verify", help="synthesise and model-check")
    p_verify.add_argument("spec", help=".g file")
    p_verify.add_argument("--style", choices=_STYLES, default="C")
    p_verify.add_argument(
        "--budget-states", type=parse_positive, default=None,
        help="total state budget across elaboration + composition "
        "(exceeded -> exit 3, inconclusive)",
    )
    p_verify.add_argument(
        "--budget-seconds", type=float, default=None,
        help="wall-clock budget for the whole run (exceeded -> exit 3)",
    )
    p_verify.add_argument(
        "--fault-model", action="append", default=None,
        choices=["delay", "glitch", "stuck"],
        help="additionally run dynamic fault injection (repeatable); "
        "a delay-storm hazard on the MC circuit -> exit 1",
    )
    p_verify.add_argument(
        "--fault-runs", type=parse_positive, default=20,
        help="simulation runs per fault model (default 20)",
    )
    p_verify.add_argument(
        "--seed", type=parse_seed, default=0,
        help="random seed for fault injection (non-negative integer)",
    )
    p_verify.add_argument(
        "--oracle", choices=["si", "demorgan", "both"], default="si",
        help="hazard oracle: 'si' composes the circuit state graph "
        "(default), 'demorgan' runs the derivation-independent ternary "
        "check on the SOP covers, 'both' runs the two and fails on any "
        "disagreement",
    )
    _add_store(p_verify)
    _add_profile(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_diff = sub.add_parser(
        "diff",
        help="differential oracle: bitengine vs the reference oracle on "
        "random STGs",
    )
    p_diff.add_argument(
        "--count", type=parse_positive, default=200,
        help="number of randomized specifications (default 200)",
    )
    p_diff.add_argument(
        "--seed", type=parse_seed, default=0,
        help="corpus generation seed (non-negative integer)",
    )
    p_diff.add_argument(
        "--max-states", type=parse_positive, default=20_000,
        help="per-design state budget (blown -> design skipped)",
    )
    p_diff.add_argument(
        "--max-seconds-each", type=float, default=30.0,
        help="per-design wall-clock budget (blown -> design skipped)",
    )
    p_diff.add_argument(
        "--repair-seconds", type=float, default=5.0,
        help="per-design deadline for the insertion cross-check "
        "(expired -> cross-check skipped for that design)",
    )
    p_diff.add_argument(
        "--no-repair", action="store_true",
        help="skip the insertion-engine repair cross-check",
    )
    p_diff.add_argument(
        "--verbose", action="store_true",
        help="stream one line per design to stderr",
    )
    p_diff.add_argument(
        "--table1", action="store_true",
        help="pipeline parity: run the Table-1 designs through bitengine "
        "and reference and fail on any artifact diff",
    )
    p_diff.set_defaults(func=cmd_diff)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo delay simulation")
    p_sim.add_argument("spec", help=".g file")
    p_sim.add_argument("--style", choices=["C", "RS"], default="C")
    p_sim.add_argument("--runs", type=parse_positive, default=20)
    p_sim.add_argument("--events", type=parse_positive, default=1000)
    p_sim.add_argument("--seed", type=parse_seed, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_check = sub.add_parser(
        "check", help="verify an external netlist (JSON) against a spec"
    )
    p_check.add_argument("spec", help=".g file")
    p_check.add_argument("netlist", help="netlist JSON file")
    p_check.add_argument("--max-states", type=parse_positive, default=500_000)
    p_check.set_defaults(func=cmd_check)

    p_table = sub.add_parser(
        "table1",
        help="regenerate the paper's Table 1 (exit 1 if a row differs from it)",
    )
    p_table.add_argument("designs", nargs="*", help="subset of designs")
    p_table.add_argument("--no-verify", action="store_true")
    _add_profile(p_table, help="per-design phase profile")
    p_table.add_argument(
        "--json", help="write/merge BENCH_pipeline.json at this path"
    )
    _add_store(p_table)
    p_table.set_defaults(func=cmd_table1)

    p_batch = sub.add_parser(
        "batch",
        help="synthesise a corpus of .g specs (process pool + shared "
        "artifact store)",
    )
    p_batch.add_argument(
        "specs", nargs="*",
        help=".g files (or none with --corpus)",
    )
    p_batch.add_argument(
        "--corpus", metavar="FILE",
        help="generate the corpus from a repro-corpus-spec/1 JSON file "
        "(see docs/FORMATS.md) instead of reading .g files; designs "
        "stream into the scheduler without touching the filesystem",
    )
    p_batch.add_argument(
        "--seed", type=parse_seed, default=None,
        help="override the corpus spec's generation seed "
        "(non-negative integer; only valid with --corpus)",
    )
    p_batch.add_argument(
        "--jobs", type=parse_positive, default=1,
        help="worker processes (default 1: run inline)",
    )
    _add_store(p_batch, help="persistent artifact store directory shared by all workers")
    p_batch.add_argument("--style", choices=_STYLES, default="C")
    _add_share(p_batch)
    p_batch.add_argument("--no-verify", action="store_true")
    p_batch.add_argument("--max-models", type=parse_positive, default=400)
    p_batch.add_argument(
        "--max-states", type=parse_positive, default=None,
        help="per-design state budget (blown -> that design inconclusive)",
    )
    p_batch.add_argument(
        "--timeout-seconds", type=float, default=None,
        help="per-design wall-clock budget (blown -> that design "
        "inconclusive, the batch continues)",
    )
    p_batch.add_argument(
        "--resume", metavar="FILE",
        help="previous manifest (and/or its .journal sidecar): designs "
        "with matching spec fingerprints are reused without running",
    )
    p_batch.add_argument(
        "--manifest", metavar="FILE",
        help="write the deterministic JSON results manifest here "
        "(default: print to stdout); also keeps a FILE.journal sidecar "
        "during the run so an interrupted sweep can --resume",
    )
    p_batch.add_argument(
        "--stats", metavar="FILE",
        help="write run stats (timings, store traffic, resume "
        "counters) here",
    )
    p_batch.set_defaults(func=cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="run the resident synthesis job server (asyncio HTTP)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (0 binds an ephemeral port; see --port-file)",
    )
    _add_store(
        p_serve,
        help="persistent artifact store shared by every request "
        "(validated up front; a bad path is a usage error)",
    )
    p_serve.add_argument(
        "--workers", type=parse_positive, default=1,
        help="1 (default): one worker thread sharing the in-memory "
        "artifact cache; >1: a process pool sharing warmth via --store",
    )
    p_serve.add_argument(
        "--tenant-tokens", type=float, default=2_000_000,
        help="per-tenant token-bucket capacity, in state tokens",
    )
    p_serve.add_argument(
        "--tenant-refill", type=float, default=100_000,
        help="per-tenant bucket refill rate, state tokens per second",
    )
    p_serve.add_argument(
        "--job-max-states", type=parse_positive, default=500_000,
        help="per-job state-budget cap (blown -> job inconclusive)",
    )
    p_serve.add_argument(
        "--job-max-seconds", type=float, default=None,
        help="per-job wall-clock budget (blown -> job inconclusive)",
    )
    p_serve.add_argument(
        "--max-queued", type=parse_positive, default=256,
        help="submission queue capacity (full -> HTTP 429)",
    )
    p_serve.add_argument(
        "--memo-entries", type=parse_positive, default=512,
        help="resident artifact-cache capacity (LRU-evicted beyond it)",
    )
    p_serve.add_argument(
        "--keep-jobs", type=parse_positive, default=1024,
        help="finished jobs retained (oldest pruned beyond it)",
    )
    p_serve.add_argument(
        "--port-file", metavar="FILE", default=None,
        help="write the bound port here once listening (for scripts)",
    )
    p_serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "store"):
            args.store = validated_store(args.store)
        return args.func(args)
    except CliError as exc:
        print(f"repro-si: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except verdict_errors() as exc:
        verdict = verdict_of_error(exc)
        if verdict.status == STATUS_ERROR:
            print(f"repro-si: error: {verdict.detail}", file=sys.stderr)
            return EXIT_USAGE
        return _reported(verdict)


if __name__ == "__main__":
    sys.exit(main())
