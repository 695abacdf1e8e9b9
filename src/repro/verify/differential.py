"""Differential oracle: the bitengine fast path vs the reference path.

Every region/cover/MC analysis in the synthesis pipeline runs through
the bitmask engine.  The oracle runs the *same pipeline* twice -- once
on the production ``bitengine`` and once on the ``reference`` oracle
(see :mod:`repro.pipeline.backends`) -- and diffs the typed stage
artifacts *claim for claim*:

* per-region verdicts (MC satisfiable or not, unique entry),
* the chosen cube for every satisfied region, including whether it is
  private or a Theorem-5 sharing group (and with whom),
* the stuck-state diagnostics of every failed region (these drive the
  insertion engine, so a silent divergence here would corrupt repairs),
* after repairing a violated graph, the inserted-signal count and the
  reference path's independent confirmation that the repaired graph now
  satisfies MC.

A campaign (:func:`differential_campaign`) sweeps randomized STGs drawn
from the unified corpus subsystem (:mod:`repro.corpus`) under a
per-design :class:`~repro.verify.budget.Budget`; designs that blow the
budget are reported as *skipped*, never silently dropped.  Pass a
``corpus=CorpusSpec(...)`` to sweep a structurally-admitted corpus
stream instead of the legacy ``fuzz_specs`` mix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from repro import EXIT_HAZARD, EXIT_INCONCLUSIVE, EXIT_OK
from repro.core.mc import MCReport, RegionVerdict
from repro.pipeline import AnalysisContext, Pipeline
from repro.sg.graph import StateGraph
from repro.stg.reachability import stg_to_state_graph
from repro.stg.stg import STG
from repro.verify.budget import Budget, BudgetExceeded


def _fingerprint(verdict: RegionVerdict) -> Tuple:
    """Everything a verdict claims, in comparable (stringified) form."""
    return (
        verdict.er.signal,
        verdict.er.direction,
        verdict.er.index,
        repr(verdict.mc_cube),
        verdict.private,
        tuple(sorted(e.transition_name for e in verdict.group)),
        verdict.unique_entry,
        tuple(sorted(map(str, verdict.stuck_stable))),
        tuple(sorted(map(str, verdict.stuck_opposite))),
    )


def diff_reports(fast: MCReport, reference: MCReport, label: str = "") -> List[str]:
    """Human-readable divergences between two MC reports (empty = agree)."""
    prefix = f"{label}: " if label else ""
    mismatches: List[str] = []
    if fast.satisfied != reference.satisfied:
        mismatches.append(
            f"{prefix}overall verdict: engine says "
            f"{'SATISFIED' if fast.satisfied else 'VIOLATED'}, reference says "
            f"{'SATISFIED' if reference.satisfied else 'VIOLATED'}"
        )
    fast_prints = {f[:3]: f for f in map(_fingerprint, fast.verdicts)}
    ref_prints = {f[:3]: f for f in map(_fingerprint, reference.verdicts)}
    for key in sorted(set(fast_prints) | set(ref_prints)):
        mine, theirs = fast_prints.get(key), ref_prints.get(key)
        if mine == theirs:
            continue
        region = f"ER({'+' if key[1] == 1 else '-'}{key[0]}_{key[2]})"
        if mine is None or theirs is None:
            mismatches.append(
                f"{prefix}{region} only found by "
                f"{'engine' if theirs is None else 'reference'}"
            )
        else:
            mismatches.append(
                f"{prefix}{region}: engine {mine[3:]} vs reference {theirs[3:]}"
            )
    return mismatches


@dataclass
class DiffRecord:
    """Outcome of the oracle on one specification."""

    name: str
    states: int
    mismatches: List[str] = field(default_factory=list)
    #: budget reason when the design was skipped mid-analysis
    skipped: Optional[str] = None
    #: the (agreed) MC verdict of the unrepaired graph
    satisfied: Optional[bool] = None
    #: signals the repair inserted (None when no repair ran)
    inserted_signals: Optional[int] = None
    #: why the repair cross-check was abandoned (deadline, no labelling)
    repair_note: Optional[str] = None
    elapsed_seconds: float = 0.0

    @property
    def agree(self) -> bool:
        return not self.mismatches and self.skipped is None

    def describe(self) -> str:
        if self.skipped:
            return f"{self.name}: SKIPPED ({self.skipped})"
        status = "agree" if not self.mismatches else "DIVERGED"
        extra = ""
        if self.inserted_signals is not None:
            extra = f", {self.inserted_signals} signal(s) inserted"
        elif self.repair_note is not None:
            extra = f", repair skipped: {self.repair_note}"
        lines = [
            f"{self.name}: {status} ({self.states} states, "
            f"MC {'satisfied' if self.satisfied else 'violated'}{extra}, "
            f"{self.elapsed_seconds * 1000:.0f}ms)"
        ]
        lines += [f"  {m}" for m in self.mismatches]
        return "\n".join(lines)


def diff_state_graph(
    fast_sg: StateGraph,
    reference_sg: Optional[StateGraph] = None,
    name: Optional[str] = None,
    repair: bool = True,
    budget: Optional[Budget] = None,
    repair_seconds: Optional[float] = 5.0,
    repair_max_states: int = 2_000,
) -> DiffRecord:
    """Run both analysis paths over one state graph and diff the claims.

    ``reference_sg`` may be a *separate* elaboration of the same
    specification so the two paths share no per-graph caches; it
    defaults to the fast path's graph (the reference path never reads
    the bitengine caches either way).

    Both paths always run their analyses: neither context has an
    artifact store, so no verdict is served from an earlier run.

    With ``repair=True`` a violated graph is additionally run through
    the insertion engine, and the repaired graph's reports are diffed
    again -- including the reference path's independent confirmation
    that the repair actually established MC (Theorem 2's premise).  The
    SAT-driven insertion search can dwarf the analyses themselves, so it
    runs under a ``repair_seconds`` deadline (further clipped by the
    remaining budget); an expired deadline skips the cross-check for
    that design (noted on the record) rather than blowing the budget.
    Graphs above ``repair_max_states`` skip the cross-check outright --
    even *constructing* the insertion SAT encodings is super-linear in
    state count, so a deadline alone cannot bound them usefully.
    """
    budget = budget or Budget()
    # Two analysis worlds over ONE budget: nesting the pipelines inside
    # this campaign shares the campaign's clock/state meter, so each
    # wall-clock second and each elaborated state is charged exactly once.
    fast_pipeline = Pipeline(AnalysisContext(budget=budget))
    reference_pipeline = Pipeline(AnalysisContext(backend="reference", budget=budget))
    record = DiffRecord(name=name or fast_sg.name, states=len(fast_sg.state_list))
    started = time.monotonic()
    try:
        budget.charge_states(len(fast_sg.state_list), "elaboration", partial=record)
        fast = fast_pipeline.run(fast_sg, until="mc").report
        budget.check_time("engine analysis", partial=record)
        reference = reference_pipeline.run(reference_sg or fast_sg, until="mc").report
        budget.check_time("reference analysis", partial=record)
        record.mismatches += diff_reports(fast, reference)
        record.satisfied = fast.satisfied
        if (
            repair
            and not record.mismatches
            and not fast.satisfied
            and len(fast_sg.state_list) > repair_max_states
        ):
            record.repair_note = (
                f"{len(fast_sg.state_list)} states > "
                f"repair_max_states={repair_max_states}"
            )
        elif repair and not record.mismatches and not fast.satisfied:
            from repro.core.insertion import (
                InsertionDeadlineExpired,
                InsertionError,
                insert_state_signals,
            )

            allowances = [
                s for s in (repair_seconds, budget.seconds_left) if s is not None
            ]
            deadline = (
                time.monotonic() + max(0.1, min(allowances))
                if allowances
                else None
            )
            try:
                insertion = insert_state_signals(fast_sg, deadline=deadline)
            except InsertionError as exc:
                # not a divergence: both paths agreed the graph violates
                # MC and the repair engine gave up within its budgets
                record.inserted_signals = None
                record.repair_note = str(exc)
                tolerated = isinstance(exc, InsertionDeadlineExpired) or any(
                    token in str(exc) for token in ("no labelling", "MC violations")
                )
                record.mismatches += [] if tolerated else [f"repair: {exc}"]
            else:
                record.inserted_signals = len(insertion.added_signals)
                budget.charge_states(
                    len(insertion.sg.state_list), "repair", partial=record
                )
                budget.check_time("repair", partial=record)
                repaired_ref = reference_pipeline.run(
                    insertion.sg, until="mc"
                ).report
                record.mismatches += diff_reports(
                    insertion.report, repaired_ref, label="after repair"
                )
                if not repaired_ref.satisfied:
                    record.mismatches.append(
                        "after repair: reference path rejects the repaired graph"
                    )
    except BudgetExceeded as exc:
        record.skipped = exc.reason
    record.elapsed_seconds = time.monotonic() - started
    return record


def diff_stg(
    stg: STG,
    name: Optional[str] = None,
    repair: bool = True,
    budget: Optional[Budget] = None,
    repair_seconds: Optional[float] = 5.0,
) -> DiffRecord:
    """Elaborate a specification twice -- once per path -- and diff."""
    from repro.stg.reachability import ReachabilityError

    budget = budget or Budget()
    try:
        cap = budget.remaining_states(200_000)
        fast_sg = stg_to_state_graph(stg, max_states=cap)
        reference_sg = stg_to_state_graph(stg, max_states=cap)
    except ReachabilityError as exc:
        record = DiffRecord(name=name or stg.name, states=0)
        record.skipped = f"elaboration: {exc}"
        return record
    return diff_state_graph(
        fast_sg,
        reference_sg,
        name=name or stg.name,
        repair=repair,
        budget=budget,
        repair_seconds=repair_seconds,
    )


@dataclass
class CampaignReport:
    """Aggregate outcome of a differential sweep."""

    records: List[DiffRecord] = field(default_factory=list)
    #: the seed the sweep's design stream was grown from (None when the
    #: caller supplied explicit specs), recorded so any campaign is
    #: reproducible from its report alone
    seed: Optional[int] = None

    @property
    def divergent(self) -> List[DiffRecord]:
        return [r for r in self.records if r.mismatches]

    @property
    def skipped(self) -> List[DiffRecord]:
        return [r for r in self.records if r.skipped is not None]

    @property
    def checked(self) -> int:
        return len(self.records) - len(self.skipped)

    @property
    def ok(self) -> bool:
        """Zero divergences and at least one conclusively checked design."""
        return self.exit_code == EXIT_OK

    @property
    def exit_code(self) -> int:
        """1 if any design diverged, else 3 if none was checked, else 0."""
        if self.divergent:
            return EXIT_HAZARD
        return EXIT_OK if self.checked else EXIT_INCONCLUSIVE

    @property
    def detail(self) -> str:
        """Why the campaign is inconclusive (empty when it is not)."""
        if self.exit_code == EXIT_INCONCLUSIVE:
            return "every design blew its budget"
        return ""

    def describe(self) -> str:
        seeded = f" [seed {self.seed}]" if self.seed is not None else ""
        lines = [
            f"differential oracle: {len(self.records)} design(s), "
            f"{self.checked} checked, {len(self.skipped)} skipped, "
            f"{len(self.divergent)} DIVERGENT{seeded}"
        ]
        repaired = [r for r in self.records if r.inserted_signals]
        if repaired:
            lines.append(
                f"  {len(repaired)} design(s) repaired "
                f"({sum(r.inserted_signals for r in repaired)} signals inserted, "
                f"all confirmed by the reference path)"
            )
        timeouts = [
            r
            for r in self.records
            if r.repair_note is not None and "deadline" in r.repair_note
        ]
        if timeouts:
            lines.append(
                f"  {len(timeouts)} repair cross-check(s) skipped "
                f"(insertion deadline)"
            )
        for record in self.divergent:
            lines.append(record.describe())
        for record in self.skipped[:5]:
            lines.append(f"  {record.name}: skipped ({record.skipped})")
        return "\n".join(lines)


def differential_campaign(
    count: int = 200,
    seed: int = 0,
    specs: Optional[Iterable[Tuple[str, STG]]] = None,
    corpus=None,
    repair: bool = True,
    max_states: Optional[int] = 20_000,
    max_seconds_each: Optional[float] = 30.0,
    repair_seconds: Optional[float] = 5.0,
    progress: Optional[Callable[[DiffRecord], None]] = None,
) -> CampaignReport:
    """Sweep ``count`` randomized specifications through the oracle.

    The design source, in priority order: explicit ``specs`` (an
    iterable of ``(name, stg)`` pairs); a ``corpus``
    (:class:`~repro.corpus.CorpusSpec`, streamed through the
    structurally-admitted factory — ``count``/``seed`` arguments are
    ignored in favour of the spec's own); else the legacy
    :func:`repro.corpus.fuzz_specs` mix, a deterministic stream
    dominated by random series-parallel controllers with the parametric
    families (rings, forks, alternators) blended in.
    Each design gets a fresh budget of ``max_states`` states and
    ``max_seconds_each`` seconds; blown budgets become *skipped* records.
    ``repair_seconds`` bounds the per-design insertion cross-check (the
    SAT search can take minutes on adversarial fuzz designs; an expired
    repair deadline skips that design's cross-check, it does not skip
    the design).
    """
    report_seed: Optional[int] = None
    if specs is not None and corpus is not None:
        raise ValueError("pass either specs or corpus, not both")
    if specs is None:
        if corpus is not None:
            from repro.corpus import corpus_stream

            report_seed = corpus.seed
            specs = ((d.name, d.stg) for d in corpus_stream(corpus))
        else:
            from repro.corpus import fuzz_specs

            report_seed = seed
            specs = fuzz_specs(count, seed=seed)
    report = CampaignReport(seed=report_seed)
    for name, stg in specs:
        budget = Budget(max_states=max_states, max_seconds=max_seconds_each)
        record = diff_stg(
            stg,
            name=name,
            repair=repair,
            budget=budget,
            repair_seconds=repair_seconds,
        )
        report.records.append(record)
        if progress is not None:
            progress(record)
    return report
