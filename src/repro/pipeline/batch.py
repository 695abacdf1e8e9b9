"""Corpus-level batch synthesis: ``repro-si batch``.

One batch run fans a corpus of specifications across worker processes,
each running the full staged pipeline (reach -> regions -> mc ->
covers -> netlist) under a per-design cooperative budget.  The corpus
is either a list of ``.g`` files or a :class:`repro.corpus.CorpusSpec`
(``run_batch(corpus=...)`` / ``repro-si batch --corpus spec.json``)
whose admitted designs are *streamed* into the scheduler with a
bounded prefetch -- a 100k-design sweep never materialises 100k task
dicts, let alone 100k files.  All workers share one
:class:`~repro.pipeline.store.ArtifactStore` root, so a repeated sweep
-- the second CI invocation, a bench re-run, an edited corpus --
recomputes only the designs whose specifications changed.

Determinism contract
--------------------
The **manifest** (:meth:`BatchReport.manifest`, schema
``repro-batch-manifest/4``) contains only reproducible facts -- an
options echo with its fingerprint, then per design: name, verdict,
state counts, equations, pipeline fingerprint and specification
fingerprint -- ordered by design name.  Nothing in it depends on
runtime placement, so serial, pooled, warm-store and resumed runs over
the same corpus all emit byte-identical manifests; CI asserts exactly
that.  Corpus-backed rows identify their source as
``corpus:<design name>`` and fingerprint the generated ``.g`` text
itself, so the same spec + seed reproduces the same manifest bytes on
any machine.  Wall-clock timings, store traffic and the resume counter
are deliberately kept apart in :meth:`BatchReport.stats`.

Resumption
----------
``run_batch(..., resume=<manifest path>)`` reloads a previous manifest
(and/or its ``<manifest>.journal`` sidecar, written one NDJSON row per
completed design so an interrupted sweep loses nothing) and re-runs
only designs that are absent or whose specification fingerprint went
stale.  A resume source with incompatible options or no usable rows
raises :class:`ResumeError` instead of silently re-running everything.

Scheduling
----------
``jobs > 1`` fans designs across a ``ProcessPoolExecutor`` with at most
:data:`PREFETCH_PER_JOB` ``* jobs`` designs in flight; ``jobs == 1``
runs inline.  ``resume_skips`` lands in the stats sidecar and the perf
counter ``batch-resume-skip``.

Per-design failures never abort the batch: a malformed file, a blown
budget or a synthesis error each become one manifest row with status
``error`` / ``inconclusive`` / ``failed``, and the
batch exit code aggregates the worst verdict (hazard/failure beats
inconclusive beats ok).  Statuses and exit codes are the verdict policy
of :mod:`repro`, shared with the single-design CLI and the service.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from repro import (
    EXIT_HAZARD,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    STATUS_ERROR,
    STATUS_EXIT,
    Verdict,
    perf,
    run_synthesis,
    verdict_errors,
    verdict_of,
    verdict_of_error,
)
from repro.pipeline.serialize import fingerprint_document, fingerprint_file
from repro.pipeline.store import EVENTS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.corpus.spec import CorpusSpec

#: manifest schema stamp (see :meth:`BatchReport.manifest`); ``/4``
#: dropped the ``backend`` key that ``/3`` carried in its options echo
MANIFEST_SCHEMA = "repro-batch-manifest/4"

#: journal schema stamp (one NDJSON row per completed design); ``/3``
#: rows are ``/4`` manifest rows
JOURNAL_SCHEMA = "repro-batch-journal/3"

#: designs in flight per worker process: the pool draws a lazy corpus
#: stream at most ``PREFETCH_PER_JOB * jobs`` designs ahead
PREFETCH_PER_JOB = 4

#: suffix appended to the manifest path for the resume journal
JOURNAL_SUFFIX = ".journal"


class ResumeError(ValueError):
    """``--resume`` input unusable: unreadable, foreign or incompatible."""


def batch_options(
    style: str = "C",
    share_gates: object = False,
    verify: bool = True,
    max_models: int = 400,
    max_states: Optional[int] = None,
    timeout_seconds: Optional[float] = None,
) -> Dict:
    """The manifest's options echo: every knob that shapes a row.

    ``jobs`` and the store root are deliberately absent -- they are
    placement facts that must not change the manifest bytes.
    """
    return {
        "style": style,
        "share_gates": share_gates,
        "verify": verify,
        "max_models": max_models,
        "max_states": max_states,
        "timeout_seconds": timeout_seconds,
    }


def _stamped_options(options: Dict) -> Dict:
    """The options echo plus its own canonical-JSON fingerprint."""
    bare = {k: v for k, v in options.items() if k != "fingerprint"}
    stamped = dict(bare)
    stamped["fingerprint"] = fingerprint_document(bare)
    return stamped


#: the :class:`DesignOutcome` fields a manifest or journal row records
_ROW_FIELDS = (
    "name", "spec", "status", "detail", "states", "inputs", "outputs",
    "added_signals", "equations", "gates", "hazard_free", "circuit_states",
    "fingerprint", "spec_fingerprint",
)


@dataclass
class DesignOutcome:
    """One design's batch result: a manifest row plus run metadata."""

    name: str
    spec: str
    status: str
    #: human-readable reason for non-ok statuses (deterministic text)
    detail: str = ""
    states: int = 0
    inputs: int = 0
    outputs: int = 0
    added_signals: List[str] = field(default_factory=list)
    equations: str = ""
    gates: int = 0
    hazard_free: Optional[bool] = None
    circuit_states: int = 0
    fingerprint: str = ""
    #: SHA-256 of the specification file's bytes (resume staleness test)
    spec_fingerprint: str = ""
    #: True when this row was reused from a resume source (stats only)
    resumed: bool = False
    #: wall seconds in the worker (stats only, never in the manifest)
    seconds: float = 0.0
    #: this design's store traffic, event -> count (stats only)
    store_traffic: Dict[str, int] = field(default_factory=dict)
    #: per-stage breakdown, event -> {stage: count} (stats only)
    store_traffic_by_stage: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def manifest_entry(self) -> Dict:
        """The deterministic manifest row (no timings, no cache traffic)."""
        row = {name: getattr(self, name) for name in _ROW_FIELDS}
        row["added_signals"] = list(self.added_signals)
        return row

    def describe(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        added = f", +{len(self.added_signals)} signal(s)" if self.added_signals else ""
        resumed = ", resumed" if self.resumed else ""
        return (
            f"{self.name}: {self.status}{extra} "
            f"[{self.states} states{added}, {self.seconds:.2f}s{resumed}]"
        )


@dataclass
class BatchReport:
    """Everything one :func:`run_batch` produced."""

    outcomes: List[DesignOutcome]
    jobs: int = 1
    store_root: Optional[str] = None
    #: the options echo (see :func:`batch_options`); defaulted lazily
    options: Dict = field(default_factory=dict)
    #: scheduler counters: resume skips
    scheduler: Dict[str, int] = field(default_factory=dict)
    #: the generation seed for corpus-backed runs (None for file input);
    #: recorded in :meth:`stats`, never in the manifest
    seed: Optional[int] = None

    @property
    def exit_code(self) -> int:
        """The worst design's: hazard/failure beats inconclusive beats ok."""
        codes = {STATUS_EXIT[outcome.status] for outcome in self.outcomes}
        for code in (EXIT_HAZARD, EXIT_INCONCLUSIVE):
            if code in codes:
                return code
        return EXIT_OK

    def manifest(self) -> Dict:
        """The deterministic corpus manifest, rows ordered by name."""
        return {
            "schema": MANIFEST_SCHEMA,
            "options": _stamped_options(self.options or batch_options()),
            "designs": [
                outcome.manifest_entry()
                for outcome in sorted(
                    self.outcomes, key=lambda o: (o.name, o.spec)
                )
            ],
        }

    def manifest_text(self) -> str:
        """The manifest as canonical JSON text (what CI byte-compares)."""
        return json.dumps(self.manifest(), indent=2, sort_keys=True) + "\n"

    def stats(self) -> Dict:
        """Run metadata: timings, store traffic, scheduler counters."""
        traffic: Dict[str, int] = {e: 0 for e in EVENTS}
        by_stage: Dict[str, Dict[str, int]] = {}
        for outcome in self.outcomes:
            for event, count in outcome.store_traffic.items():
                traffic[event] = traffic.get(event, 0) + count
            for event, stages in outcome.store_traffic_by_stage.items():
                bucket = by_stage.setdefault(event, {})
                for stage, count in stages.items():
                    bucket[stage] = bucket.get(stage, 0) + count
        scheduler = {"resume_skips": 0}
        scheduler.update(self.scheduler)
        return {
            "designs": len(self.outcomes),
            "jobs": self.jobs,
            "seed": self.seed,
            "store": self.store_root,
            "scheduler": scheduler,
            "resumed_designs": sorted(
                o.name for o in self.outcomes if o.resumed
            ),
            "seconds_total": sum(o.seconds for o in self.outcomes),
            "seconds_by_design": {
                o.name: round(o.seconds, 6) for o in self.outcomes
            },
            "store_traffic": traffic,
            "store_traffic_by_stage": by_stage,
            "store_traffic_by_design": {
                o.name: dict(o.store_traffic) for o in self.outcomes
            },
        }

    @property
    def status_counts(self) -> Dict[str, int]:
        """Design status -> how many designs ended with it."""
        return dict(Counter(outcome.status for outcome in self.outcomes))

    def describe(self) -> str:
        summary = ", ".join(
            f"{n} {s}" for s, n in sorted(self.status_counts.items())
        )
        resumed = sum(1 for o in self.outcomes if o.resumed)
        skipped = f"; {resumed} resumed" if resumed else ""
        traffic = self.stats()["store_traffic"]
        hits, misses = traffic.get("hit", 0), traffic.get("miss", 0)
        store = (
            f"; store: {hits} hit(s), {misses} miss(es)"
            if self.store_root
            else ""
        )
        return f"batch: {len(self.outcomes)} design(s): {summary}{skipped}{store}"


# ----------------------------------------------------------------------
# Resume sources: prior manifests and journals
# ----------------------------------------------------------------------
class BatchJournal:
    """Append-only NDJSON sidecar making an interrupted batch resumable.

    One self-contained row per completed design (each row repeats the
    stamped options block, so a torn tail line never poisons the rest).
    The CLI appends through ``progress`` and removes the journal once
    the manifest itself is written.
    """

    def __init__(self, path: str, options: Dict):
        self.path = str(path)
        self._options = _stamped_options(options)
        self._handle = None

    def append(self, outcome: DesignOutcome) -> None:
        entry = {
            "schema": JOURNAL_SCHEMA,
            "options": self._options,
            "design": outcome.manifest_entry(),
        }
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(
            json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        except OSError:  # pragma: no cover - fsync-less filesystems
            pass

    def close(self, remove: bool = False) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if remove:
            try:
                os.unlink(self.path)
            except OSError:
                pass


def _read_resume_manifest(path: str) -> Dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ResumeError(f"cannot read resume manifest {path}: {exc}")
    schema = document.get("schema") if isinstance(document, dict) else None
    if schema != MANIFEST_SCHEMA:
        raise ResumeError(
            f"resume manifest {path} has schema {schema!r}; "
            f"resuming needs {MANIFEST_SCHEMA!r}"
        )
    return document

def _read_journal(path: str) -> List[Dict]:
    """Journal rows, tolerating a torn final line (interrupted write)."""
    entries: List[Dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ResumeError(f"cannot read resume journal {path}: {exc}")
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            break  # torn tail from an interrupted append; rows above are good
        if not isinstance(entry, dict) or entry.get("schema") != JOURNAL_SCHEMA:
            raise ResumeError(
                f"resume journal {path} has schema "
                f"{entry.get('schema') if isinstance(entry, dict) else None!r}; "
                f"expected {JOURNAL_SCHEMA!r}"
            )
        entries.append(entry)
    return entries


def _check_options(recorded: Optional[Dict], expected: Dict, source: str) -> None:
    expected_fp = fingerprint_document(expected)
    recorded = recorded or {}
    if recorded.get("fingerprint") == expected_fp:
        return
    bare = {k: v for k, v in recorded.items() if k != "fingerprint"}
    diffs = sorted(
        k
        for k in set(bare) | set(expected)
        if bare.get(k) != expected.get(k)
    )
    raise ResumeError(
        f"{source} was produced with incompatible options "
        f"(differs in: {', '.join(diffs) or 'options fingerprint'}); "
        f"resume only applies to runs with identical synthesis options"
    )


def resume_plan(path: str, options: Dict) -> Dict[str, Dict]:
    """Reusable rows by design name from a manifest and/or its journal.

    ``path`` names the manifest of the interrupted or previous run; its
    ``<path>.journal`` sidecar is merged in (manifest rows win).  Raises
    :class:`ResumeError` when neither exists, either is foreign, or the
    recorded options don't fingerprint-match ``options``.
    """
    rows: Dict[str, Dict] = {}
    found = False
    if os.path.exists(path):
        document = _read_resume_manifest(path)
        _check_options(document.get("options"), options, f"resume manifest {path}")
        for row in document.get("designs", []):
            if isinstance(row, dict) and row.get("name"):
                rows[row["name"]] = row
        found = True
    journal_path = path + JOURNAL_SUFFIX
    if os.path.exists(journal_path):
        for entry in _read_journal(journal_path):
            _check_options(
                entry.get("options"), options, f"resume journal {journal_path}"
            )
            row = entry.get("design")
            if isinstance(row, dict) and row.get("name"):
                rows.setdefault(row["name"], row)
        found = True
    if not found:
        raise ResumeError(
            f"nothing to resume: neither {path} nor {journal_path} exists"
        )
    return rows


def _outcome_from_row(row: Dict, spec: str, spec_fingerprint: str) -> DesignOutcome:
    """A resumed outcome rebuilt from a recorded manifest/journal row.

    ``spec``/``spec_fingerprint`` come from the *current* input (the
    fingerprints are equal by the staleness test; the path may differ),
    so the merged manifest matches a cold run over the current corpus.
    """
    fields = {name: row[name] for name in _ROW_FIELDS if name in row}
    fields.update(
        spec=spec,
        spec_fingerprint=spec_fingerprint,
        added_signals=list(fields.get("added_signals", [])),
        resumed=True,
    )
    return DesignOutcome(**fields)


# ----------------------------------------------------------------------
# The worker body
# ----------------------------------------------------------------------
def _design_name(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _run_design(task: Dict) -> DesignOutcome:
    """Worker body: one design through the full pipeline (picklable I/O)."""
    from repro.pipeline.context import AnalysisContext
    from repro.verify.budget import Budget

    outcome = DesignOutcome(
        name=task.get("name") or _design_name(task["spec"]),
        spec=task["spec"],
        status=STATUS_ERROR,
        spec_fingerprint=task.get("spec_fingerprint", ""),
    )
    started = time.perf_counter()
    budget = Budget(
        max_states=task["max_states"], max_seconds=task["timeout_seconds"]
    )
    context = AnalysisContext(budget=budget, store=task["store_root"])
    try:
        outcome.status, outcome.detail = _synthesise(task, outcome, context)
    finally:
        outcome.seconds = time.perf_counter() - started
        if context.store is not None:
            outcome.store_traffic = context.store.totals()
            outcome.store_traffic_by_stage = context.store.stats()
    return outcome


def _synthesise(task: Dict, outcome: DesignOutcome, context) -> Verdict:
    """Run ``task``'s design, fill ``outcome``'s artifact fields and
    return its verdict."""
    from repro.pipeline.core import PipelineSpec
    from repro.stg.parser import load_g, parse_g

    try:
        if task.get("spec_text") is not None:
            stg = parse_g(task["spec_text"], name=outcome.name)
        else:
            stg = load_g(task["spec"])
    except (OSError, ValueError) as exc:
        return Verdict(STATUS_ERROR, f"cannot load specification: {exc}")
    if not stg.net.transitions:
        return Verdict(STATUS_ERROR, "malformed .g file: no transitions")
    spec = PipelineSpec.from_stg(
        stg,
        name=outcome.name,
        style=task["style"],
        share_gates=task["share_gates"],
        verify=task["verify"],
        max_models=task["max_models"],
        max_states=task["max_states"] or 200_000,
    )
    try:
        result = run_synthesis(spec, context)
    except verdict_errors() as exc:
        return verdict_of_error(exc)
    except ValueError as exc:
        return Verdict(STATUS_ERROR, f"invalid specification: {exc}")
    sg = result.spec
    outcome.states = len(sg.state_list)
    outcome.inputs = len(sg.inputs)
    outcome.outputs = len(sg.signals) - len(sg.inputs)
    outcome.added_signals = list(result.added_signals)
    outcome.equations = result.implementation.equations()
    outcome.gates = len(result.netlist.gates)
    outcome.fingerprint = result.fingerprint
    report = result.hazard_report
    if report is not None:
        outcome.hazard_free = bool(report.hazard_free)
        outcome.circuit_states = report.circuit_states
    return verdict_of(report)


# ----------------------------------------------------------------------
# The process pool
# ----------------------------------------------------------------------
def _run_pool(
    tasks: Iterable[Dict], jobs: int, collect: Callable[[DesignOutcome], None]
) -> None:
    """Run ``tasks`` through :func:`_run_design`, collecting each result.

    ``jobs == 1`` (or a stream of one design) runs inline.  Otherwise a
    process pool keeps at most ``PREFETCH_PER_JOB * jobs`` designs in
    flight and draws the next task only as one completes, so a lazy
    stream of any length costs O(jobs) buffered tasks.  Results reach
    ``collect`` in completion order.
    """
    task_iter: Iterator[Dict] = iter(tasks)
    head = [] if jobs == 1 else list(islice(task_iter, PREFETCH_PER_JOB * jobs))
    if len(head) <= 1:
        for task in chain(head, task_iter):
            collect(_run_design(task))
        return
    # a head shorter than the window means the stream is exhausted, so
    # the pool can size to it
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(head)))
    try:
        running = {pool.submit(_run_design, task) for task in head}
        while running:
            done, running = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                collect(future.result())
                task = next(task_iter, None)
                if task is not None:
                    running.add(pool.submit(_run_design, task))
    finally:
        # an interrupted sweep waits for the designs already running,
        # not for the whole window
        pool.shutdown(cancel_futures=True)


def run_batch(
    specs: Sequence[str] = (),
    store: Union[str, None] = None,
    jobs: int = 1,
    style: str = "C",
    share_gates: object = False,
    verify: bool = True,
    max_models: int = 400,
    max_states: Optional[int] = None,
    timeout_seconds: Optional[float] = None,
    resume: Optional[str] = None,
    progress: Optional[Callable[[DesignOutcome], None]] = None,
    corpus: Optional["CorpusSpec"] = None,
) -> BatchReport:
    """Synthesise every specification in ``specs`` or in ``corpus``.

    Parameters mirror one ``repro-si synth`` run applied per design;
    ``timeout_seconds`` / ``max_states`` bound each design *separately*
    (a blown budget marks that design inconclusive, the batch goes on).
    ``jobs`` > 1 fans designs across a :class:`ProcessPoolExecutor`;
    ``store`` (a directory path) is shared by all workers.  ``resume``
    names a previous manifest (see :func:`resume_plan`): designs whose
    spec fingerprint matches a recorded row are reused without running;
    an unusable resume source raises :class:`ResumeError`.  ``progress`` is called with each
    :class:`DesignOutcome` as it completes, in completion order
    (resumed rows first).

    ``corpus`` (a :class:`repro.corpus.CorpusSpec`, exclusive with
    ``specs``) streams generated designs straight into the scheduler:
    the ``.g`` text travels in the task dict, fingerprints are taken
    over that text, and rows identify their source as
    ``corpus:<name>``.  Resume skips happen inline as the stream is
    drawn, so a mostly-resumed sweep touches only the stale designs;
    because overlap with the resume source is only known once the
    stream ends, a corpus resume that matches nothing raises
    :class:`ResumeError` *after* the run instead of before it.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs}")
    if corpus is not None and specs:
        raise ValueError("give .g specifications or corpus=, not both")
    if corpus is None and not specs:
        raise ValueError("no specifications given")
    options = batch_options(
        style=style,
        share_gates=share_gates,
        verify=verify,
        max_models=max_models,
        max_states=max_states,
        timeout_seconds=timeout_seconds,
    )
    reusable: Optional[Dict[str, Dict]] = None
    if resume is not None:
        reusable = resume_plan(str(resume), options)

    scheduler = {"resume_skips": 0}
    outcomes: List[DesignOutcome] = []
    overlap = {"count": 0}

    def emit(outcome: DesignOutcome) -> None:
        outcomes.append(outcome)
        if progress is not None:
            progress(outcome)

    def placement() -> Dict:
        """The task-dict fields shared by every design of this run."""
        return dict(options, store_root=None if store is None else str(store))

    def reuse(name: str, spec_id: str, spec_fp: str) -> bool:
        """Emit the recorded row for ``name`` if it is still fresh."""
        row = None if reusable is None else reusable.get(name)
        if row is None:
            return False
        overlap["count"] += 1
        if not spec_fp or row.get("spec_fingerprint") != spec_fp:
            return False
        scheduler["resume_skips"] += 1
        perf.count("batch-resume-skip")
        emit(_outcome_from_row(row, spec_id, spec_fp))
        return True

    def no_overlap_error() -> ResumeError:
        if overlap["count"]:
            return ResumeError(
                f"resume source matches no current specification: "
                f"{overlap['count']} design name(s) overlap but every spec "
                f"fingerprint is stale; drop --resume to re-run the corpus"
            )
        return ResumeError(
            "resume source shares no design names with the input set"
        )

    def corpus_tasks() -> Iterator[Dict]:
        from repro.corpus.factory import corpus_stream

        for design in corpus_stream(corpus):
            spec_id = f"corpus:{design.name}"
            if reuse(design.name, spec_id, design.fingerprint):
                continue
            task = placement()
            task.update(
                spec=spec_id,
                name=design.name,
                spec_text=design.g_text,
                spec_fingerprint=design.fingerprint,
            )
            yield task

    def file_tasks() -> List[Dict]:
        tasks: List[Dict] = []
        for path in map(str, specs):
            spec_fp = fingerprint_file(path)
            if reuse(_design_name(path), path, spec_fp):
                continue
            task = placement()
            task.update(spec=path, spec_fingerprint=spec_fp)
            tasks.append(task)
        if reusable is not None and not scheduler["resume_skips"]:
            raise no_overlap_error()  # before any design runs
        return tasks

    _run_pool(corpus_tasks() if corpus is not None else file_tasks(), jobs, emit)
    if reusable is not None and not scheduler["resume_skips"]:
        raise no_overlap_error()  # a corpus stream's overlap shows once drawn
    return BatchReport(
        outcomes=outcomes,
        jobs=jobs,
        store_root=None if store is None else str(store),
        options=options,
        scheduler=scheduler,
        seed=None if corpus is None else corpus.seed,
    )


__all__ = [
    "BatchJournal",
    "BatchReport",
    "DesignOutcome",
    "JOURNAL_SCHEMA",
    "JOURNAL_SUFFIX",
    "MANIFEST_SCHEMA",
    "PREFETCH_PER_JOB",
    "ResumeError",
    "batch_options",
    "resume_plan",
    "run_batch",
]
