"""The service's async job engine: queue, budgets, executors, events.

One :class:`JobManager` is the resident analysis world of a running
server: it owns the shared on-disk :class:`~repro.pipeline.store.ArtifactStore`,
one in-memory artifact memo shared by every request context (via
``AnalysisContext(memo=...)``), the per-tenant token buckets and the
executor the CPU-bound synthesis work runs on.

Execution model
---------------
``workers=1`` (the default) runs jobs on a single dedicated worker
thread: every job gets its own :class:`~repro.pipeline.context.AnalysisContext`
(own budget, own streaming perf recorder) that shares the resident memo
dict and store handle, so a repeated specification is an in-memory cache
hit and per-stage/per-phase events stream live.  ``workers > 1`` lifts
the worker model of :func:`repro.pipeline.batch.run_batch`: jobs fan out
across a :class:`~concurrent.futures.ProcessPoolExecutor` and share
warmth through the store directory instead (each worker process opens
its own handle on the same root); phase events are collected in the
worker and replayed into the stream when the job completes.

Tenant budgets
--------------
Each tenant gets a :class:`TokenBucket` of *state tokens* (capacity +
refill per second).  A job runs under a
:class:`~repro.verify.budget.Budget` capped by the tokens currently
available; the states the run actually charges (specification
elaboration + circuit composition, exactly the quantities the CLI
budgets meter) are drained from the bucket afterwards.  An empty bucket
-- or a budget tripping mid-run -- makes the job **inconclusive**, the
same verdict (and the same "neither proven nor refuted" meaning) as the
CLI's exit code 3.
"""

from __future__ import annotations

import itertools
import sys
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import (
    EXIT_HAZARD,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    STATUS_FAILED,
    STATUS_INCONCLUSIVE,
    perf,
    run_synthesis,
    verdict_errors,
    verdict_of,
    verdict_of_error,
)
from repro.verify.budget import Budget

#: job lifecycle states; a job ends ``failed`` or ``inconclusive`` with
#: the design status of the same name
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = STATUS_FAILED
INCONCLUSIVE = STATUS_INCONCLUSIVE

#: states a job never leaves
TERMINAL = frozenset({DONE, FAILED, INCONCLUSIVE})

#: default per-tenant bucket: capacity and refill, in state tokens
DEFAULT_TENANT_TOKENS = 2_000_000.0
DEFAULT_TENANT_REFILL = 100_000.0

#: per-job state cap when the request does not lower it further
DEFAULT_JOB_STATES = 500_000

#: resident-memory bounds: memoised artifacts (LRU) and how many
#: finished jobs (events + result payloads) the manager keeps around
DEFAULT_MEMO_ENTRIES = 512
DEFAULT_KEEP_JOBS = 1024


class LRUMemo(OrderedDict):
    """A bounded artifact memo: recently-used entries survive.

    Shared between every request's :class:`AnalysisContext`; reads
    refresh an entry, inserts evict the least-recently-used once
    ``max_entries`` is exceeded, so a long-running server's cache stays
    warm for the working set without growing with total jobs served.
    """

    def __init__(self, max_entries: int = DEFAULT_MEMO_ENTRIES):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        super().__init__()
        self.max_entries = max_entries

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self.move_to_end(key)
        return value

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        while len(self) > self.max_entries:
            self.popitem(last=False)


class TokenBucket:
    """A per-tenant budget of state tokens with steady refill.

    ``available()`` lazily refills at ``refill_per_second`` up to
    ``capacity``; :meth:`drain` subtracts what a finished job charged
    (the bucket may go negative when a job overshoots its snapshot --
    the debt is paid back by refill before the tenant runs again).
    """

    def __init__(
        self,
        capacity: float = DEFAULT_TENANT_TOKENS,
        refill_per_second: float = DEFAULT_TENANT_REFILL,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if refill_per_second < 0:
            raise ValueError("refill_per_second must be >= 0")
        self.capacity = float(capacity)
        self.refill_per_second = float(refill_per_second)
        self._clock = clock
        self._tokens = self.capacity
        self._refilled = clock()

    def available(self) -> float:
        """Tokens available right now (refill applied, capped)."""
        now = self._clock()
        self._tokens = min(
            self.capacity,
            self._tokens + (now - self._refilled) * self.refill_per_second,
        )
        self._refilled = now
        return self._tokens

    def drain(self, tokens: float) -> None:
        """Subtract what a finished job actually charged."""
        self.available()
        self._tokens -= float(tokens)


class StreamRecorder(perf.PerfRecorder):
    """A perf recorder that mirrors every finished phase as an event.

    The pipeline's existing ``perf.phase`` hooks (regions, insertion,
    synthesis, netlist, hazard-check) drive the service's progress
    stream: each completed phase becomes one ``{"event": "phase"}``
    record, with counters summarised separately at job completion.
    """

    __slots__ = ("_emit",)

    def __init__(self, emit: Callable[[Dict], None]):
        super().__init__()
        self._emit = emit

    def add_phase(self, name: str, seconds: float) -> None:
        super().add_phase(name, seconds)
        self._emit(
            {"event": "phase", "phase": name, "ms": round(seconds * 1000, 3)}
        )


@dataclass
class Job:
    """One submitted request and everything it produced."""

    id: str
    kind: str
    tenant: str
    params: Dict
    status: str = QUEUED
    detail: str = ""
    result: Optional[Dict] = None
    #: ordered progress events (appended by the executor, read by SSE)
    events: List[Dict] = field(default_factory=list)
    #: artifact-cache traffic of this job's context, ``{"hits": .., ..}``
    cache: Dict[str, int] = field(default_factory=dict)
    charged_states: int = 0
    created: float = field(default_factory=time.monotonic)
    started: Optional[float] = None
    finished: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL

    @property
    def seconds(self) -> Optional[float]:
        """Wall seconds spent running (None until the job started)."""
        if self.started is None:
            return None
        end = self.finished if self.finished is not None else time.monotonic()
        return end - self.started


# ----------------------------------------------------------------------
# Job runners (executor-agnostic: also run inside pool workers)
# ----------------------------------------------------------------------
@dataclass
class JobOutcome:
    """What one runner produced: a result document plus the verdict."""

    result: Optional[Dict] = None
    #: the CLI exit code of the same request
    exit_code: int = EXIT_OK
    detail: str = ""
    #: tokens to drain from the tenant bucket (None: budget.charged_states)
    charged: Optional[int] = None


class InvalidSpecification(ValueError):
    """The submitted ``.g`` text does not parse into a usable STG."""


class JobFailed(Exception):
    """The request cannot run: the job ends ``failed`` with this detail."""


#: the synth/verify params a :class:`~repro.pipeline.PipelineSpec` takes
_SPEC_OPTIONS = (
    "name", "style", "share_gates", "verify", "max_models", "max_states",
    "verify_max_states",
)


def _pipeline_spec(params: Dict):
    """The job's pipeline spec, from its ``.g`` text and options."""
    from repro.pipeline import PipelineSpec
    from repro.stg.parser import parse_g

    try:
        stg = parse_g(params["spec_text"], name=params["name"])
    except ValueError as exc:
        raise InvalidSpecification(str(exc)) from exc
    if not stg.net.transitions:
        raise InvalidSpecification("malformed .g specification: no transitions")
    return PipelineSpec.from_stg(stg, **{key: params[key] for key in _SPEC_OPTIONS})


def _synth_result(name: str, result) -> Dict:
    """The synth result document of a :class:`repro.SynthesisResult`.

    The ``netlist`` payload is exactly
    :func:`repro.netlist.io.netlist_to_json` (what ``repro-si synth
    --save-netlist`` writes), the hazard verdict is the detached codec
    of :mod:`repro.pipeline.serialize` -- both byte-comparable to the
    CLI artifacts.
    """
    import json as _json

    from repro.netlist.io import netlist_to_json
    from repro.pipeline.serialize import _hazard_to_json

    return {
        "schema": "repro-service-synth/1",
        "name": name,
        "states": len(result.spec.state_list),
        "inputs": sorted(result.spec.inputs),
        "added_signals": list(result.added_signals),
        "equations": result.implementation.equations(),
        "netlist": _json.loads(netlist_to_json(result.netlist)),
        "gates": len(result.netlist.gates),
        "hazard": _hazard_to_json(result.hazard_report),
        "fingerprint": result.fingerprint,
    }


def _stage_events(
    pipeline, spec, emit: Callable[[Dict], None], delta=None
) -> Dict[str, Dict]:
    """Run the pipeline stage by stage, emitting one event per stage.

    Each event carries the stage's reuse ledger entry (``mode`` of
    ``hit`` / ``miss`` / ``partial`` plus per-signal/function/marking
    counts) captured right after the stage first ran, so delta jobs
    stream exactly how much of each stage was recomputed.
    """
    from repro.pipeline.core import STAGES

    context = pipeline.context
    collected: Dict[str, Dict] = {}
    for stage in STAGES:
        misses = context.cache_misses
        started = time.perf_counter()
        pipeline.run(spec, until=stage, delta=delta)
        event = {
            "event": "stage",
            "stage": stage,
            "cached": context.cache_misses == misses,
            "ms": round((time.perf_counter() - started) * 1000, 3),
        }
        reuse = context.last_reuse.get(stage)
        if reuse is not None:
            event["reuse"] = dict(reuse)
            collected[stage] = dict(reuse)
        emit(event)
    return collected


def _synthesise(params: Dict, context, emit):
    """Stream the stage events, then package the design: (result, document)."""
    from repro.pipeline import Pipeline

    spec = _pipeline_spec(params)
    delta = params.get("delta")
    reuse = _stage_events(Pipeline(context), spec, emit, delta=delta)
    if delta:
        spec = spec.apply_delta(delta)
    # the stages ran above: packaging the design is memo hits throughout
    result = run_synthesis(spec, context)
    document = _synth_result(spec.name, result)
    if delta:
        document["base_job"] = params["base_job"]
        document["delta"] = delta
        document["reuse"] = reuse
    return result, document


def _run_synth(params: Dict, context, emit) -> JobOutcome:
    return JobOutcome(result=_synthesise(params, context, emit)[1])


def _run_verify(params: Dict, context, emit) -> JobOutcome:
    """Synthesise and model-check; verdict mirrors ``repro-si verify``."""
    synthesis, result = _synthesise(params, context, emit)
    verdict = verdict_of(synthesis.hazard_report)
    result["schema"] = "repro-service-verify/1"
    result["verdict"] = verdict.status
    result["exit_code"] = verdict.exit_code
    return JobOutcome(
        result=result, exit_code=verdict.exit_code, detail=verdict.detail
    )


def _run_table1(params: Dict, context, emit) -> JobOutcome:
    """The Table-1 suite over the resident store (``run_table1``)."""
    from repro.bench.suite import (
        BENCHMARKS,
        format_table1,
        run_table1,
        table1_payload,
        table1_problems,
    )

    names = list(params["designs"] or BENCHMARKS)
    store_root = None if context.store is None else context.store.root
    emit({"event": "stage", "stage": "table1", "designs": len(names)})
    results = run_table1(
        verify=params["verify"],
        names=names,
        store=store_root,
    )
    for result in results:
        emit(
            {
                "event": "design",
                "design": result.name,
                "added_signals": result.added_signals,
                "ms": round(result.elapsed_seconds * 1000, 3),
            }
        )
    problems = table1_problems(results, verify=params["verify"])
    exit_code = EXIT_HAZARD if problems else EXIT_OK
    return JobOutcome(
        result={
            "schema": "repro-service-table1/1",
            "designs": names,
            "rows": table1_payload(results),
            "table": format_table1(results),
            "problems": problems,
            "exit_code": exit_code,
        },
        exit_code=exit_code,
        detail="; ".join(problems),
        charged=sum(len(r.spec_sg) for r in results),
    )


def _run_diff(params: Dict, context, emit) -> JobOutcome:
    """A differential-oracle campaign (``differential_campaign``)."""
    from repro.verify.differential import differential_campaign

    def progress(record) -> None:
        emit(
            {
                "event": "design",
                "design": record.name,
                "diverged": bool(record.mismatches),
                "skipped": record.skipped is not None,
            }
        )

    report = differential_campaign(
        count=params["count"],
        seed=params["seed"],
        max_states=params["max_states"],
        max_seconds_each=params["max_seconds_each"],
        progress=progress,
    )
    divergent = report.divergent
    result = {
        "schema": "repro-service-diff/1",
        "designs": len(report.records),
        "checked": report.checked,
        "skipped": len(report.skipped),
        "divergent": len(divergent),
        "divergent_names": sorted(r.name for r in divergent),
        "exit_code": report.exit_code,
        "summary": report.describe(),
    }
    return JobOutcome(
        result=result,
        exit_code=report.exit_code,
        detail=report.detail,
        charged=sum(r.states for r in report.records),
    )


def _run_corpus(params: Dict, context, emit) -> JobOutcome:
    """A corpus-backed batch sweep (``run_batch(corpus=...)``).

    The generated design stream runs through the batch scheduler
    against the resident store; the result carries the deterministic
    manifest document (byte-comparable to ``repro-si batch --corpus``)
    plus the run's status tally and scheduler counters.
    """
    from repro.corpus import CorpusError, CorpusSpec
    from repro.pipeline.batch import run_batch

    spec = CorpusSpec.from_json(params["corpus"])

    def progress(outcome) -> None:
        emit(
            {
                "event": "design",
                "design": outcome.name,
                "status": outcome.status,
                "resumed": outcome.resumed,
            }
        )

    store_root = None if context.store is None else context.store.root
    emit({"event": "stage", "stage": "corpus", "designs": spec.count})
    try:
        report = run_batch(
            corpus=spec,
            store=store_root,
            jobs=params["jobs"] or 1,
            style=params["style"],
            verify=params["verify"],
            max_states=params["max_states"],
            timeout_seconds=params["timeout_seconds"],
            progress=progress,
        )
    except CorpusError as exc:
        raise JobFailed(str(exc)) from exc
    result = {
        "schema": "repro-service-corpus/1",
        "seed": report.seed,
        "designs": len(report.outcomes),
        "statuses": report.status_counts,
        "scheduler": dict(report.scheduler),
        "manifest": report.manifest(),
        "exit_code": report.exit_code,
        "summary": report.describe(),
    }
    detail = {
        EXIT_OK: "",
        EXIT_HAZARD: "hazardous or failed design(s) in the sweep",
        EXIT_INCONCLUSIVE: "at least one design blew its budget",
    }[report.exit_code]
    return JobOutcome(
        result=result,
        exit_code=report.exit_code,
        detail=detail,
        charged=sum(o.states for o in report.outcomes),
    )


_RUNNERS = {
    "synth": _run_synth,
    "verify": _run_verify,
    "table1": _run_table1,
    "diff": _run_diff,
    "corpus": _run_corpus,
}


def run_job(kind: str, params: Dict, context, emit) -> Dict:
    """Execute one job to a terminal outcome dict (never raises).

    The returned dict carries ``status`` / ``detail`` / ``result`` /
    ``charged`` / ``cache`` and is identical across the thread and
    process executors, so the manager finishes jobs uniformly.
    """
    from repro.pipeline.delta import DeltaError

    result, charged = None, None
    try:
        outcome = _RUNNERS[kind](params, context, emit)
        # the one exit code -> job status map: inconclusive stays
        # inconclusive; any other verdict (a hazard or a divergence
        # included) is a done job whose result carries the exit code
        status = INCONCLUSIVE if outcome.exit_code == EXIT_INCONCLUSIVE else DONE
        detail = outcome.detail
        result, charged = outcome.result, outcome.charged
    except DeltaError as exc:
        # the delta parsed at submit time but does not apply to the
        # base specification (e.g. dropping an edge it does not have)
        status, detail = FAILED, f"edit does not apply: {exc}"
    except InvalidSpecification as exc:
        # the only parameter submit-time validation cannot vet: .g text
        status, detail = FAILED, f"invalid specification: {exc}"
    except JobFailed as exc:
        status, detail = FAILED, str(exc)
    except verdict_errors() as exc:
        # the design status (inconclusive or failed) is the job status
        status, detail = verdict_of_error(exc)
    except Exception as exc:  # an internal bug, not a bad request:
        # keep the traceback visible instead of mislabeling it
        traceback.print_exc(file=sys.stderr)
        status, detail = (
            FAILED, f"internal error: {type(exc).__name__}: {exc}"
        )
    if charged is None:
        charged = context.budget.charged_states
    return {
        "status": status,
        "detail": detail,
        "result": result,
        "charged": int(charged),
        "cache": {
            "hits": context.cache_hits,
            "misses": context.cache_misses,
        },
    }


def _process_job(task: Dict) -> Dict:
    """Process-pool worker body (picklable I/O, run_batch's model).

    Builds its own context -- fresh memo, own handle on the shared
    store root -- and collects events locally; the manager replays them
    into the job's stream on completion.
    """
    from repro.pipeline.context import AnalysisContext

    events: List[Dict] = []
    budget = Budget(
        max_states=task["max_states"], max_seconds=task["max_seconds"]
    )
    context = AnalysisContext(
        budget=budget,
        store=task["store_root"],
        recorder=StreamRecorder(events.append),
    )
    outcome = run_job(task["kind"], task["params"], context, events.append)
    outcome["events"] = events
    if context.store is not None:
        outcome["store_traffic"] = context.store.totals()
    return outcome


__all__ = [
    "DEFAULT_JOB_STATES",
    "DEFAULT_KEEP_JOBS",
    "DEFAULT_MEMO_ENTRIES",
    "DEFAULT_TENANT_REFILL",
    "DEFAULT_TENANT_TOKENS",
    "DONE",
    "FAILED",
    "INCONCLUSIVE",
    "InvalidSpecification",
    "Job",
    "JobManager",
    "JobOutcome",
    "LRUMemo",
    "QUEUED",
    "RUNNING",
    "StreamRecorder",
    "TERMINAL",
    "TokenBucket",
    "run_job",
]


class QueueFull(RuntimeError):
    """The submission queue is at capacity -> HTTP 429."""


class Draining(RuntimeError):
    """The server is shutting down; no new jobs -> HTTP 503."""


class JobManager:
    """The resident job world: queue + buckets + executor + caches.

    Construct, then ``await start()`` inside a running event loop;
    ``await drain()`` stops accepting work, finishes what is in flight
    and shuts the executor down (the graceful-shutdown contract the CI
    smoke test asserts).
    """

    def __init__(
        self,
        store: Optional[str] = None,
        workers: int = 1,
        tenant_tokens: float = DEFAULT_TENANT_TOKENS,
        tenant_refill: float = DEFAULT_TENANT_REFILL,
        job_max_states: int = DEFAULT_JOB_STATES,
        job_max_seconds: Optional[float] = None,
        max_queued: int = 256,
        memo_entries: int = DEFAULT_MEMO_ENTRIES,
        keep_jobs: int = DEFAULT_KEEP_JOBS,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        #: ``thread``: one worker thread, shared in-memory memo, live
        #: phase events.  ``process``: run_batch-style fan-out sharing
        #: warmth through the store directory.
        self.mode = "thread" if workers == 1 else "process"
        self.store_root = None if store is None else str(store)
        self.store = None
        if self.store_root is not None:
            from repro.pipeline.store import ArtifactStore

            self.store = ArtifactStore(self.store_root)
        self.tenant_tokens = float(tenant_tokens)
        self.tenant_refill = float(tenant_refill)
        self.job_max_states = job_max_states
        self.job_max_seconds = job_max_seconds
        self.max_queued = max_queued
        if keep_jobs < 1:
            raise ValueError(f"keep_jobs must be >= 1, got {keep_jobs}")
        self.keep_jobs = keep_jobs
        self.started_at = time.monotonic()
        #: bounded resident caches -- a long-running server must not
        #: grow with total jobs served (see :class:`LRUMemo`)
        self._memo: Dict = LRUMemo(memo_entries)
        #: shared across thread-mode request contexts so delta jobs can
        #: replay the base job's reachability exploration snapshot
        self._incremental = None
        self._jobs: Dict[str, Job] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._ids = itertools.count(1)
        self._draining = False
        self._loop = None
        self._queue = None
        self._cond = None
        self._pool = None
        self._worker_tasks: List = []
        #: aggregate artifact-cache traffic across finished jobs
        self.cache_totals = {"hits": 0, "misses": 0}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        import asyncio

        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._cond = asyncio.Condition()
        if self.mode == "thread":
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-service"
            )
        else:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"job-worker-{n}")
            for n in range(self.workers)
        ]

    async def drain(self) -> Dict:
        """Graceful shutdown: finish in-flight work, stop the executor.

        Returns the shutdown report the ``/v1/shutdown`` endpoint (and
        the CLI's clean-exit message) serialises: job counts by status
        plus ``pending`` -- which is 0 on a clean drain and what CI
        fails on otherwise.
        """
        import asyncio

        self._draining = True
        await self._queue.join()
        for _ in self._worker_tasks:
            self._queue.put_nowait(None)
        await asyncio.gather(*self._worker_tasks)
        pool, self._pool = self._pool, None
        if pool is not None:
            await self._loop.run_in_executor(None, pool.shutdown)
        pending = [job.id for job in self._jobs.values() if not job.terminal]
        return {
            "drained": True,
            "jobs": self.status_counts(),
            "pending": len(pending),
            "pending_ids": pending,
        }

    # ------------------------------------------------------------------
    # Submission + lookup
    # ------------------------------------------------------------------
    def submit(self, kind: str, tenant: str, params: Dict) -> Job:
        """Queue one validated job (see :func:`protocol.parse_submit`)."""
        if self._draining:
            raise Draining("server is draining; no new jobs accepted")
        if self._queue.qsize() >= self.max_queued:
            raise QueueFull(
                f"submission queue full ({self.max_queued} jobs queued)"
            )
        job = Job(
            id=f"j{next(self._ids):06d}", kind=kind, tenant=tenant,
            params=params,
        )
        self._jobs[job.id] = job
        self._queue.put_nowait(job)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        return list(self._jobs.values())

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.status] = counts.get(job.status, 0) + 1
        return counts

    def bucket(self, tenant: str) -> TokenBucket:
        if tenant not in self._buckets:
            self._buckets[tenant] = TokenBucket(
                self.tenant_tokens, self.tenant_refill
            )
        return self._buckets[tenant]

    def stats(self) -> Dict:
        """The ``/v1/stats`` document: one resident world, observable."""
        return {
            "schema": "repro-service-stats/1",
            "mode": self.mode,
            "workers": self.workers,
            "draining": self._draining,
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "queued": 0 if self._queue is None else self._queue.qsize(),
            "jobs": self.status_counts(),
            "cache": dict(self.cache_totals),
            "memo_entries": len(self._memo),
            "store": None if self.store is None else {
                "root": self.store.root,
                "traffic": self.store.totals(),
            },
            "tenants": {
                tenant: round(bucket.available(), 1)
                for tenant, bucket in sorted(self._buckets.items())
            },
        }

    # ------------------------------------------------------------------
    # Event streaming
    # ------------------------------------------------------------------
    async def next_events(self, job: Job, cursor: int) -> List[Dict]:
        """Events past ``cursor``; waits unless the job is terminal."""
        async with self._cond:
            while len(job.events) <= cursor and not job.terminal:
                await self._cond.wait()
        return job.events[cursor:]

    def _wake(self) -> None:
        """Notify event-stream watchers (called on the loop thread)."""
        import asyncio

        asyncio.ensure_future(self._notify())

    async def _notify(self) -> None:
        async with self._cond:
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            job = await self._queue.get()
            try:
                if job is None:
                    return
                await self._run(job)
            finally:
                self._queue.task_done()

    def _emitter(self, job: Job) -> Callable[[Dict], None]:
        """A threadsafe event appender usable from executor threads."""

        def emit(event: Dict) -> None:
            job.events.append(dict(event))
            self._loop.call_soon_threadsafe(self._wake)

        return emit

    async def _run(self, job: Job) -> None:
        emit = self._emitter(job)
        bucket = self.bucket(job.tenant)
        available = bucket.available()
        if available < 1.0:
            job.started = job.finished = time.monotonic()
            self._finish(
                job,
                {
                    "status": INCONCLUSIVE,
                    "detail": (
                        "tenant budget exhausted: 0 state tokens available "
                        f"(bucket refills at "
                        f"{self.tenant_refill:.0f} tokens/s)"
                    ),
                    "result": None,
                    "charged": 0,
                    "cache": {},
                },
                emit,
            )
            return
        state_cap = min(
            job.params.get("max_states") or self.job_max_states,
            int(available),
        )
        max_seconds = job.params.get("budget_seconds") or self.job_max_seconds
        job.status = RUNNING
        job.started = time.monotonic()
        emit({"event": "status", "status": RUNNING, "job": job.id})
        if self.mode == "thread":
            from repro.pipeline.context import AnalysisContext

            context = AnalysisContext(
                budget=Budget(max_states=state_cap, max_seconds=max_seconds),
                store=self.store,
                recorder=StreamRecorder(emit),
                memo=self._memo,
            )
            if self._incremental is None:
                from repro.pipeline.incremental import IncrementalIndex

                self._incremental = IncrementalIndex()
            # one resident index (single worker thread): snapshots taken
            # by earlier jobs replay in later delta jobs
            context._incremental = self._incremental
            outcome = await self._loop.run_in_executor(
                self._pool, run_job, job.kind, job.params, context, emit
            )
        else:
            task = {
                "kind": job.kind,
                "params": job.params,
                "store_root": self.store_root,
                "max_states": state_cap,
                "max_seconds": max_seconds,
            }
            outcome = await self._loop.run_in_executor(
                self._pool, _process_job, task
            )
            for event in outcome.pop("events", []):
                emit(event)
            # surface the worker's store traffic alongside the (fresh,
            # hence hit-free) in-memory counters so warmth stays visible
            cache = dict(outcome.get("cache") or {})
            for event, count in outcome.pop("store_traffic", {}).items():
                cache[f"store_{event}"] = count
            outcome["cache"] = cache
        bucket.drain(outcome["charged"])
        self._finish(job, outcome, emit)

    def _prune_jobs(self) -> None:
        """Retention policy: keep at most ``keep_jobs`` finished jobs.

        ``_jobs`` is submission-ordered, so the oldest terminal jobs
        (with their event lists and result payloads) go first; running
        and queued jobs are never touched.  Called on the loop thread
        whenever a job finishes, keeping a long-running server's
        memory bounded by the retention window, not by jobs served.
        """
        terminal = [job.id for job in self._jobs.values() if job.terminal]
        excess = len(terminal) - self.keep_jobs
        if excess > 0:
            for job_id in terminal[:excess]:
                del self._jobs[job_id]

    def _finish(self, job: Job, outcome: Dict, emit) -> None:
        job.status = outcome["status"]
        job.detail = outcome["detail"]
        job.result = outcome["result"]
        job.charged_states = outcome["charged"]
        job.cache = dict(outcome.get("cache") or {})
        job.finished = time.monotonic()
        for key in ("hits", "misses"):
            self.cache_totals[key] += job.cache.get(key, 0)
        self._prune_jobs()
        emit(
            {
                "event": "status",
                "status": job.status,
                "job": job.id,
                "detail": job.detail,
                "charged_states": job.charged_states,
            }
        )
        # wake watchers even though no further events will arrive
        self._loop.call_soon_threadsafe(self._wake)
