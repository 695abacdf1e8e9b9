"""The shared AnalysisContext threaded through every pipeline stage.

One context = one analysis world: *which engine* decides MC
(:mod:`repro.pipeline.backends`), *how much* state/wall-clock it may
spend (:class:`repro.verify.budget.Budget`), *where* per-stage artifacts
are memoised, and *who* records phase timings
(:mod:`repro.perf`).  Because every entry point -- ``repro-si``, the
bench suite, the verify campaigns, the examples -- builds its flow on
the same context type, budgets and profiling are started exactly once
per run: nesting a pipeline inside a verify campaign shares the
campaign's context instead of opening a second clock, so each
wall-clock second and each elaborated state is charged once.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro import perf
from repro.pipeline.backends import get_backend
from repro.pipeline.incremental import IncrementalIndex
from repro.verify.budget import Budget

if TYPE_CHECKING:  # pragma: no cover - imported only for a --store run
    from repro.pipeline.store import ArtifactStore


class AnalysisContext:
    """Engine + budget + memo cache + profiling for one analysis world.

    Parameters
    ----------
    backend:
        Analysis engine name: ``"bitengine"`` (the default) or the
        ``"reference"`` oracle.
    budget:
        The single :class:`Budget` every stage charges; defaults to an
        unbounded no-op guard.  Pass the *enclosing* campaign's budget
        when nesting a pipeline inside a larger run -- contexts never
        start a second clock of their own.
    recorder:
        Optional :class:`repro.perf.PerfRecorder` installed for the
        duration of each ``Pipeline.run`` on this context.  ``None``
        leaves the process-global recorder (CLI ``--profile``) alone.
    store:
        Optional persistent artifact store backing the in-process memo
        cache: an :class:`~repro.pipeline.store.ArtifactStore` or a
        directory path to open one at.  A memo miss consults the store
        before computing, and computed artifacts are spilled to it, so
        separate processes (CLI runs, batch workers) share warm starts.
    memo:
        Optional artifact dict *shared between contexts*: several
        analysis worlds (e.g. the job server's per-request contexts,
        each carrying its own budget and recorder) can hand in the same
        dict and reuse one resident in-memory cache.  Memo keys chain
        the stage name with upstream fingerprints, so sharing is safe
        across backends and specs.  Defaults to a private dict.
    """

    def __init__(
        self,
        backend: Optional[str] = None,
        budget: Optional[Budget] = None,
        recorder: Optional[perf.PerfRecorder] = None,
        store: Union["ArtifactStore", str, None] = None,
        memo: Optional[Dict[Tuple, object]] = None,
    ):
        if isinstance(store, (str, os.PathLike)):
            from repro.pipeline.store import ArtifactStore

            store = ArtifactStore(str(store))
        self.backend = get_backend(backend)
        self.budget: Budget = budget if budget is not None else Budget()
        self.recorder = recorder
        self.store: Optional["ArtifactStore"] = store
        self._memo: Dict[Tuple, object] = memo if memo is not None else {}
        #: per-stage memo traffic, e.g. ``{"regions": 1}``
        self.cache_hits_by_stage: Dict[str, int] = {}
        self.cache_misses_by_stage: Dict[str, int] = {}
        #: per-stage reuse ledger of the most recent ``Pipeline.run``:
        #: stage -> {"mode": "hit"|"miss"|"partial", ...counts}
        self.last_reuse: Dict[str, Dict[str, object]] = {}
        self._incremental = None

    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        """Total artifact-cache hits across all stages."""
        return sum(self.cache_hits_by_stage.values())

    @property
    def cache_misses(self) -> int:
        """Total artifact-cache misses (stage computations performed)."""
        return sum(self.cache_misses_by_stage.values())

    def cache_info(self) -> Dict[str, Tuple[int, int]]:
        """Stage -> (hits, misses) for everything this context ran."""
        stages = set(self.cache_hits_by_stage) | set(self.cache_misses_by_stage)
        return {
            stage: (
                self.cache_hits_by_stage.get(stage, 0),
                self.cache_misses_by_stage.get(stage, 0),
            )
            for stage in sorted(stages)
        }

    def clear_cache(self) -> None:
        """Drop memoised artifacts (counters are kept for inspection)."""
        self._memo.clear()

    # ------------------------------------------------------------------
    @property
    def incremental(self):
        """Lazy per-context :class:`~repro.pipeline.incremental.IncrementalIndex`.

        Holds reachability exploration snapshots and the insertion-search
        analysis cache that power ``Pipeline.run(spec, delta=...)``.
        """
        if self._incremental is None:
            self._incremental = IncrementalIndex()
        return self._incremental

    def note_reuse(self, stage: str, mode: str, **counts) -> None:
        """Record how much of ``stage``'s latest run was incremental.

        ``mode`` is ``"hit"`` (artifact served from memo/store),
        ``"miss"`` (computed from scratch) or ``"partial"`` (computed,
        but with per-signal/per-function/per-marking reuse recorded in
        ``counts``).  The ledger is reset at the start of each
        ``Pipeline.run`` and surfaced on ``PipelineResult.reuse`` and
        the service's stage events.
        """
        entry: Dict[str, object] = {"mode": mode}
        entry.update(counts)
        self.last_reuse[stage] = entry

    def probe(self, stage: str, key: Tuple, upstream: Tuple = ()):
        """Look up an artifact without counting a hit or a miss.

        Used by the delta path to fetch *base-spec* artifacts as reuse
        hints: a probe is not part of the edited run's cache traffic, so
        it must not skew the hit/miss counters (store ``get`` stats do
        register, which is accurate — the store was really consulted).
        ``upstream`` is as for :meth:`memoize`.
        """
        full_key = (stage,) + key
        if full_key in self._memo:
            return self._memo[full_key]
        if self.store is not None:
            artifact = self.store.get(stage, key, upstream)
            if artifact is not None:
                self._memo[full_key] = artifact
                return artifact
        return None

    # ------------------------------------------------------------------
    def memoize(self, stage: str, key: Tuple, compute, cache_if=None, upstream: Tuple = ()):
        """Return the memoised artifact for ``key``, computing on miss.

        ``key`` must chain the upstream artifact's fingerprint with every
        option that can change this stage's result; see
        :mod:`repro.pipeline.artifacts`.  ``upstream`` (``(reached,)`` for
        ``mc``, ``(reached, mc)`` for ``covers``) goes to the store, whose
        payloads refer to those artifacts instead of embedding them.

        ``cache_if``, when given, is called with a freshly computed
        artifact; returning False keeps it out of the memo *and* the
        store.  Stages use it when a run's budget lowered their
        effective cap below what ``key`` promises: a truncated result
        must never be served to later full-budget runs sharing the
        caches.
        """
        full_key = (stage,) + key
        if full_key in self._memo:
            self.cache_hits_by_stage[stage] = (
                self.cache_hits_by_stage.get(stage, 0) + 1
            )
            perf.count(f"pipeline-cache-hit:{stage}")
            self.note_reuse(stage, "hit")
            return self._memo[full_key]
        self.cache_misses_by_stage[stage] = (
            self.cache_misses_by_stage.get(stage, 0) + 1
        )
        if self.store is not None:
            artifact = self.store.get(stage, key, upstream)
            if artifact is not None:
                self._memo[full_key] = artifact
                self.note_reuse(stage, "hit")
                return artifact
        self.note_reuse(stage, "miss")
        artifact = compute()
        if cache_if is not None and not cache_if(artifact):
            perf.count(f"pipeline-cache-skip:{stage}")
            return artifact
        self._memo[full_key] = artifact
        if self.store is not None:
            self.store.put(stage, key, artifact, upstream)
        return artifact

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AnalysisContext(backend={self.backend.name!r}, "
            f"budget={self.budget!r}, cached={len(self._memo)})"
        )


__all__ = ["AnalysisContext"]
