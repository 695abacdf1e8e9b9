"""Content-addressed persistent store for pipeline stage artifacts.

The in-process memo cache (:class:`~repro.pipeline.context.AnalysisContext`)
dies with its process; this module spills the same fingerprint-keyed
stage artifacts to disk so repeated runs -- CLI invocations, bench
sweeps, CI gates, the ``repro-si batch`` workers -- start warm.

Layout and contract
-------------------
One entry per ``(stage, memo-key)`` pair::

    <root>/<stage>/<sha256 over the key reprs>.json

Each entry is a JSON envelope stamped with a schema version and the key
it answers for::

    {"schema": "repro-artifact-store/6", "stage": "mc",
     "key": ["'<fp>'", "'bitengine'"], "artifact": {...}}

Envelope ``/6`` stores each state graph once, in its dense form, in
the ``reach`` entry.  The ``regions`` and ``mc`` payloads and a
no-insertion ``covers`` payload name that graph (and ``covers`` the
``mc`` report) by fingerprint and state order, and hold state sets as
bitmasks over it; ``get`` resolves the references against the upstream
artifacts its caller passes, so a warm hit rebuilds no graph the
process already holds.
Older envelopes are not migrated -- the schema check degrades them to
counted ``corrupt`` misses and they are rewritten on the next put
(docs/FORMATS.md has the version history).

The store is **content-addressed**: the digest is computed over the
``repr`` of every key component, and the memo keys chain upstream
artifact fingerprints (see :mod:`repro.pipeline.artifacts`), so a hit is
correct by construction -- the same key can only ever map to the same
analysis result.

Robustness rules, in order of importance:

* **A bad entry is a miss, never a crash.**  Truncated files, foreign
  JSON, schema/stage/key mismatches, references that do not match the
  upstream artifacts and decoding errors all count as ``corrupt``
  misses; the offending file is deleted best-effort.
* **Writes are atomic.**  Entries are written to a same-directory temp
  file and ``os.replace``-d into place, so concurrent writers (batch
  workers racing on one key) each publish a complete entry and readers
  never observe a torn one.
* **Artifacts that cannot be spilled faithfully are skipped.**
  :class:`~repro.pipeline.serialize.ArtifactCodingError` marks the
  artifact memory-only; ``put`` returns ``False``.

Eviction is LRU by file mtime: ``get`` bumps the entry's mtime, ``put``
trims the store to ``max_entries`` (oldest first, the entry just
written is protected; entry files are stat-ed only over the cap).  A
``put`` lists the store only when a cheap count says it may be over the
cap: the entries found at the last listing plus every put since (an
overwrite counts too, so the count never falls short of this process's
own writes).  Other processes' writes are seen at the next listing,
which happens at least every ``max_entries // 16`` puts.
Hit/miss/evict counters are kept per stage and mirrored into
:mod:`repro.perf` (``store-hit:<stage>`` etc.) so CLI ``--profile``
output and the bench harness surface store traffic.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional, Tuple

from repro import perf
from repro.pipeline.serialize import (
    ArtifactCodingError,
    stage_artifact_from_json,
    stage_artifact_to_json,
)

#: envelope schema stamp; bump on any incompatible payload change (old
#: entries then read as corrupt misses and are rewritten, never crash)
STORE_SCHEMA = "repro-artifact-store/6"

#: the store event vocabulary, in reporting order
EVENTS = ("hit", "miss", "corrupt", "put", "skip", "evict")


class ArtifactStore:
    """A directory of persisted pipeline stage artifacts.

    Parameters
    ----------
    root:
        Directory holding the store (created on first write).
    max_entries:
        LRU size cap across all stages; ``None`` disables eviction.
    """

    def __init__(self, root: str, max_entries: Optional[int] = 4096):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.root = str(root)
        self.max_entries = max_entries
        #: upper bound on the entry count from this process's view: the
        #: count at the last listing plus the puts since (None: unlisted)
        self._count_bound: Optional[int] = None
        self._puts_since_listing = 0
        #: event -> stage -> count (see ``stats()``)
        self._counters: Dict[str, Dict[str, int]] = {e: {} for e in EVENTS}

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    @staticmethod
    def _key_reprs(stage: str, key: Tuple) -> Tuple[str, ...]:
        return tuple(repr(part) for part in (stage,) + tuple(key))

    @classmethod
    def entry_digest(cls, stage: str, key: Tuple) -> str:
        """The content digest addressing ``(stage, key)`` (file basename)."""
        hasher = hashlib.sha256()
        for part in cls._key_reprs(stage, key):
            hasher.update(part.encode("utf-8"))
            hasher.update(b"\x1f")
        return hasher.hexdigest()

    def path_for(self, stage: str, key: Tuple) -> str:
        """The entry path answering for ``(stage, key)``."""
        return os.path.join(
            self.root, stage, self.entry_digest(stage, key) + ".json"
        )

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def _count(self, event: str, stage: str) -> None:
        bucket = self._counters[event]
        bucket[stage] = bucket.get(stage, 0) + 1
        perf.count(f"store-{event}:{stage}")

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage traffic: ``{"hit": {"mc": 3}, "miss": ..., ...}``.

        ``corrupt`` misses are also counted under ``miss``; ``skip``
        counts faithful-coding refusals (not written, not an error).
        """
        return {event: dict(stages) for event, stages in self._counters.items()}

    def totals(self) -> Dict[str, int]:
        """Whole-store traffic: event -> count summed over stages."""
        return {
            event: sum(stages.values())
            for event, stages in self._counters.items()
        }

    # ------------------------------------------------------------------
    # The cache protocol
    # ------------------------------------------------------------------
    def get(self, stage: str, key: Tuple, upstream: Tuple = ()):
        """The persisted artifact for ``(stage, key)``, or ``None``.

        ``upstream`` holds the upstream stage artifacts the payload may
        refer to (see :mod:`repro.pipeline.serialize`).  Any defect in
        the entry -- unreadable, truncated, foreign schema, key
        mismatch, undecodable payload, a reference the upstream
        artifacts do not match -- deletes it best-effort and reports a
        miss.
        """
        path = self.path_for(stage, key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            self._count("miss", stage)
            return None
        except (OSError, ValueError):
            self._discard_corrupt(path, stage)
            return None
        try:
            if envelope["schema"] != STORE_SCHEMA:
                raise ArtifactCodingError("schema mismatch")
            if envelope["stage"] != stage:
                raise ArtifactCodingError("stage mismatch")
            if tuple(envelope["key"]) != self._key_reprs(stage, key):
                raise ArtifactCodingError("key mismatch")
            artifact = stage_artifact_from_json(
                stage, envelope["artifact"], upstream
            )
        except Exception:
            self._discard_corrupt(path, stage)
            return None
        self._touch(path)
        self._count("hit", stage)
        return artifact

    def put(self, stage: str, key: Tuple, artifact, upstream: Tuple = ()) -> bool:
        """Persist ``artifact`` under ``(stage, key)``; True if written.

        ``upstream`` is what a later ``get`` will pass: parts of the
        artifact that are upstream objects are stored as references.
        Artifacts that cannot be spilled faithfully are skipped (the
        memo cache keeps them in memory); unknown stages are an error.
        """
        try:
            payload = stage_artifact_to_json(stage, artifact, upstream)
        except ArtifactCodingError:
            self._count("skip", stage)
            return False
        envelope = {
            "schema": STORE_SCHEMA,
            "stage": stage,
            "key": list(self._key_reprs(stage, key)),
            "artifact": payload,
        }
        path = self.path_for(stage, key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        tmp = os.path.join(directory, f".tmp-{os.getpid()}-{id(artifact):x}")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(envelope, separators=(",", ":")))
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self._count("put", stage)
        if self._may_be_over_cap():
            self.trim(protect=path)
        return True

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def trim(self, protect: Optional[str] = None) -> int:
        """Evict least-recently-used entries beyond ``max_entries``.

        ``protect`` exempts one path (the entry just written).  Returns
        the number of entries evicted.  ``put`` calls it only when its
        count bound may exceed the cap (see the module docstring); entry
        files are only stat-ed when the listing is over the cap.
        """
        if self.max_entries is None:
            return 0
        entries = self._entries()
        self._count_bound = len(entries)
        self._puts_since_listing = 0
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return 0
        by_age = []
        for path, stage in entries:
            try:
                by_age.append((os.stat(path).st_mtime, path, stage))
            except OSError:
                continue  # racing eviction/corruption cleanup
        evicted = 0
        for _, path, stage in sorted(by_age):
            if evicted >= excess:
                break
            if path == protect:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            self._count("evict", stage)
            evicted += 1
        self._count_bound -= evicted
        return evicted

    def _may_be_over_cap(self) -> bool:
        """Count one put; True when the store must be listed to trim it."""
        if self.max_entries is None:
            return False
        if self._count_bound is None:
            return True
        self._count_bound += 1
        self._puts_since_listing += 1
        return (
            self._count_bound > self.max_entries
            or self._puts_since_listing >= max(1, self.max_entries // 16)
        )

    def __len__(self) -> int:
        return len(self._entries())

    def _entries(self):
        """All ``(path, stage)`` entries currently on disk."""
        found = []
        try:
            stages = sorted(os.listdir(self.root))
        except OSError:
            return found
        for stage in stages:
            directory = os.path.join(self.root, stage)
            try:
                names = sorted(os.listdir(directory))
            except OSError:
                continue
            found.extend(
                (os.path.join(directory, name), stage)
                for name in names
                if name.endswith(".json")
            )
        return found

    @staticmethod
    def _touch(path: str) -> None:
        try:
            os.utime(path, None)
        except OSError:
            pass

    def _discard_corrupt(self, path: str, stage: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass
        self._count("corrupt", stage)
        self._count("miss", stage)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ArtifactStore(root={self.root!r}, "
            f"max_entries={self.max_entries!r})"
        )


__all__ = ["ArtifactStore", "EVENTS", "STORE_SCHEMA"]
