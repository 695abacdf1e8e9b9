"""The corpus factory: seeded streams of structurally-admitted designs.

:func:`corpus_stream` turns a :class:`~repro.corpus.spec.CorpusSpec`
into a lazy stream of :class:`CorpusDesign` records.  Per candidate:

1. a family is drawn from the spec's weighted mix with a random state
   derived *arithmetically* from ``(spec.seed, attempt_index)`` — no
   process-level randomness, no hash randomisation, so the same spec
   yields the same stream in every process;
2. the family's parameters are sampled from their declared ranges and
   the builder runs;
3. the candidate passes through the structural admission bar
   (consistency T-invariants, free choice, bounded live-and-safe
   exploration) and is either admitted — named, serialised to
   canonical ``.g`` text, fingerprinted — or rejected with a counted
   reason.

The stream is the single generation path for batch sweeps
(``repro-si batch --corpus``), differential campaigns, service sweep
jobs and the CI oracle gates.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.corpus.families import FAMILIES
from repro.corpus.spec import CorpusSpec, FamilySpec
from repro.pipeline.core import PipelineSpec
from repro.stg.invariants import is_consistent_net
from repro.stg.reachability import ReachabilityError, StateCapExceeded, explore
from repro.stg.stg import STG
from repro.stg.structural import is_free_choice, is_live_marking_graph
from repro.stg.writer import dumps_g

#: Large primes decorrelating per-candidate random streams from the
#: corpus seed; chosen once, load-bearing for stream stability.
_SEED_STRIDE = 1_000_003
_FAMILY_SALT = 7_368_787


class CorpusError(ValueError):
    """Corpus generation failed (e.g. the admission bar starves the stream)."""


@dataclass(frozen=True)
class CorpusDesign:
    """One admitted design: the STG plus its canonical text and identity.

    ``g_text`` is the deterministic :func:`repro.stg.writer.dumps_g`
    rendering; ``fingerprint`` is the SHA-256 of those bytes, i.e. equal
    to ``fingerprint_file`` of a ``.g`` file holding the same text —
    batch manifests key resume decisions on it.
    """

    index: int
    name: str
    family: str
    stg: STG
    g_text: str
    fingerprint: str

    def pipeline_spec(self, **options) -> PipelineSpec:
        """This design as a pipeline entry point (synthesis options pass through)."""
        options.setdefault("name", self.name)
        return PipelineSpec.from_stg(self.stg, **options)


@dataclass
class CorpusStats:
    """Counters accumulated while a stream is drained.

    ``rejections`` maps reason → count (``builder-error``,
    ``inconsistent``, ``non-free-choice``, ``unsafe``, ``state-cap``,
    ``inconsistent-assignment``, ``not-live``); ``by_family`` counts
    *admitted* designs per family.
    """

    candidates: int = 0
    admitted: int = 0
    rejections: Dict[str, int] = field(default_factory=dict)
    by_family: Dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1

    @property
    def rejected(self) -> int:
        return sum(self.rejections.values())

    def to_json(self) -> dict:
        return {
            "candidates": self.candidates,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "rejections": dict(sorted(self.rejections.items())),
            "by_family": dict(sorted(self.by_family.items())),
        }


def _candidate_rng(spec_seed: int, attempt: int) -> random.Random:
    """A per-candidate PRNG from pure integer arithmetic (process-stable)."""
    return random.Random(spec_seed * _SEED_STRIDE + attempt * 2 + 1)


def _pick_family(families: Tuple[FamilySpec, ...], rng: random.Random) -> FamilySpec:
    total = sum(entry.weight for entry in families)
    ticket = rng.randrange(total)
    for entry in families:
        ticket -= entry.weight
        if ticket < 0:
            return entry
    return families[-1]  # unreachable; keeps the type checker honest


def _sample_params(entry: FamilySpec, rng: random.Random) -> Dict[str, int]:
    params: Dict[str, int] = {}
    for key, value in sorted(entry.resolved_params().items()):
        if isinstance(value, tuple):
            params[key] = rng.randint(value[0], value[1])
        else:
            params[key] = value
    return params


def admission_failure(stg: STG, spec: CorpusSpec) -> Optional[str]:
    """The reason this candidate fails the admission bar, or None if it passes.

    Checks run cheapest-first; the live/safe exploration reuses
    :mod:`repro.stg.reachability` directly so cap overruns, safeness
    violations and inconsistent state assignments are reported apart.
    Liveness is decided on the explored marking graph: it is live iff
    every bottom strongly connected component fires every transition
    (Murata, *Petri nets: properties, analysis and applications*,
    Proc. IEEE 1989), one linear Tarjan pass.
    """
    admission = spec.admission
    net = stg.net
    if admission.require_consistent and not is_consistent_net(net):
        return "inconsistent"
    if admission.require_free_choice and not is_free_choice(net):
        return "non-free-choice"
    if admission.require_live_safe:
        try:
            exploration = explore(stg, max_states=admission.max_states)
        except StateCapExceeded:
            return "state-cap"
        except ReachabilityError as exc:
            if "state assignment" in str(exc):
                return "inconsistent-assignment"
            return "unsafe"
        if not is_live_marking_graph(
            len(exploration.markings), exploration.arcs, len(exploration.transitions)
        ):
            return "not-live"
    return None


def corpus_stream(
    spec: CorpusSpec, stats: Optional[CorpusStats] = None
) -> Iterator[CorpusDesign]:
    """Lazily yield ``spec.count`` admitted designs.

    The stream is a pure function of the spec (including its seed):
    byte-identical ``g_text`` and fingerprints wherever it is drained.
    Raises :class:`CorpusError` if ``spec.attempts_cap`` candidates are
    exhausted before ``count`` admissions — an over-strict bar fails
    loudly rather than spinning.
    """
    if stats is None:
        stats = CorpusStats()
    families = tuple(spec.families)
    admitted = 0
    attempt = 0
    while admitted < spec.count:
        if attempt >= spec.attempts_cap:
            raise CorpusError(
                f"corpus starved: {admitted}/{spec.count} designs admitted "
                f"after {attempt} candidates "
                f"(rejections: {dict(sorted(stats.rejections.items()))})"
            )
        rng = _candidate_rng(spec.seed, attempt)
        attempt += 1
        stats.candidates += 1
        entry = _pick_family(families, rng)
        family = FAMILIES[entry.family]
        params = _sample_params(entry, rng)
        if family.seeded:
            params["seed"] = spec.seed * _SEED_STRIDE + attempt * _FAMILY_SALT
        try:
            stg = family.build(**params)
        except (ValueError, KeyError) as exc:
            stats.reject("builder-error")
            del exc
            continue
        reason = admission_failure(stg, spec)
        if reason is not None:
            stats.reject(reason)
            continue
        name = f"{spec.name_prefix}-{admitted:05d}-{entry.family}"
        stg.name = name
        g_text = dumps_g(stg)
        fingerprint = hashlib.sha256(g_text.encode("utf-8")).hexdigest()
        stats.admitted += 1
        stats.by_family[entry.family] = stats.by_family.get(entry.family, 0) + 1
        yield CorpusDesign(
            index=admitted,
            name=name,
            family=entry.family,
            stg=stg,
            g_text=g_text,
            fingerprint=fingerprint,
        )
        admitted += 1


def generate_corpus(spec: CorpusSpec) -> Tuple[List[CorpusDesign], CorpusStats]:
    """Drain a stream eagerly: ``(designs, stats)``.

    Convenience for tests and small sweeps; batch-scale callers should
    iterate :func:`corpus_stream` to keep memory flat.
    """
    stats = CorpusStats()
    designs = list(corpus_stream(spec, stats=stats))
    return designs, stats


__all__ = [
    "CorpusDesign",
    "CorpusError",
    "CorpusStats",
    "admission_failure",
    "corpus_stream",
    "generate_corpus",
]
