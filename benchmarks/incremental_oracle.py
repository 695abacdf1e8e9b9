"""Randomized edit-sequence oracle: incremental == from-scratch, always.

Applies chains of random :class:`~repro.pipeline.delta.SpecDelta` s to
generated STG families (``repro.corpus``) and the Table-1
designs, and checks on every edit that

- an edit that *applies* yields a warm ``Pipeline.run(spec, delta=...)``
  netlist artifact byte-identical (fingerprint chain) to a cold
  from-scratch synthesis of the edited spec -- on every tenth applied
  edit the warm side runs in a fresh context that finds the base spec's
  artifacts only in an :class:`~repro.pipeline.store.ArtifactStore`, so
  store-decoded delta hints are held to the same check -- and
- an edit that *fails* (delta does not apply, edited spec unbounded or
  otherwise unsynthesisable) fails identically on both paths — same
  exception type, same message.

Successful edits accumulate: the next edit applies on top, so one
design contributes a whole random trajectory through spec space,
including verdict-flip edits that introduce or resolve CSC conflicts.
This is the expensive, exhaustive version of the tier-1 test in
``tests/test_incremental.py``; CI runs it on pull requests only.

Usage::

    PYTHONPATH=src python benchmarks/incremental_oracle.py [--edits 220]
                                                           [--seed 0]
"""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
import time

from repro.corpus import (
    alternator,
    concurrent_fork,
    random_series_parallel,
    token_ring,
)
from repro.bench.suite import BENCHMARKS, load_benchmark
from repro.pipeline import AnalysisContext, ArtifactStore, Pipeline, PipelineSpec
from repro.pipeline.delta import (
    AddEdge,
    RemoveEdge,
    RetypeSignal,
    SetMarking,
    SpecDelta,
)

#: (label, STG factory, max edits per trajectory) — the per-design cap
#: keeps the long-tail Table-1 designs (~1s per cold synthesis) from
#: dominating the sweep's wall time.  Every oracle edit pays a full cold
#: synthesis, so the corpus sticks to designs whose cold run is bounded:
#: random_series_parallel at leaves=4 can take minutes per cold run
#: (seed-dependent insertion blow-up), which is why only the ~15s
#: leaves=3/seed=1 instance appears, with a small edit cap.
CORPUS = [
    ("token_ring(2)", lambda: token_ring(2), 40),
    ("token_ring(3)", lambda: token_ring(3), 40),
    ("concurrent_fork(2)", lambda: concurrent_fork(2), 30),
    ("concurrent_fork(3)", lambda: concurrent_fork(3), 20),
    ("alternator(2)", lambda: alternator(2), 30),
    ("alternator(3)", lambda: alternator(3), 24),
    ("series_parallel(1,3)", lambda: random_series_parallel(1, leaves=3), 4),
] + [(name, (lambda n=name: load_benchmark(n)), 6) for name in BENCHMARKS]

#: run the warm side from the store alone on every STORE_EVERY-th
#: applied edit of a trajectory
STORE_EVERY = 10


def random_delta(rng: random.Random, stg) -> SpecDelta:
    """One random edit, biased toward ones that keep the STG synthesisable."""
    transitions = sorted(stg.net.transitions)
    roll = rng.random()
    if roll < 0.35:
        signal = rng.choice(sorted(stg.outputs | stg.internal))
        role = "internal" if signal in stg.outputs else "output"
        return SpecDelta((RetypeSignal(signal, role),))
    if roll < 0.60:
        source, target = rng.choice(transitions), rng.choice(transitions)
        return SpecDelta((AddEdge(source, target, marked=rng.random() < 0.5),))
    if roll < 0.85:
        net = stg.net
        droppable = sorted(
            (next(iter(net.place_preset[p])), next(iter(net.place_postset[p])))
            for p in net.places
            if len(net.place_preset[p]) == 1 and len(net.place_postset[p]) == 1
        )
        if droppable:
            return SpecDelta((RemoveEdge(*droppable[rng.randrange(len(droppable))]),))
        source, target = rng.choice(transitions), rng.choice(transitions)
        return SpecDelta((RemoveEdge(source, target),))
    places = sorted(stg.net.places)
    count = max(1, len(stg.initial_marking))
    return SpecDelta((SetMarking(tuple(rng.sample(places, count))),))


def sweep_design(label: str, stg, rng: random.Random, max_edits: int) -> dict:
    """One random trajectory; returns {'edits': n, 'applied': n, 'failed': n}."""
    with tempfile.TemporaryDirectory(prefix="repro-oracle-") as root:
        return _sweep(label, stg, rng, max_edits, ArtifactStore(root))


def _sweep(label: str, stg, rng: random.Random, max_edits: int, store) -> dict:
    # The trajectory's context spills every artifact to ``store``, so the
    # store always holds the current base spec.  Every STORE_EVERY-th
    # applied edit (the first one included) runs its warm side in a
    # fresh context that sees the base only through the store: the
    # delta hints then come from decoded store entries.
    context = AnalysisContext(store=store)
    pipeline = Pipeline(context)
    spec = PipelineSpec.from_stg(stg, verify=False)
    counts = {"edits": 0, "applied": 0, "failed": 0}
    try:
        pipeline.run(spec)
    except Exception as exc:  # noqa: BLE001 - unsynthesisable seed design
        print(f"{label}: base synthesis failed ({exc}); skipped")
        return counts
    for _ in range(max_edits):
        delta = random_delta(rng, spec.stg)
        counts["edits"] += 1
        warm_pipeline = pipeline
        if counts["applied"] % STORE_EVERY == 0:
            warm_pipeline = Pipeline(AnalysisContext(store=store))
        try:
            warm = warm_pipeline.run(spec, delta=delta)
            warm_error = None
        except Exception as exc:  # noqa: BLE001 - compared against cold
            warm, warm_error = None, exc
        try:
            edited = spec.apply_delta(delta)
            cold = Pipeline(AnalysisContext()).run(edited)
            cold_error = None
        except Exception as exc:  # noqa: BLE001
            cold, cold_error = None, exc
        if warm_error is not None or cold_error is not None:
            if type(warm_error) is not type(cold_error) or str(warm_error) != str(
                cold_error
            ):
                raise AssertionError(
                    f"{label}: edit {delta.describe()!r} failed differently: "
                    f"warm={warm_error!r} cold={cold_error!r}"
                )
            counts["failed"] += 1
            continue
        if warm.fingerprint != cold.fingerprint:
            raise AssertionError(
                f"{label}: edit {delta.describe()!r} broke byte-identity "
                f"({warm.fingerprint[:12]} != {cold.fingerprint[:12]})"
            )
        spec = edited
        counts["applied"] += 1
    if store.totals()["corrupt"]:
        raise AssertionError(f"{label}: store entries failed to decode: {store.stats()}")
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--edits", type=int, default=220,
        help="minimum total edits to exercise (default 220)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    total = {"edits": 0, "applied": 0, "failed": 0}
    started = time.perf_counter()
    passes = 0
    while total["edits"] < args.edits:
        passes += 1
        for label, factory, max_edits in CORPUS:
            counts = sweep_design(label, factory(), rng, max_edits)
            for key in total:
                total[key] += counts[key]
            print(
                f"{label:<22} edits={counts['edits']:>3} "
                f"applied={counts['applied']:>3} failed={counts['failed']:>3} "
                f"(total {total['edits']})"
            )
            if total["edits"] >= args.edits and passes > 1:
                break
    elapsed = time.perf_counter() - started
    print(
        f"\nincremental oracle: {total['edits']} edits "
        f"({total['applied']} applied, {total['failed']} failed identically) "
        f"byte-identical in {elapsed:.1f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
