"""Batch orchestration: cold sweep vs resumed sweep.

Runs one corpus -- the bundled Table-1 designs plus a few generated
families -- through ``run_batch`` twice:

* **cold**: a fresh store and a ``--jobs`` worker pool;
* **resumed**: the same sweep resumed from the cold run's manifest --
  every design skips on its spec fingerprint, which is the whole point
  of resumable manifests.

Byte-identity of the two manifests is asserted on every measurement (a
fast resume that changed the answers would be meaningless), and the
cold-vs-resumed wall-clock lands in the ``batch`` section of
``BENCH_pipeline.json``, gated by ``check_regression.py --sections
batch`` (floor: resumed >= 5x faster than cold).

Usage::

    PYTHONPATH=src python benchmarks/bench_batch.py [--jobs 2]
                                                    [--out BENCH_pipeline.json]
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.corpus import alternator, concurrent_fork, token_ring  # noqa: E402
from repro.bench.suite import update_pipeline_json  # noqa: E402
from repro.pipeline.batch import run_batch  # noqa: E402
from repro.stg.writer import dumps_g  # noqa: E402


def build_corpus(scratch: str) -> list:
    """The bundled Table-1 corpus plus small generated families."""
    specs = sorted(glob.glob(os.path.join(REPO, "src/repro/bench/data/*.g")))
    generated = [
        token_ring(2),
        token_ring(3),
        concurrent_fork(2),
        concurrent_fork(3),
        alternator(2),
        alternator(3),
    ]
    for stg in generated:
        path = os.path.join(scratch, f"{stg.name}.g")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dumps_g(stg))
        specs.append(path)
    return specs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--out", default="BENCH_pipeline.json",
        help="trajectory file to merge the 'batch' section into",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch:
        specs = build_corpus(scratch)
        manifest = os.path.join(scratch, "manifest.json")

        store = os.path.join(scratch, "store")
        started = time.perf_counter()
        cold = run_batch(specs, store=store, jobs=args.jobs)
        cold_s = time.perf_counter() - started
        with open(manifest, "w", encoding="utf-8") as handle:
            handle.write(cold.manifest_text())

        started = time.perf_counter()
        resumed = run_batch(specs, store=store, jobs=args.jobs, resume=manifest)
        resumed_s = time.perf_counter() - started

    identical = cold.manifest_text() == resumed.manifest_text()
    if not identical:
        print("bench_batch: FAIL: manifests are not byte-identical",
              file=sys.stderr)
        return 1
    skips = resumed.stats()["scheduler"]["resume_skips"]
    if skips != len(specs):
        print(f"bench_batch: FAIL: resumed only {skips}/{len(specs)} designs",
              file=sys.stderr)
        return 1

    speedup = cold_s / resumed_s if resumed_s > 0 else float("inf")
    print(f"corpus: {len(specs)} designs, jobs={args.jobs}")
    print(f"cold    : {cold_s * 1000:9.1f} ms")
    print(f"resumed : {resumed_s * 1000:9.1f} ms "
          f"({skips} resume-skips, {speedup:.0f}x)")

    payload = {
        "designs": len(specs),
        "jobs": args.jobs,
        "cold_ms": round(cold_s * 1000, 1),
        "resumed_ms": round(resumed_s * 1000, 3),
        "resumed_speedup": round(speedup, 1),
        "resume_skips": skips,
        "manifests_identical": identical,
    }
    path = update_pipeline_json("batch", payload, args.out)
    print(f"\nwrote section 'batch' to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
