"""CI gate: interrupted pooled sweeps resume without changing answers.

Simulates the operational story behind ``repro-si batch --resume``:

1. a **cold serial** sweep over the bundled corpus produces the
   determinism baseline manifest (one store, one worker);
2. a **pooled** sweep (``--jobs`` worker processes, a fresh store) is
   killed mid-batch -- only the NDJSON journal survives, no manifest;
3. the sweep is **resumed** from the journal and must emit a manifest
   byte-identical to the serial baseline, with the completed designs
   skipped on their spec fingerprints;
4. a second resume of the now-complete manifest must skip every design
   and finish at least ``--floor`` times faster than the cold sweep.

The stats sidecar of the resumed run must carry the ``resume_skips``
counter and zero-seeded store traffic including the ``evict`` key.
Exit 0 on success, 1 on any violation.  Usage::

    python benchmarks/check_batch_resume.py [--jobs 2]
"""

import argparse
import glob
import os
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.pipeline.batch import (  # noqa: E402
    JOURNAL_SUFFIX,
    BatchJournal,
    batch_options,
    run_batch,
)


class Interrupted(Exception):
    """Stand-in for SIGKILL: aborts the sweep mid-batch."""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--kill-after", type=int, default=3,
                        help="designs to complete before the simulated crash")
    parser.add_argument("--floor", type=float, default=5.0,
                        help="minimum full-resume speedup over the cold sweep")
    args = parser.parse_args()

    specs = sorted(glob.glob(os.path.join(REPO, "src/repro/bench/data/*.g")))
    if len(specs) <= args.kill_after:
        print(f"FAIL: corpus of {len(specs)} designs too small to interrupt "
              f"after {args.kill_after}")
        return 1

    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        started = time.perf_counter()
        serial = run_batch(specs, store=os.path.join(scratch, "serial"))
        cold_s = time.perf_counter() - started
        baseline = serial.manifest_text()

        manifest = os.path.join(scratch, "sweep.json")
        store = os.path.join(scratch, "pooled")
        journal = BatchJournal(manifest + JOURNAL_SUFFIX, batch_options())
        completed = []

        def crash_mid_batch(outcome):
            journal.append(outcome)
            completed.append(outcome.name)
            if len(completed) == args.kill_after:
                raise Interrupted()

        try:
            run_batch(specs, store=store, jobs=args.jobs,
                      progress=crash_mid_batch)
            failures.append("simulated crash never fired")
        except Interrupted:
            pass
        journal.close()
        if os.path.exists(manifest):
            failures.append("manifest written despite mid-batch crash")

        resumed = run_batch(specs, store=store, jobs=args.jobs,
                            resume=manifest)
        with open(manifest, "w", encoding="utf-8") as handle:
            handle.write(resumed.manifest_text())

        if resumed.manifest_text() != baseline:
            failures.append("resumed manifest differs from serial baseline")
        stats = resumed.stats()
        skips = stats["scheduler"]["resume_skips"]
        if skips != len(completed):
            failures.append(f"resume skipped {skips} designs, journal "
                            f"recorded {len(completed)}")
        for event in ("hit", "miss", "evict"):
            if event not in stats["store_traffic"]:
                failures.append(f"store_traffic key {event!r} missing")

        started = time.perf_counter()
        full = run_batch(specs, store=store, jobs=args.jobs, resume=manifest)
        resumed_s = time.perf_counter() - started
        if full.manifest_text() != baseline:
            failures.append("full-resume manifest differs from baseline")
        if full.stats()["scheduler"]["resume_skips"] != len(specs):
            failures.append("full resume did not skip every design")
        speedup = cold_s / resumed_s if resumed_s > 0 else float("inf")
        if speedup < args.floor:
            failures.append(f"full resume only {speedup:.1f}x faster than "
                            f"cold (floor {args.floor:.0f}x)")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"OK: {len(specs)} designs, interrupted after {len(completed)}, "
          f"resumed manifest byte-identical to serial baseline; full resume "
          f"{speedup:.0f}x faster than cold ({cold_s * 1000:.0f}ms -> "
          f"{resumed_s * 1000:.1f}ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
