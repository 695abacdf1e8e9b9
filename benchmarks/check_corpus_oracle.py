"""CI gate: the DeMorgan oracle vs the derivation path, over one corpus.

Draws one seeded :class:`repro.corpus.CorpusSpec` stream (the same
factory that feeds ``repro-si batch --corpus`` and the service), sweeps
it through the batch machinery for the derivation path's verdicts, then
replays every design through the DeMorgan/Eichelberger ternary oracle
(:mod:`repro.verify.hazard_free`) and cross-checks the two claim for
claim:

* the **batch sweep** synthesises and verifies each design exactly as a
  user sweep would (netlist-level speed-independence check), producing
  the manifest verdicts;
* the **oracle replay** re-derives each design's SOP covers and runs
  the ternary criterion on the literal dicts alone -- no bitengine, no
  packed codes, no reachability replay;
* any design where both oracles are conclusive but disagree fails the
  gate; each disagreement is additionally handed to the fault engine as
  targeted single-event-upset scenarios
  (:func:`repro.verify.hazard_free.suggest_glitch_injections` feeding
  :func:`repro.verify.faults.glitch_campaign`) so the log shows which
  oracle the circuit-level simulation sides with.

Inconclusive results (blown budgets, corner-cap truncations) are
counted and reported but never treated as disagreement.

Usage::

    PYTHONPATH=src python benchmarks/check_corpus_oracle.py [--count 1000]
                                                            [--seed 2026]
                                                            [--jobs N]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.corpus import CorpusSpec, FamilySpec, corpus_stream  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402
from repro.pipeline.batch import run_batch  # noqa: E402
from repro.verify.hazard_free import (  # noqa: E402
    cross_check_verdicts,
    demorgan_check,
    suggest_glitch_injections,
)


def gate_spec(count: int, seed: int) -> CorpusSpec:
    """The sweep mix: fast deterministic families, wide parameter spread."""
    return CorpusSpec(
        count=count,
        seed=seed,
        families=(
            FamilySpec("token_ring", weight=2, params={"channels": (2, 6)}),
            FamilySpec("linear_pipeline", weight=2, params={"stages": (2, 6)}),
            FamilySpec("arbiter", weight=2, params={"clients": (2, 4)}),
            FamilySpec("concurrent_fork", params={"branches": (2, 4)}),
            FamilySpec("alternator", params={"ways": (2, 3)}),
        ),
        name_prefix="oracle",
    )


def adjudicate(design, plan, report) -> str:
    """Aim the fault engine at a disagreement's gates -> one summary line."""
    from repro.netlist.netlist import netlist_from_implementation
    from repro.verify.faults import glitch_campaign

    netlist = netlist_from_implementation(plan.implementation, style="C")
    injections = suggest_glitch_injections(netlist, report)
    if not injections:
        return f"  {design.name}: no injectable gates for the claims"
    outcomes = glitch_campaign(
        netlist, plan.sg, runs=len(injections), injections=injections
    )
    detected = sum(1 for o in outcomes if o.detected)
    return (
        f"  {design.name}: fault engine ran {len(injections)} targeted "
        f"SEU(s), {detected} detected as spec violations"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--jobs", type=int, default=max(os.cpu_count() or 1, 1))
    parser.add_argument("--max-states", type=int, default=50_000)
    args = parser.parse_args(argv)

    spec = gate_spec(args.count, args.seed)

    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        sweep = run_batch(
            corpus=spec,
            store=os.path.join(scratch, "store"),
            jobs=args.jobs,
            max_states=args.max_states,
        )
    sweep_s = time.perf_counter() - started
    verdicts = {}
    for outcome in sweep.outcomes:
        if outcome.status == "error":
            print(
                f"check_corpus_oracle: FAIL: {outcome.name} errored in the "
                f"sweep: {outcome.detail}",
                file=sys.stderr,
            )
            return 1
        verdicts[outcome.name] = (
            None if outcome.status == "inconclusive" else outcome.hazard_free
        )
    print(
        f"sweep: {len(verdicts)} designs in {sweep_s:.1f}s "
        f"(seed {sweep.stats()['seed']}, jobs {args.jobs})"
    )

    started = time.perf_counter()
    pipe = Pipeline()
    agreements = 0
    inconclusive = 0
    disagreements = []
    for design in corpus_stream(spec):
        plan = pipe.run(design.pipeline_spec(verify=False), until="covers")
        report = demorgan_check(plan.implementation)
        si_verdict = verdicts[design.name]
        if si_verdict is None or not report.conclusive:
            inconclusive += 1
            continue
        mismatch = cross_check_verdicts(design.name, report, si_verdict)
        if mismatch is None:
            agreements += 1
        else:
            disagreements.append((mismatch, adjudicate(design, plan, report)))
    oracle_s = time.perf_counter() - started
    print(
        f"demorgan: {agreements} agreement(s), {len(disagreements)} "
        f"disagreement(s), {inconclusive} inconclusive in {oracle_s:.1f}s"
    )

    if disagreements:
        print("check_corpus_oracle: FAIL: the oracles disagree:", file=sys.stderr)
        for mismatch, fault_line in disagreements:
            print(f"  {mismatch}", file=sys.stderr)
            print(fault_line, file=sys.stderr)
        return 1
    if not agreements:
        print(
            "check_corpus_oracle: FAIL: no conclusive cross-checks at all",
            file=sys.stderr,
        )
        return 1
    print(
        f"check_corpus_oracle: PASS: {agreements}/{len(verdicts)} designs "
        f"cross-checked, oracles agree"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
