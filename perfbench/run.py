"""Cold-run benchmark of ``repro-si``: Table-1 insertion and batch sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured unit is a fresh ``repro-si`` process started from the
``src/`` tree next to this directory.  A run repeats *passes* of its
workload while another pass fits in ``--seconds``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates plain and
traced passes and reports the per-layer metrics of the traced ones
(see README.md).

Each pass prints one JSON line: its hash seed and, per design, the
checks that failed and a sha256 of the design's netlist.  The last line
of stdout is the result object.  Without the program's sources the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(SRC, "repro", "bench", "data")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

from spans import merge_snapshots  # noqa: E402
from synth_output import parse_importtime, parse_synth  # noqa: E402

#: the paper's Table 1: design -> number of state signals it adds
TABLE1 = {
    "nak-pa": 1,
    "nowick": 1,
    "duplicator": 2,
    "ganesh8": 2,
    "berkel2": 1,
    "berkel3": 2,
    "mp-forward-pkt": 0,
    "luciano": 1,
    "delement": 1,
}

#: the batch corpus (``repro-corpus-spec/1``).  Its draw is fixed: the
#: families and sizes drawn under another seed vary the work of a pass
#: threefold (one 7-branch fork costs as much as a hundred small
#: designs).  Seed 9 draws three 4-, 5- and 6-branch forks each, two
#: 7-branch forks and 29 token rings, linear pipelines and arbiters.
#: The run's seed goes into the design names, and so into every
#: fingerprint and store key.
CORPUS = {
    "schema": "repro-corpus-spec/1",
    "count": 40,
    "seed": 9,
    "families": [
        {"family": "concurrent_fork", "params": {"branches": [4, 7]}},
        {"family": "token_ring"},
        {"family": "linear_pipeline"},
        {"family": "arbiter"},
    ],
}

SETUP_PROBES = 7


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def pass_hash_seed(seed: int, index: int) -> int:
    """PYTHONHASHSEED for every process of pass ``index`` of run ``seed``."""
    return random.Random(f"perfbench:{seed}:{index}").randrange(2**32)


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
@dataclass
class Proc:
    wall: float
    code: int
    stdout: str
    stderr: str
    rss_mb: float


class Spawner:
    """Starts cold processes from ``src/`` and reaps them with rusage."""

    def __init__(self, work: str):
        self.work = work
        self.started = 0

    def run(self, argv: List[str], hash_seed: int) -> Proc:
        self.started += 1
        out_path = os.path.join(self.work, f"proc-{self.started}.out")
        err_path = os.path.join(self.work, f"proc-{self.started}.err")
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed), TMPDIR=self.work)
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=self.work)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            wall=wall,
            code=proc.returncode,
            stdout=_read(out_path),
            stderr=_read(err_path),
            rss_mb=usage.ru_maxrss / 1024.0,
        )


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.read()


# ----------------------------------------------------------------------
# One pass over a workload
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    index: int
    hash_seed: int
    traced: bool
    wall: float = 0.0
    rss_mb: float = 0.0
    gates: int = 0
    #: design -> {"problems": [...], "sha256": ..., ...}
    designs: Dict[str, dict] = field(default_factory=dict)
    snapshots: List[dict] = field(default_factory=list)

    def add_process(self, proc: Proc) -> None:
        self.wall += proc.wall
        self.rss_mb = max(self.rss_mb, proc.rss_mb)

    def add_design(self, name: str, problems: List[str], **facts) -> None:
        self.designs[name] = dict(facts, problems=problems)

    @property
    def failed(self) -> int:
        return sum(1 for entry in self.designs.values() if entry["problems"])

    def line(self) -> str:
        return json.dumps(
            {
                "pass": self.index,
                "traced": self.traced,
                "hash_seed": self.hash_seed,
                "wall_s": round(self.wall, 6),
                "designs": self.designs,
            },
            sort_keys=True,
        )


def oracle_problems(snapshots: List[dict], design: str) -> List[str]:
    """The DeMorgan oracle's findings on ``design`` in a traced pass."""
    entries = [e for snap in snapshots for e in snap["oracle"] if e["design"] == design]
    if not entries:
        return ["DeMorgan oracle did not run"]
    problems = []
    for entry in entries:
        if entry["claims"]:
            problems.append(f"DeMorgan oracle: {entry['claims']} hazard claim(s)")
        if entry["mismatch"]:
            problems.append(entry["mismatch"])
    return problems


def traced_snapshots(trace_dir: str, problems: List[str]) -> List[dict]:
    """The span files the processes of one traced spawn wrote."""
    snapshots = []
    try:
        for name in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as handle:
                snapshots.append(json.load(handle))
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable trace: {exc}")
    return snapshots


class Table1Cold:
    """One fresh ``repro-si synth --area`` process per Table-1 design."""

    def __init__(self, work: str, seed: int, spawner: Spawner):
        self.work = work
        self.spawner = spawner

    def run_pass(self, result: PassResult) -> None:
        for name, paper_added in TABLE1.items():
            spec = os.path.join(DATA, f"{name}.g")
            argv = [sys.executable, "-m", "repro.cli", "synth", spec, "--area"]
            if result.traced:
                trace_dir = tempfile.mkdtemp(prefix=f"trace-{name}-", dir=self.work)
                argv = [sys.executable, CHILD, trace_dir] + argv[3:]
            proc = self.spawner.run(argv, result.hash_seed)
            result.add_process(proc)
            out = parse_synth(proc.stdout)
            problems = []
            if proc.code != 0:
                problems.append(f"exit code {proc.code}: {proc.stderr.strip()[-200:]}")
            if out.verdict != "HAZARD-FREE":
                problems.append(f"SI verdict {out.verdict}")
            if out.added_signals != paper_added:
                problems.append(f"added {out.added_signals} signal(s), paper {paper_added}")
            if result.traced:
                snapshots = traced_snapshots(trace_dir, problems)
                result.snapshots.extend(snapshots)
                problems += oracle_problems(snapshots, name)
            result.gates += out.gates
            result.add_design(
                name,
                problems,
                sha256=out.netlist_sha256,
                added=out.added_signals,
                gates=out.gates,
                seconds=round(proc.wall, 6),
            )


class Batch:
    """``repro-si batch --corpus`` into an empty store, then again warm.

    The warm sweep reads back what the cold sweep wrote, so one pass
    measures both sides of the artifact store, and the warm manifest
    must be byte-identical to the cold one.
    """

    def __init__(self, work: str, seed: int, spawner: Spawner):
        self.work = work
        self.spawner = spawner
        self.jobs = len(os.sched_getaffinity(0))
        self.prefix = f"s{seed}"
        self.spec = os.path.join(work, "corpus.json")
        with open(self.spec, "w", encoding="utf-8") as handle:
            json.dump(dict(CORPUS, name_prefix=self.prefix), handle)

    def run_pass(self, result: PassResult) -> None:
        pass_dir = tempfile.mkdtemp(prefix=f"pass-{result.index}-", dir=self.work)
        store = os.path.join(pass_dir, "store")
        manifests = {}
        for phase in ("cold", "warm"):
            manifest = os.path.join(pass_dir, f"{phase}.manifest.json")
            stats = os.path.join(pass_dir, f"{phase}.stats.json")
            argv = [
                "batch", "--corpus", self.spec, "--jobs", str(self.jobs),
                "--store", store, "--manifest", manifest, "--stats", stats,
            ]
            if result.traced:
                trace_dir = os.path.join(pass_dir, f"{phase}-trace")
                os.mkdir(trace_dir)
                argv = [sys.executable, CHILD, trace_dir] + argv
            else:
                argv = [sys.executable, "-m", "repro.cli"] + argv
            proc = self.spawner.run(argv, result.hash_seed)
            result.add_process(proc)
            names, manifests[phase] = self.check_manifest(
                result, phase, proc, manifest, stats
            )
            if result.traced:
                problems: List[str] = []
                snapshots = traced_snapshots(trace_dir, problems)
                result.snapshots += snapshots
                for name in names:
                    result.designs[f"{phase}/{name}"]["problems"] += problems + (
                        oracle_problems(snapshots, name)
                    )
            if phase == "warm" and manifests["warm"] != manifests["cold"]:
                for name in names:
                    result.designs[f"warm/{name}"]["problems"].append(
                        "warm manifest differs from the cold manifest"
                    )
        shutil.rmtree(pass_dir, ignore_errors=True)

    def check_manifest(
        self, result: PassResult, phase: str, proc: Proc, manifest: str, stats: str
    ) -> tuple:
        """One design per manifest row; a missing row is a failed design.

        Returns the design names and the manifest's bytes.
        """
        try:
            with open(manifest, "rb") as handle:
                manifest_bytes = handle.read()
            rows = json.loads(manifest_bytes)["designs"]
            with open(stats, encoding="utf-8") as handle:
                seconds = json.load(handle)["seconds_by_design"]
        except (OSError, ValueError, KeyError) as exc:
            manifest_bytes, rows, seconds = b"", [], {}
            missing = f"no manifest (exit code {proc.code}): {exc}"
        else:
            missing = "design missing from the manifest"
        names = []
        for row in rows:
            problems = [] if proc.code == 0 else [f"exit code {proc.code}"]
            if row["status"] != "hazard-free":
                problems.append(f"status {row['status']}: {row['detail']}")
            if row["added_signals"]:
                problems.append(f"added signals {row['added_signals']}")
            if phase == "cold":
                result.gates += row["gates"]
            result.add_design(
                f"{phase}/{row['name']}",
                problems,
                sha256=hashlib.sha256(row["equations"].encode("utf-8")).hexdigest(),
                added=len(row["added_signals"]),
                gates=row["gates"],
                seconds=seconds.get(row["name"], 0.0),
            )
            names.append(row["name"])
        for index in range(len(rows), CORPUS["count"]):
            names.append(f"{self.prefix}-missing-{index}")
            result.add_design(f"{phase}/{names[-1]}", [missing])
        return names, manifest_bytes


WORKLOADS: Dict[str, Callable] = {
    "table1-cold": Table1Cold,
    "batch": Batch,
}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(passes: List[PassResult], setup_times: List[float]) -> Dict[str, tuple]:
    """Times are the fastest of a run's repeats.

    The work of a pass is fixed by its inputs, and other load on the host
    only ever slows a process down, so the fastest repeat is the one
    closest to the program's own cost (README.md has the measurements).
    """
    return {
        "wall_s": (min(p.wall for p in passes), "s"),
        "setup_s": (min(setup_times), "s"),
        "peak_rss_mb": (median(p.rss_mb for p in passes), "MB"),
        "netlist_gates": (median(p.gates for p in passes), "count"),
    }


STAGES = ("reach", "regions", "mc", "covers", "netlist")


def layer_metrics(merged: dict) -> Dict[str, tuple]:
    """Per-layer numbers of one traced pass (spans summed over processes)."""
    spans, counters, edges = merged["spans"], merged["counters"], merged["edges"]

    def incl(name: str) -> float:
        return spans.get(name, {}).get("inclusive_s", 0.0)

    def own(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    built = calls("assignment.encoding")
    solved = counters.get("assignment.encodings_solved", 0)
    metrics = {
        "sat.solve_s": (incl("sat.solve"), "s"),
        "sat.solve_calls": (calls("sat.solve"), "count"),
        "sat.solvers": (calls("sat.build"), "count"),
        "sat.model_ratio": (ratio(counters.get("sat.models", 0), calls("sat.solve")), "ratio"),
        "insertion.s": (incl("insertion"), "s"),
        "insertion.self_s": (own("insertion"), "s"),
        "insertion.expand_s": (incl("insertion.expand"), "s"),
        "insertion.expand_calls": (calls("insertion.expand"), "count"),
        "insertion.mc_calls": (edges.get(("insertion", "mc.analyze"), 0), "count"),
        "assignment.build_s": (incl("assignment.encoding") + incl("assignment.constraints"), "s"),
        "assignment.solve_self_s": (own("assignment.solve"), "s"),
        "insertion.encodings_built": (built, "count"),
        "insertion.encodings_solved": (solved, "count"),
        "insertion.encoding_use_ratio": (ratio(solved, built), "ratio"),
        "mc.analyze_s": (incl("mc.analyze"), "s"),
        "mc.analyze_calls": (calls("mc.analyze"), "count"),
        "sg.regions_s": (incl("sg.regions"), "s"),
        "sg.regions_calls": (calls("sg.regions"), "count"),
        "stg.load_g_s": (incl("stg.load_g"), "s"),
        "stg.reach_s": (incl("stg.reach"), "s"),
        "stg.spec_states": (counters.get("stg.spec_states", 0), "count"),
        "corpus.admission_s": (incl("corpus.admission"), "s"),
        "corpus.admitted": (counters.get("corpus.admitted", 0), "count"),
        "corpus.rejected": (counters.get("corpus.rejected", 0), "count"),
        "netlist.build_s": (incl("netlist.build"), "s"),
        "netlist.hazard_check_s": (incl("netlist.hazard_check"), "s"),
        "netlist.circuit_states": (counters.get("netlist.circuit_states", 0), "count"),
        "synthesis.synthesize_s": (incl("synthesis.synthesize"), "s"),
        "pipeline.store_put_s": (incl("store.put"), "s"),
        "pipeline.store_put_calls": (calls("store.put"), "count"),
        "pipeline.store_bytes": (counters.get("store.bytes", 0), "bytes"),
        "pipeline.store_get_s": (incl("store.get"), "s"),
        "pipeline.store_get_calls": (calls("store.get"), "count"),
        "verify.demorgan_s": (incl("verify.demorgan"), "s"),
        "trace.unattributed_s": (merged["lifetime_s"] - merged["top_level_s"], "s"),
    }
    for stage in STAGES:
        metrics[f"pipeline.{stage}_self_s"] = (own(f"pipeline.{stage}"), "s")
    return metrics


def per_layer(
    plain: List[PassResult], traced: List[PassResult], imports: List[Dict[str, float]]
) -> Dict[str, tuple]:
    per_pass = [layer_metrics(merge_snapshots(p.snapshots)) for p in traced]
    metrics = {
        name: (median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    for name in ("import.repro_s", "import.numpy_s"):
        metrics[name] = (median(probe[name] for probe in imports), "s")
    overhead = median(p.wall for p in traced) / median(p.wall for p in plain)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


class SetupError(RuntimeError):
    """The program cannot even start: no result is printed."""


def tally(passes: List[PassResult]) -> tuple:
    """(designs attempted, designs failed) over every pass of a run."""
    return sum(len(p.designs) for p in passes), sum(p.failed for p in passes)


# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    spawner = Spawner(work)
    setup_times: List[float] = []
    imports: List[Dict[str, float]] = []
    for probe in range(SETUP_PROBES):
        argv = [sys.executable, "-c", "import repro.cli"]
        if trace:
            argv.insert(1, "-Ximporttime")
        proc = spawner.run(argv, pass_hash_seed(seed, -2 - probe))
        if proc.code != 0:
            raise SetupError(f"cannot import repro.cli: {proc.stderr.strip()[-300:]}")
        setup_times.append(proc.wall)
        if trace:
            imports.append(parse_importtime(proc.stderr))

    runner = WORKLOADS[workload](work, seed, spawner)
    done: List[PassResult] = []
    plain: List[PassResult] = []
    traced: List[PassResult] = []
    started = time.perf_counter()
    rounds = 0
    while True:
        # a round is one pass, or with tracing a plain pass and a traced
        # repeat of it under the same hash seed
        hash_seed = pass_hash_seed(seed, rounds)
        for is_traced in (False, True) if trace else (False,):
            index = len(plain) + len(traced)
            result = PassResult(index=index, hash_seed=hash_seed, traced=is_traced)
            runner.run_pass(result)
            (traced if is_traced else plain).append(result)
            done.append(result)
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / rounds > seconds:
            break

    for result in done:
        print(result.line())
    attempted, failed = tally(done)
    print(
        f"{workload}: {len(plain)} plain and {len(traced)} traced pass(es), "
        f"{attempted} designs, error_rate {failed / max(attempted, 1):.4f}"
    )
    metrics = per_layer(plain, traced, imports) if trace else end_to_end(plain, setup_times)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
