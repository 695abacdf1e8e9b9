"""One forced failure counts as one failed design, never as a traceback."""

import json

import run
from run import Batch, PassResult, Proc, Table1Cold, tally


def synth_stdout(added: int) -> str:
    inserted = f"{added} state signal(s) inserted: x\n" if added else ""
    return (
        f"{inserted}a = C(b, c)\n\n# netlist d_cimpl: inputs b\na = C(b, c)\n\n"
        "speed-independence check: d_cimpl vs d: HAZARD-FREE\n"
    )


class FakeSpawner:
    """Answers every synth with the paper's count; one design crashes."""

    def __init__(self, crash: str):
        self.crash = crash

    def run(self, argv, hash_seed):
        name = argv[-2].rsplit("/", 1)[-1][: -len(".g")]
        if name == self.crash:
            return Proc(0.5, 1, "", "Traceback (most recent call last): ...", 50.0)
        return Proc(0.5, 0, synth_stdout(run.TABLE1[name]), "", 50.0)


def test_table1_crash_is_one_failed_design(tmp_path):
    workload = Table1Cold(str(tmp_path), 0, FakeSpawner(crash="nowick"))
    result = PassResult(index=0, hash_seed=1, traced=False)
    workload.run_pass(result)
    assert tally([result]) == (9, 1)
    problems = result.designs["nowick"]["problems"]
    assert problems[0].startswith("exit code 1")
    assert "SI verdict None" in problems and "added 0 signal(s), paper 1" in problems
    assert result.gates == 8


def write_manifest(tmp_path, rows):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"designs": rows}))
    stats = tmp_path / "s.json"
    stats.write_text(json.dumps({"seconds_by_design": {r["name"]: 0.1 for r in rows}}))
    return str(manifest), str(stats)


def row(name, status="hazard-free", added=()):
    return {
        "name": name, "status": status, "detail": "", "added_signals": list(added),
        "gates": 3, "equations": "a = b",
    }


def test_batch_rows_and_missing_manifest(tmp_path, monkeypatch):
    monkeypatch.setitem(run.CORPUS, "count", 3)
    workload = Batch(str(tmp_path), 7, spawner=None)
    clean = PassResult(index=0, hash_seed=1, traced=False)
    manifest, stats = write_manifest(
        tmp_path, [row("s7-00000-a"), row("s7-00001-b", added=["x"]), row("s7-00002-c")]
    )
    names, _ = workload.check_manifest(clean, "cold", Proc(1.0, 0, "", "", 60.0), manifest, stats)
    assert names == ["s7-00000-a", "s7-00001-b", "s7-00002-c"]
    assert tally([clean]) == (3, 1)
    assert clean.gates == 9

    short = PassResult(index=1, hash_seed=1, traced=False)
    manifest, stats = write_manifest(
        tmp_path, [row("s7-00000-a"), row("s7-00001-b", status="error")]
    )
    workload.check_manifest(short, "warm", Proc(1.0, 1, "", "", 60.0), manifest, stats)
    # both rows fail on the batch's non-zero exit; the third design is missing
    assert tally([short]) == (3, 3)
    assert short.designs["warm/s7-missing-2"]["problems"] == ["design missing from the manifest"]
    assert short.gates == 0  # warm sweeps read netlists, they do not make them

    crashed = PassResult(index=2, hash_seed=1, traced=False)
    absent = str(tmp_path / "absent.json")
    workload.check_manifest(crashed, "cold", Proc(1.0, 1, "", "", 60.0), absent, absent)
    assert tally([clean, short, crashed]) == (9, 7)
