"""The Table-1 circuits are fixed: golden netlists, independent of the hash seed.

``tests/goldens/<design>.json`` is what ``repro-si synth <design>.g
--save-netlist`` writes for each of the paper's nine controllers.  Every
golden adds the paper's number of state signals and passes both the
speed-independence check and the DeMorgan oracle.  The circuit depends
on the specification only, so two processes with different
``PYTHONHASHSEED`` values write the same bytes.

To regenerate after an intended circuit change, run ``repro-si synth
src/repro/bench/data/<design>.g --save-netlist tests/goldens/<design>.json``
for each design and review the diff.
"""

import os
import subprocess
import sys

import pytest

from repro import synthesize_from_stg
from repro.bench.suite import BENCHMARKS, load_benchmark, paper_row
from repro.netlist.io import netlist_to_json
from repro.verify.hazard_free import demorgan_check

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS = os.path.join(REPO, "tests", "goldens")
DATA = os.path.join(REPO, "src", "repro", "bench", "data")


def _golden(name: str) -> str:
    with open(os.path.join(GOLDENS, f"{name}.json"), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_netlist_equals_golden(name):
    result = synthesize_from_stg(load_benchmark(name))
    assert netlist_to_json(result.netlist) == _golden(name)
    assert len(result.insertion.added_signals) == paper_row(name)[2]
    assert result.hazard_report.hazard_free
    report = demorgan_check(result.implementation)
    assert report.hazard_free and report.conclusive


def _synth_bytes(name: str, hash_seed: str, tmp_path) -> str:
    out = tmp_path / f"{name}-{hash_seed}.json"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "synth",
         os.path.join(DATA, f"{name}.g"), "--save-netlist", str(out)],
        check=True, capture_output=True, env=env, cwd=REPO,
    )
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["berkel3", "ganesh8"])
def test_synth_bytes_do_not_depend_on_the_hash_seed(name, tmp_path):
    """The two designs whose circuits used to vary with the hash seed."""
    first = _synth_bytes(name, "0", tmp_path)
    second = _synth_bytes(name, "7", tmp_path)
    assert first == second
    assert first == _golden(name)
