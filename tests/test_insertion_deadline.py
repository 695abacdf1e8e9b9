"""A wall-clock budget reaches state-signal insertion.

``verify --budget-seconds``, ``batch --timeout-seconds`` and a service
job's ``budget_seconds`` hand the time left to the insertion search as a
deadline; an expired deadline is :class:`InsertionDeadlineExpired`, whose
verdict is *inconclusive* (exit 3), not a synthesis failure.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro import STATUS_FAILED, STATUS_INCONCLUSIVE, verdict_of_error
from repro.cli import main
from repro.core.insertion import (
    InsertionDeadlineExpired,
    InsertionError,
    insert_state_signals,
)
from repro.stg.parser import load_g
from repro.stg.reachability import stg_to_state_graph
from repro.verify.differential import diff_state_graph


#: ``corpus-00028-free_choice``, the 29th design of the corpus spec
#: ``{"schema": "repro-corpus-spec/1", "count": 60, "seed": 2026}``: 48
#: states and 17 signals, whose state-signal insertion runs for minutes
CORPUS_00028_G = """\
.model corpus-00028-free_choice
.inputs d0 d1 d2 d3 r u0a u0b u1a u1b
.outputs a g0 g1 q0 q1 q2 q3 q4
.graph
a+ r-
a- r+
d0+ q0-
d0- u1a-
d1+ q1-
d1- u1b-
d2+ q2-
d2- q4-
d3+ q3-
d3- q4-
g0+ pc0
g0- a+
g1+ pc1
g1- u0a-
pc0 u0a+
pc0 u0b+
pc1 u1a+
pc1 u1b+
pm0 g0-
pm1 g1-
q0+ d0+
q0- d0-
q1+ d1+
q1- d1-
q2+ d2+
q2- d2-
q3+ d3+
q3- d3-
q4+ q2+
q4+ q3+
q4- u0b-
r+ g0+
r- a-
u0a+ g1+
u0a- pm0
u0b+ q4+
u0b- pm0
u1a+ q0+
u1a- pm1
u1b+ q1+
u1b- pm1
.marking { <a-,r+> }
.end
"""


@pytest.fixture
def slow_insertion_spec(tmp_path):
    path = tmp_path / "corpus-00028-free_choice.g"
    path.write_text(CORPUS_00028_G)
    return str(path)


class TestInsertionDeadline:
    def test_past_deadline_raises_the_deadline_error(self, slow_insertion_spec):
        sg = stg_to_state_graph(load_g(slow_insertion_spec))
        with pytest.raises(InsertionDeadlineExpired) as info:
            insert_state_signals(sg, deadline=time.monotonic() - 1.0)
        assert isinstance(info.value, InsertionError)
        assert str(info.value).startswith("insertion deadline expired")

    def test_deadline_error_is_inconclusive(self):
        expired = verdict_of_error(InsertionDeadlineExpired("out of time"))
        assert (expired.status, expired.detail) == (STATUS_INCONCLUSIVE, "out of time")
        assert verdict_of_error(InsertionError("no labelling")).status == STATUS_FAILED

    def test_differential_tolerates_the_deadline_error(
        self, slow_insertion_spec, monkeypatch
    ):
        """The repair cross-check reads the error's type, not its text."""
        def expire(sg, deadline=None, **options):
            raise InsertionDeadlineExpired("out of time")

        monkeypatch.setattr("repro.core.insertion.insert_state_signals", expire)
        sg = stg_to_state_graph(load_g(slow_insertion_spec))
        record = diff_state_graph(sg, repair=True)
        assert not record.satisfied
        assert record.mismatches == []
        assert record.repair_note == "out of time"

    def test_verify_budget_seconds_exits_inconclusive(self, slow_insertion_spec):
        started = time.monotonic()
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "verify", slow_insertion_spec,
                "--budget-seconds", "2",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(
                os.environ,
                PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"),
            ),
        )
        assert result.returncode == 3, result.stderr
        lines = [line for line in result.stderr.splitlines() if "inconclusive" in line]
        assert len(lines) == 1
        assert "insertion deadline expired" in lines[0]
        assert time.monotonic() - started < 60

    def test_batch_timeout_row_is_inconclusive(self, slow_insertion_spec, capsys):
        assert main(["batch", slow_insertion_spec, "--timeout-seconds", "2"]) == 3
        out = capsys.readouterr().out
        manifest = json.loads(out[out.index("{"):])
        (row,) = manifest["designs"]
        assert row["status"] == "inconclusive"
        assert row["detail"].startswith("insertion deadline expired")
