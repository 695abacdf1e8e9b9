"""The perf instrumentation module and the CLI ``--profile`` flag."""

import os
import time

import pytest

from repro import perf
from repro.cli import main


@pytest.fixture(autouse=True)
def _clean_recorder():
    yield
    perf.disable()


def test_disabled_by_default_and_noop():
    assert perf.active() is None
    with perf.phase("anything"):
        pass
    perf.count("anything", 5)  # must not raise with no recorder


def test_phase_and_counters_accumulate():
    recorder = perf.enable()
    with perf.phase("work"):
        time.sleep(0.01)
    with perf.phase("work"):
        pass
    perf.count("ops", 3)
    perf.count("ops")
    assert recorder.phase_calls["work"] == 2
    assert recorder.phases["work"] >= 0.01
    assert recorder.counters["ops"] == 4


def test_timed_decorator():
    recorder = perf.enable()

    @perf.timed("step")
    def step(x):
        return x + 1

    assert step(1) == 2
    assert step(2) == 3
    assert recorder.phase_calls["step"] == 2


def test_as_dict_schema_and_report():
    recorder = perf.enable()
    with perf.phase("alpha"):
        pass
    perf.count("cube.evaluations", 7)
    snapshot = recorder.as_dict()
    assert snapshot["phases"]["alpha"]["calls"] == 1
    assert snapshot["phases"]["alpha"]["seconds"] >= 0
    assert snapshot["counters"]["cube.evaluations"] == 7
    text = recorder.report()
    assert "alpha" in text and "cube.evaluations" in text


def test_enable_returns_fresh_recorder():
    first = perf.enable()
    first.increment("x")
    second = perf.enable()
    assert second.counters == {}
    assert perf.active() is second


SPEC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src",
    "repro",
    "bench",
    "data",
    "delement.g",
)


def test_cli_synth_profile_prints_phases_and_counts(capsys):
    assert main(["synth", SPEC, "--profile"]) == 0
    out = capsys.readouterr().out
    assert "profile:" in out
    assert "insertion" in out and "synthesis" in out
    assert "ms" in out
    assert "cube.evaluations" in out
    assert perf.active() is None  # the flag must not leak a recorder


def test_cli_verify_profile_prints_phases_and_counts(capsys):
    assert main(["verify", SPEC, "--profile"]) == 0
    out = capsys.readouterr().out
    assert "profile:" in out
    assert "hazard-check" in out
    assert "cube.evaluations" in out


def test_increment_is_exact_under_thread_contention():
    import sys
    import threading

    recorder = perf.PerfRecorder()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(
                target=lambda: [recorder.increment("x") for _ in range(50_000)]
            )
            for _ in range(8)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        sys.setswitchinterval(previous)
    assert recorder.counters["x"] == 8 * 50_000


def test_sat_search_counters_are_exact_and_once_per_solve(monkeypatch):
    """Pigeonhole 4-into-3: the solver reports its whole search with one
    ``perf.count`` call per counter per ``solve()``."""
    from repro.sat.solver import Solver

    def var(i, j):
        return i * 3 + j + 1

    clauses = [tuple(var(i, j) for j in range(3)) for i in range(4)]
    for j in range(3):
        for a in range(4):
            for b in range(a + 1, 4):
                clauses.append((-var(a, j), -var(b, j)))
    calls = []
    real_count = perf.count

    def count(name, amount=1):
        calls.append(name)
        real_count(name, amount)

    monkeypatch.setattr(perf, "count", count)
    with perf.recording(perf.PerfRecorder()) as recorder:
        assert Solver(12, clauses).solve() is None
    assert recorder.counters == {
        "sat.decisions": 9,
        "sat.conflicts": 9,
        "sat.learnt": 8,
    }
    assert sorted(calls) == ["sat.conflicts", "sat.decisions", "sat.learnt"]
