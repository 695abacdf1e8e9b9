"""Lightweight performance instrumentation: phase timers and op counters.

The synthesis pipeline runs in distinct phases (reachability -> regions
-> MC analysis -> insertion -> netlist -> hazard check) whose relative
cost shifts dramatically with the workload shape: `concurrent_fork(n)`
explodes the state count, `alternator(n)` the SAT search.  This module
provides a zero-dependency recorder so every phase can report wall time
and primitive-operation counts (candidate cubes examined, bitmask cube
evaluations, monotonicity checks) without a profiler run.

Design constraints:

* **Off by default, near-zero cost when off.**  Each instrumentation
  point is a module-level ``None`` check; hot loops batch their counts
  and report once per call rather than once per candidate.
* **No global state leakage between runs.**  ``enable()`` installs a
  fresh recorder and returns it; ``disable()`` detaches it.  Library
  code never enables recording on its own -- the CLI ``--profile`` flag
  and the benchmark harnesses do.

Usage::

    from repro import perf

    recorder = perf.enable()
    with perf.phase("mc-analysis"):
        report = analyze_mc(sg)
    print(recorder.report())
    perf.disable()

or as a decorator::

    @perf.timed("reachability")
    def explore(stg): ...
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Optional


class PerfRecorder:
    """Accumulates per-phase wall times and named counters.

    Updates are serialised by one lock: the installed recorder is
    process-global, so any threads running while it is installed (the
    job server's thread-mode workers, for one) report into it
    concurrently, and an unlocked read-modify-write of a shared dict
    loses updates.
    """

    __slots__ = ("phases", "phase_calls", "counters", "_lock")

    def __init__(self) -> None:
        #: phase name -> total wall seconds (re-entrant phases accumulate)
        self.phases: Dict[str, float] = {}
        #: phase name -> number of completed enter/exit pairs
        self.phase_calls: Dict[str, int] = {}
        #: counter name -> running total
        self.counters: Dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def add_phase(self, name: str, seconds: float) -> None:
        with self._lock:
            self.phases[name] = self.phases.get(name, 0.0) + seconds
            self.phase_calls[name] = self.phase_calls.get(name, 0) + 1

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Dict]:
        """Machine-readable snapshot (the BENCH_pipeline.json payload)."""
        return {
            "phases": {
                name: {
                    "seconds": self.phases[name],
                    "calls": self.phase_calls.get(name, 0),
                }
                for name in sorted(self.phases)
            },
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
        }

    def report(self) -> str:
        """Human-readable table of phases and counters."""
        lines = ["profile:"]
        if self.phases:
            width = max(len(name) for name in self.phases)
            for name in sorted(self.phases, key=self.phases.get, reverse=True):
                lines.append(
                    f"  {name:<{width}}  {self.phases[name] * 1000:>10.2f} ms"
                    f"  ({self.phase_calls.get(name, 0)} call"
                    f"{'s' if self.phase_calls.get(name, 0) != 1 else ''})"
                )
        else:
            lines.append("  (no phases recorded)")
        if self.counters:
            lines.append("counters:")
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(f"  {name:<{width}}  {self.counters[name]:>12}")
        return "\n".join(lines)


#: the active recorder, or ``None`` when instrumentation is off
_recorder: Optional[PerfRecorder] = None


def enable() -> PerfRecorder:
    """Install (and return) a fresh active recorder."""
    global _recorder
    _recorder = PerfRecorder()
    return _recorder


def disable() -> None:
    """Detach the active recorder; instrumentation points become no-ops."""
    global _recorder
    _recorder = None


def active() -> Optional[PerfRecorder]:
    """The currently installed recorder, if any."""
    return _recorder


@contextmanager
def recording(recorder: Optional[PerfRecorder]):
    """Install ``recorder`` for the duration of the block, then restore.

    ``None`` leaves the currently active recorder in place (the block is
    a no-op), so callers can thread an *optional* recorder without
    branching.  This is the supported way to scope instrumentation to
    one run -- harnesses must not assign ``perf._recorder`` directly.
    """
    global _recorder
    if recorder is None:
        yield None
        return
    previous = _recorder
    _recorder = recorder
    try:
        yield recorder
    finally:
        _recorder = previous


@contextmanager
def phase(name: str):
    """Context manager timing one pipeline phase (no-op when disabled)."""
    recorder = _recorder
    if recorder is None:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        recorder.add_phase(name, time.perf_counter() - started)


def timed(name: str) -> Callable:
    """Decorator form of :func:`phase`."""

    def decorate(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            recorder = _recorder
            if recorder is None:
                return function(*args, **kwargs)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                recorder.add_phase(name, time.perf_counter() - started)

        return wrapper

    return decorate


def count(name: str, amount: int = 1) -> None:
    """Add to a named counter (no-op when disabled).

    Hot loops should accumulate locally and call this once per search,
    not once per candidate.
    """
    recorder = _recorder
    if recorder is not None:
        recorder.increment(name, amount)
