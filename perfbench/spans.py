"""Outside-in span recorder: nested spans with inclusive and self time.

The benchmark never edits the program.  Instead :func:`wrap_function`
and :func:`wrap_method` replace public entry points with wrappers that
open a span around the original call.  A span's *self* time is its
inclusive time minus the inclusive time of its direct child spans.

Spans are aggregated in memory by name (calls, inclusive, self) and by
``(parent, name)`` edge (calls), and written out once, when the process
ends.  A call into a span name that is already open (recursion, or
``load_g`` calling ``parse_g`` under one name) merges into the
outermost span, so no time is counted twice.

The recorder is single-threaded by design: the traced workloads run
the program's code on one thread per process.  Worker processes forked
from a traced process get a fresh recorder state through
:func:`multiprocessing.util.register_after_fork` and dump their own
file when they exit.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: name of the parent of a top-level span in the edge table
ROOT = ""

_MERGED = object()  # stack marker for a call merged into an open span


class SpanRecorder:
    """Aggregated nested spans plus named counters for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.started = self.clock()
        #: open spans: [name, start, child inclusive time]
        self._stack: List[list] = []
        self._open: Dict[str, int] = {}
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: (parent name, name) -> calls
        self.edges: Dict[Tuple[str, str], int] = {}
        self.counters: Dict[str, float] = {}
        #: summed inclusive time of spans opened with no span open
        self.top_level = 0.0
        #: per-design oracle verdicts (see perfbench.probes)
        self.oracle: List[dict] = []

    # ------------------------------------------------------------------
    def enter(self, name: str) -> None:
        if self._open.get(name):
            self._stack.append(_MERGED)
            return
        self._open[name] = 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        frame = self._stack.pop()
        if frame is _MERGED:
            return
        name, start, children = frame
        elapsed = self.clock() - start
        self._open[name] = 0
        parent = ROOT
        for outer in reversed(self._stack):
            if outer is not _MERGED:
                outer[2] += elapsed
                parent = outer[0]
                break
        else:
            self.top_level += elapsed
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - children
        self.edges[(parent, name)] = self.edges.get((parent, name), 0) + 1

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Everything recorded so far, as JSON-ready data."""
        return {
            "pid": os.getpid(),
            "lifetime_s": self.clock() - self.started,
            "top_level_s": self.top_level,
            "spans": {
                name: {"calls": calls, "inclusive_s": incl, "self_s": own}
                for name, (calls, incl, own) in sorted(self.totals.items())
            },
            "edges": [
                [parent, name, calls]
                for (parent, name), calls in sorted(self.edges.items())
            ],
            "counters": dict(sorted(self.counters.items())),
            "oracle": list(self.oracle),
        }

    def dump(self, directory: str) -> str:
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        return path

    def dump_in_forked_children(self, directory: str) -> None:
        """Make every process forked from this one dump its own spans.

        multiprocessing clears its finalizer registry in a new child and
        then runs the after-fork hooks, so the exit-time dump is
        registered from such a hook.
        """
        self._fork_dir = directory
        multiprocessing.util.register_after_fork(self, SpanRecorder._after_fork)

    def _after_fork(self) -> None:
        self.reset()
        multiprocessing.util.Finalize(
            None, self.dump, args=(self._fork_dir,), exitpriority=100
        )


class _Span:
    __slots__ = ("recorder", "name")

    def __init__(self, recorder: SpanRecorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> None:
        self.recorder.enter(self.name)

    def __exit__(self, *exc) -> None:
        self.recorder.exit()


# ----------------------------------------------------------------------
# Wrapping entry points
# ----------------------------------------------------------------------
After = Callable[[SpanRecorder, tuple, dict, object], None]


def _spanned(
    recorder: SpanRecorder,
    original: Callable,
    name,
    after: Optional[After],
) -> Callable:
    naming = name if callable(name) else None

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        recorder.enter(naming(args, kwargs) if naming else name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.exit()
        if after is not None:
            after(recorder, args, kwargs, result)
        return result

    return wrapper


def wrap_function(
    recorder: SpanRecorder,
    module,
    attr: str,
    name,
    after: Optional[After] = None,
    package: str = "repro",
) -> int:
    """Wrap ``module.attr`` at every module of ``package`` binding it.

    ``from m import f`` copies ``f`` into the importing module, so the
    wrapper replaces every loaded module attribute that *is* the
    original function.  Imports made inside function bodies read the
    defining module at call time and so see the wrapper as well.
    Returns the number of bindings replaced.
    """
    original = getattr(module, attr)
    wrapper = _spanned(recorder, original, name, after)
    replaced = 0
    for module_name, loaded in list(sys.modules.items()):
        if loaded is None or not (
            module_name == package or module_name.startswith(package + ".")
        ):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)
                replaced += 1
    return replaced


def wrap_method(
    recorder: SpanRecorder,
    cls: type,
    attr: str,
    name,
    after: Optional[After] = None,
) -> None:
    """Wrap the method ``cls.attr`` for every instance and caller."""
    setattr(cls, attr, _spanned(recorder, cls.__dict__[attr], name, after))


def merge_snapshots(snapshots: List[dict]) -> dict:
    """Sum per-process snapshots into one pass-wide view."""
    spans: Dict[str, Dict[str, float]] = {}
    edges: Dict[Tuple[str, str], int] = {}
    counters: Dict[str, float] = {}
    oracle: List[dict] = []
    lifetime = top_level = 0.0
    for snap in snapshots:
        lifetime += snap["lifetime_s"]
        top_level += snap["top_level_s"]
        for name, entry in snap["spans"].items():
            total = spans.setdefault(
                name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
            )
            for key in total:
                total[key] += entry[key]
        for parent, name, calls in snap["edges"]:
            edges[(parent, name)] = edges.get((parent, name), 0) + calls
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + value
        oracle.extend(snap["oracle"])
    return {
        "lifetime_s": lifetime,
        "top_level_s": top_level,
        "spans": spans,
        "edges": edges,
        "counters": counters,
        "oracle": oracle,
    }
