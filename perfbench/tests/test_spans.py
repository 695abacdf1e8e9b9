"""Self-time arithmetic of the span recorder on synthetic call trees."""

import types

import pytest

from spans import SpanRecorder, merge_snapshots, wrap_function


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("a"):  # a: 1 + [b: 2 + [c: 3] + 1] + [c: 4] + 5
        clock.advance(1)
        with rec.span("b"):
            clock.advance(2)
            with rec.span("c"):
                clock.advance(3)
            clock.advance(1)
        with rec.span("c"):
            clock.advance(4)
        clock.advance(5)
    snap = rec.snapshot()
    spans = snap["spans"]
    assert spans["a"] == {"calls": 1, "inclusive_s": 16, "self_s": 6}
    assert spans["b"] == {"calls": 1, "inclusive_s": 6, "self_s": 3}
    assert spans["c"] == {"calls": 2, "inclusive_s": 7, "self_s": 7}
    assert snap["top_level_s"] == 16
    assert sorted(map(tuple, snap["edges"])) == [("", "a", 1), ("a", "b", 1), ("a", "c", 1), ("b", "c", 1)]


def test_nested_same_name_merges_into_outermost():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("load"):
        clock.advance(1)
        with rec.span("load"):
            clock.advance(2)
            with rec.span("parse"):
                clock.advance(3)
    spans = rec.snapshot()["spans"]
    assert spans["load"] == {"calls": 1, "inclusive_s": 6, "self_s": 3}
    assert spans["parse"] == {"calls": 1, "inclusive_s": 3, "self_s": 3}


def test_span_closes_on_exception_and_unattributed_remainder():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    clock.advance(2)  # outside every span
    with pytest.raises(ValueError):
        with rec.span("a"):
            clock.advance(3)
            raise ValueError
    clock.advance(1)
    snap = rec.snapshot()
    assert snap["spans"]["a"]["inclusive_s"] == 3
    assert snap["lifetime_s"] - snap["top_level_s"] == 3


def test_wrap_function_rebinds_every_importer():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    import sys

    def work(x):
        clock.advance(x)
        return x * 2

    defining = types.ModuleType("fakepkg.defs")
    importer = types.ModuleType("fakepkg.user")
    defining.work = importer.work = work
    sys.modules.update({"fakepkg.defs": defining, "fakepkg.user": importer})
    seen = []
    try:
        replaced = wrap_function(
            rec, defining, "work", "w",
            after=lambda r, args, kwargs, result: seen.append(result),
            package="fakepkg",
        )
        assert replaced == 2
        assert importer.work(4) == 8 and defining.work(1) == 2
    finally:
        del sys.modules["fakepkg.defs"], sys.modules["fakepkg.user"]
    assert seen == [8, 2]
    assert rec.snapshot()["spans"]["w"] == {"calls": 2, "inclusive_s": 5, "self_s": 5}


def test_merge_sums_processes():
    clock = FakeClock()
    first, second = SpanRecorder(clock), SpanRecorder(clock)
    for rec, seconds in ((first, 1), (second, 2)):
        with rec.span("a"):
            clock.advance(seconds)
        rec.count("n", seconds)
    merged = merge_snapshots([first.snapshot(), second.snapshot()])
    assert merged["spans"]["a"] == {"calls": 2, "inclusive_s": 3, "self_s": 3}
    assert merged["counters"] == {"n": 3}
    assert merged["edges"] == {("", "a"): 2}
