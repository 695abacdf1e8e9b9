"""The production analysis engine: big-int bitset MC analysis.

A thin adapter giving :func:`repro.core.mc.analyze_mc` -- the packed
state-code engine of :mod:`repro.sg.bitengine` -- the ``name`` /
``analyze_mc`` shape the pipeline expects of an engine.  Every pipeline
runs it unless a differential check asks for the ``reference`` oracle.
"""

from __future__ import annotations

from repro import perf
from repro.core.mc import MCReport, analyze_mc
from repro.sg.graph import StateGraph


class BitengineBackend:
    """Bitmask fast path (the synthesis engine the paper's tables use)."""

    name = "bitengine"
    #: accepts analyze_mc(reuse=...) with previously computed per-function
    #: verdicts (delta re-synthesis); see pipeline/incremental.py
    supports_reuse = True

    def analyze_mc(self, sg: StateGraph, reuse=None) -> MCReport:
        perf.count("backend.bitengine.analyze_mc")
        return analyze_mc(sg, reuse=reuse)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<analysis engine bitengine>"
