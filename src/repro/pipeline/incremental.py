"""Dependency-scoped reuse for delta re-synthesis.

Whole-stage memo keys (``pipeline/core.py``) only help when an edit
leaves a stage's *entire* input untouched.  This module provides the
finer-grained machinery that lets stages reuse the parts of their output
whose actual input cone did not move:

- :func:`signal_region_digest` — a per-signal fingerprint of everything
  :func:`repro.sg.regions.excitation_regions` reads: the excited state
  sets of both directions, their BFS discovery ranks (component
  numbering) and the adjacency among excited states (component
  splitting).  Equal digests ⇒ the signal's ER list is identical.
- :func:`function_digest` — a per-``a+``/``a-`` fingerprint of the full
  input cone of the MC verdict search in ``core/mc.py`` /
  ``core/covers.py``: state values on the ordered-signal columns, the
  paper's four value sets, each region's states / CFR / minimal states /
  ordered signals / smallest cover cube, and the CFR-internal arcs the
  rise-edge monotonicity checks walk.  Equal digests ⇒ recomputing the
  function's verdicts would reproduce them bit-for-bit, so the cached
  verdicts are adopted instead.  (When a smallest cover cube exceeds the
  exhaustive-search literal budget the greedy fallback becomes sensitive
  to global state order, so the digest then also pins that order.)
- :func:`adoptable_regions` / :func:`adoptable_verdicts` — compare the
  digests of the base and the edited graph, computed on demand in delta
  runs only, and return what the edited run may adopt.
- :class:`IncrementalIndex` — per-:class:`AnalysisContext` cache of
  reachability :class:`~repro.stg.reachability.ExplorationSnapshot` s
  (keyed by STG fingerprint) and of insertion-search MC analyses (keyed
  by expanded-graph fingerprint).

The digests are *sufficient* conditions for reuse, never necessary
ones: a missed reuse costs time, an adopted reuse is provably identical
to a recomputation — byte-identity of incremental artifacts is the
invariant everything here preserves.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple

from repro.sg.graph import StateGraph
from repro.sg.regions import (
    ExcitationRegion,
    _bfs_ranks,
    constant_function_region,
    excited_value_sets,
    minimal_states,
    ordered_signals,
)

__all__ = [
    "IncrementalIndex",
    "adoptable_regions",
    "adoptable_verdicts",
    "signal_region_digest",
    "region_signal_fingerprints",
    "function_digest",
    "function_fingerprints",
    "function_name",
]

# Mirrors find_monotonous_cover(max_literal_budget=18): above it the
# greedy fallback's rise-edge witnesses depend on global state order.
_EXACT_SEARCH_LITERAL_BUDGET = 18


def _digest(parts) -> str:
    from repro.pipeline.artifacts import _digest as chain_digest

    return chain_digest(*parts)


def function_name(signal: str, direction: int) -> str:
    """The ``a+`` / ``a-`` key used for per-function fingerprints."""
    return f"{signal}{'+' if direction == 1 else '-'}"


# ----------------------------------------------------------------------
# Per-signal region digests
# ----------------------------------------------------------------------
def signal_region_digest(sg: StateGraph, signal: str) -> str:
    """Fingerprint of the inputs of ``excitation_regions(sg, signal)``.

    Captures, per direction: the excited states at the pre-transition
    value with their BFS discovery ranks (which order the components and
    assign occurrence indices), and the arcs among those states (which
    split them into weakly connected components).
    """
    position = sg.signal_position(signal)
    ranks = _bfs_ranks(sg)
    index = sg.state_index
    parts: List[str] = [signal]
    for direction in (+1, -1):
        before = 0 if direction == 1 else 1
        excited = {
            state
            for state in sg.state_list
            if sg.code(state)[position] == before and sg.is_excited(state, signal)
        }
        members = sorted(f"{state!r}@{ranks[index[state]]}" for state in excited)
        edges = sorted(
            f"{source!r}~{target!r}"
            for source in excited
            for _, target in sg.arcs_from(source)
            if target in excited
        )
        parts.append("+" if direction == 1 else "-")
        parts.extend(members)
        parts.append("|")
        parts.extend(edges)
    return _digest(parts)


def region_signal_fingerprints(sg: StateGraph) -> Tuple[Tuple[str, str], ...]:
    """``(signal, digest)`` pairs for every non-input signal, sorted."""
    return tuple(
        (signal, signal_region_digest(sg, signal))
        for signal in sorted(sg.non_inputs)
    )


# ----------------------------------------------------------------------
# Per-function MC digests
# ----------------------------------------------------------------------
def function_digest(
    sg: StateGraph,
    signal: str,
    direction: int,
    ers: Sequence[ExcitationRegion],
) -> str:
    """Fingerprint of the input cone of one function's MC verdicts.

    The verdict search (``core/mc.py`` → ``core/covers.py``) reads, for
    the regions of ``signal``/``direction``: state values on the
    ordered-signal columns over *all* states (cover-cube coverage and
    outside-CFR exclusion), the four excited value sets of the signal
    (forbidden bitsets and stuck classification), each region's states,
    CFR, minimal states, ordered signals and smallest cover cube, and
    the arcs incident to the CFR (rise-edge monotonicity).  All of that
    is digested here; the expensive cover-lattice search is *not* run.
    """
    parts: List[str] = [function_name(signal, direction)]

    columns = {signal}
    for er in ers:
        columns.update(ordered_signals(sg, er))
    ordered_columns = sorted(columns)
    parts.append("cols:" + ",".join(ordered_columns))

    positions = [sg.signal_position(s) for s in ordered_columns]
    for state in sorted(sg.state_list, key=repr):
        code = sg.code(state)
        parts.append(f"{state!r}=" + "".join(str(code[i]) for i in positions))

    value_sets = excited_value_sets(sg, signal)
    for set_name in ("0-set", "0*-set", "1-set", "1*-set"):
        parts.append(set_name)
        parts.extend(sorted(repr(state) for state in value_sets[set_name]))

    from repro.core.covers import smallest_cover_cube

    all_arcs = sg.arcs()
    pin_state_order = False
    for er in ers:
        cfr = constant_function_region(sg, er)
        cube = smallest_cover_cube(sg, er)
        if len(cube.literals) > _EXACT_SEARCH_LITERAL_BUDGET:
            pin_state_order = True
        parts.append("er:" + er.transition_name)
        parts.extend(sorted(repr(state) for state in er.states))
        parts.append("cfr")
        parts.extend(sorted(repr(state) for state in cfr))
        parts.append("min")
        parts.extend(sorted(repr(state) for state in minimal_states(sg, er)))
        parts.append("ord:" + ",".join(sorted(ordered_signals(sg, er))))
        parts.append(
            "scc:" + ",".join(f"{s}={v}" for s, v in cube.literals)
        )
        parts.append("arcs")
        parts.extend(
            sorted(
                f"{source!r}>{event}>{target!r}"
                for source, event, target in all_arcs
                if source in cfr or target in cfr
            )
        )
    if pin_state_order:
        # greedy fallback territory: witnesses follow global state order
        parts.append("order:" + "|".join(repr(s) for s in sg.state_list))
    return _digest(parts)


def function_fingerprints(
    sg: StateGraph, regions: Sequence[ExcitationRegion]
) -> Tuple[Tuple[str, str], ...]:
    """``(function, digest)`` pairs for every (signal, direction) group.

    Groups and orders exactly like ``core.mc.analyze_mc`` so the pairs
    line up with the verdict assembly order.
    """
    by_function: Dict[Tuple[str, int], List[ExcitationRegion]] = {}
    for er in regions:
        by_function.setdefault((er.signal, er.direction), []).append(er)
    return tuple(
        (function_name(signal, direction), function_digest(sg, signal, direction, ers))
        for (signal, direction), ers in sorted(by_function.items())
    )


# ----------------------------------------------------------------------
# Delta adoption: what a base run's artifacts can lend the edited run
# ----------------------------------------------------------------------
def adoptable_regions(base_sg: StateGraph, base_regions, sg: StateGraph) -> Dict:
    """Signal -> base ER list, for the signals whose digest did not move.

    Digests are computed here, for the base and the edited graph alike:
    only delta runs read them, so no artifact carries them.
    """
    same = set(region_signal_fingerprints(sg)) & set(region_signal_fingerprints(base_sg))
    same = {signal for signal, _ in same}
    adopted: Dict[str, List[ExcitationRegion]] = {}
    for er in base_regions:
        if er.signal in same:
            adopted.setdefault(er.signal, []).append(er)
    return adopted


def adoptable_verdicts(base_sg, base_regions, base_report, sg, regions) -> Dict:
    """``(signal, direction)`` -> base verdicts, for the functions whose
    digest did not move (the ``analyze_mc(reuse=...)`` map)."""
    same = set(function_fingerprints(sg, regions))
    same = {name for name, _ in same & set(function_fingerprints(base_sg, base_regions))}
    adopted: Dict[Tuple[str, int], list] = {}
    for verdict in base_report.verdicts:
        er = verdict.er
        if function_name(er.signal, er.direction) in same:
            adopted.setdefault((er.signal, er.direction), []).append(verdict)
    return adopted


# ----------------------------------------------------------------------
# Context-scoped caches
# ----------------------------------------------------------------------
class _LRU:
    """Small insertion-order LRU used by :class:`IncrementalIndex`."""

    def __init__(self, capacity: int):
        self.capacity = max(1, int(capacity))
        self._entries: "OrderedDict" = OrderedDict()

    def get(self, key, default=None):
        entry = self._entries.get(key)
        if entry is None:
            return default
        self._entries.move_to_end(key)
        return entry

    def __setitem__(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


class IncrementalIndex:
    """Delta-reuse state carried by an :class:`AnalysisContext`.

    ``reach`` maps STG fingerprints to exploration snapshots (for replay
    on edited nets); ``insertion_cache`` maps expanded-state-graph
    fingerprints to ``(graph, MCReport)`` pairs so the insertion beam
    search skips re-analyzing candidates it (or a previous edit's
    search) has already scored.
    """

    def __init__(self, max_snapshots: int = 8, max_insertion_entries: int = 128):
        self._reach = _LRU(max_snapshots)
        self.insertion_cache = _LRU(max_insertion_entries)

    def reach_snapshot(self, stg_fingerprint: str):
        return self._reach.get(stg_fingerprint)

    def put_reach_snapshot(self, stg_fingerprint: str, snapshot) -> None:
        self._reach[stg_fingerprint] = snapshot
