"""The retained pure-reference analysis path (pre-bitengine semantics).

The bitmask engine (:mod:`repro.sg.bitengine`) rewrote every hot
primitive of the cover machinery -- cube evaluation, correctness
filtering, monotonicity scanning -- as big-int bitset arithmetic.  This
module retains the original dictionary-based semantics of
:mod:`repro.core.covers` and :mod:`repro.core.mc` exactly as they stood
before that rewrite: every predicate is decided by walking states and
evaluating ``Cube.covers`` on ``sg.code_dict``, with no shared code on
the bitengine path and no reads of the packed-state caches.

It exists for one purpose: to be the independent oracle the
differential-verification campaign (:mod:`repro.verify.differential`)
diffs the fast path against.  It is deliberately slow, and it is
reachable only as the ``reference`` analysis engine
(:class:`ReferenceBackend`, via ``get_backend("reference")``); nothing
on the bitengine path may import it.

Equivalence is claim-for-claim, not merely verdict-for-verdict: the
candidate enumeration orders (smallest-first subsets of the smallest
cover cube's literal tuple, finest-first region partitions) mirror the
fast path, so both paths must select the *same* cube for every region,
agree on sharing groups, and report identical stuck-state diagnostics.
The only freedom the fast path's data layout introduced -- which
0 -> 1 change edge a greedy wide-region search picks as its witness --
is pinned here to the same canonical order (``sg.state_list`` position,
highest-index successor) so that even the >18-literal fallback remains
bit-for-bit comparable.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro import perf
from repro.boolean.cube import Cube
from repro.core.covers import CoverDiagnostics
from repro.core.mc import MCReport, RegionVerdict, _classify_stuck
from repro.sg.graph import State, StateGraph
from repro.sg.regions import (
    ExcitationRegion,
    all_excitation_regions,
    constant_function_region,
    excited_value_sets,
    has_unique_entry,
    ordered_signals,
)


# ----------------------------------------------------------------------
# Cover cubes (Definition 15, Lemma 3)
# ----------------------------------------------------------------------
def smallest_cover_cube(sg: StateGraph, er: ExcitationRegion) -> Cube:
    """The maximal-literal cover cube of the region (Lemma 3)."""
    some_state = next(iter(er.states))
    literals = {}
    for signal in ordered_signals(sg, er):
        literals[signal] = sg.value(some_state, signal)
    return Cube(literals)


def _is_sub_cover(sg: StateGraph, er: ExcitationRegion, cube: Cube) -> bool:
    smallest = smallest_cover_cube(sg, er)
    for signal, value in cube.literals:
        if smallest.value_of(signal) != value:
            return False
    return True


# ----------------------------------------------------------------------
# Correct covering (Definition 16)
# ----------------------------------------------------------------------
def covers_correctly(sg: StateGraph, er: ExcitationRegion, cube: Cube) -> bool:
    """Definition 16 by brute force over the forbidden value sets."""
    sets = excited_value_sets(sg, er.signal)
    if er.direction == 1:
        forbidden = sets["1*-set"] | sets["0-set"]
    else:
        forbidden = sets["0*-set"] | sets["1-set"]
    return not any(cube.covers(sg.code_dict(state)) for state in forbidden)


# ----------------------------------------------------------------------
# Monotonous covers (Definition 17)
# ----------------------------------------------------------------------
def _monotonicity_violation(
    sg: StateGraph, cfr: FrozenSet[State], cube: Cube
) -> Optional[Tuple[State, State, State, State]]:
    """First 0 -> 1 change edge inside the CFR, in canonical order.

    The canonical order -- 0-states scanned by their ``sg.state_list``
    position, the highest-positioned 1-successor chosen -- matches the
    fast path's bit-scan order exactly, so greedy searches seeded by
    this witness drop the same literals on both paths.
    """
    position = {state: i for i, state in enumerate(sg.state_list)}
    values = {s: cube.covers(sg.code_dict(s)) for s in cfr}
    for state in sorted(cfr, key=position.__getitem__):
        if values[state]:
            continue
        rising = [
            target
            for _, target in sg.arcs_from(state)
            if values.get(target)
        ]
        if rising:
            target = max(rising, key=position.__getitem__)
            return (state, target, state, target)
    return None


def check_monotonous_cover(
    sg: StateGraph,
    er: ExcitationRegion,
    cube: Cube,
    cfr: Optional[FrozenSet[State]] = None,
) -> CoverDiagnostics:
    """Full Definition-17 check, one ``Cube.covers`` call per state."""
    if cfr is None:
        cfr = constant_function_region(sg, er)
    covers_all = all(cube.covers(sg.code_dict(s)) for s in er.states)
    outside = frozenset(
        s for s in sg.states if s not in cfr and cube.covers(sg.code_dict(s))
    )
    witness = _monotonicity_violation(sg, cfr, cube)
    return CoverDiagnostics(
        cube=cube,
        covers_all_er=covers_all,
        monotonous=witness is None,
        outside_cfr=outside,
        change_witness=witness,
    )


def find_monotonous_cover(
    sg: StateGraph,
    er: ExcitationRegion,
    max_literal_budget: int = 18,
) -> Optional[Cube]:
    """Reference MC-cube search, same enumeration order as the fast path.

    Subsets of the smallest cover cube's literal tuple are tried
    smallest-first; condition (3) is pre-filtered by a per-state walk
    instead of cached exclusion bitsets, and the monotonicity check is
    the per-state :func:`_monotonicity_violation` scan.
    """
    cfr = constant_function_region(sg, er)
    full = smallest_cover_cube(sg, er)
    outside_states = [s for s in sg.state_list if s not in cfr]
    if any(full.covers(sg.code_dict(s)) for s in outside_states):
        return None  # condition (3) can only get worse with fewer literals

    literals = full.literals
    if len(literals) > max_literal_budget:
        if check_monotonous_cover(sg, er, full, cfr).is_mc:
            return full
        return _greedy_mc_search(sg, er, full, cfr)

    # Condition (3) as a hitting set: every reachable state outside the
    # CFR must be excluded by at least one kept literal.
    exclusion: List[Set[State]] = []
    for signal, value in literals:
        exclusion.append(
            {s for s in outside_states if sg.code_dict(s)[signal] != value}
        )
    need = set(outside_states)

    indices = range(len(literals))
    for size in range(0, len(literals) + 1):
        for subset in combinations(indices, size):
            excluded: Set[State] = set()
            for i in subset:
                excluded |= exclusion[i]
            if excluded != need:
                continue
            cube = Cube(dict(literals[i] for i in subset))
            if _monotonicity_violation(sg, cfr, cube) is None:
                return cube
    return None


def _greedy_mc_search(
    sg: StateGraph, er: ExcitationRegion, full: Cube, cfr: FrozenSet[State]
) -> Optional[Cube]:
    """Greedy literal dropping for regions too wide to enumerate."""
    cube = full
    for _ in range(len(full)):
        diagnostics = check_monotonous_cover(sg, er, cube, cfr)
        if diagnostics.is_mc:
            return cube
        witness = diagnostics.change_witness
        if witness is None:
            return None
        u2, v2 = witness[2], witness[3]
        changed = [
            s for s, _ in cube.literals if sg.value(u2, s) != sg.value(v2, s)
        ]
        if not changed:
            return None
        cube = cube.without(changed[:1])
        if check_monotonous_cover(sg, er, cube, cfr).outside_cfr:
            return None
    diagnostics = check_monotonous_cover(sg, er, cube, cfr)
    return cube if diagnostics.is_mc else None


# ----------------------------------------------------------------------
# Generalised MC over region sets (Definition 19)
# ----------------------------------------------------------------------
def check_generalized_mc(
    sg: StateGraph, ers: Sequence[ExcitationRegion], cube: Cube
) -> bool:
    """Definition 19 by per-state evaluation (see the fast-path docs)."""
    if not ers:
        return False
    for er in ers:
        if not _is_sub_cover(sg, er, cube):
            return False
        if not covers_correctly(sg, er, cube):
            return False
    union_cfr: Set[State] = set()
    for er in ers:
        cfr = constant_function_region(sg, er)
        union_cfr |= cfr
        if not all(cube.covers(sg.code_dict(s)) for s in er.states):
            return False
        if _monotonicity_violation(sg, cfr, cube) is not None:
            return False
    if any(
        s not in union_cfr and cube.covers(sg.code_dict(s)) for s in sg.states
    ):
        return False
    return True


def find_generalized_monotonous_cover(
    sg: StateGraph, ers: Sequence[ExcitationRegion]
) -> Optional[Cube]:
    """Shared-cube search over a region set, smallest subsets first."""
    if not ers:
        return None
    if len(ers) == 1:
        return find_monotonous_cover(sg, ers[0])
    common = set(smallest_cover_cube(sg, ers[0]).literals)
    for er in ers[1:]:
        common &= set(smallest_cover_cube(sg, er).literals)
    if not common:
        return None
    literals = sorted(common)
    full = Cube(dict(literals))
    union_cfr: Set[State] = set()
    for er in ers:
        union_cfr |= constant_function_region(sg, er)
    if any(
        s not in union_cfr and full.covers(sg.code_dict(s)) for s in sg.states
    ):
        return None  # condition (3) unfixable by dropping literals
    for size in range(1, len(literals) + 1):
        for subset in combinations(literals, size):
            cube = Cube(dict(subset))
            if check_generalized_mc(sg, ers, cube):
                return cube
    return None


def _partitions(items: Sequence):
    """All set partitions of ``items`` (finest first by construction)."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in _partitions(rest):
        yield [[head]] + partition
        for i in range(len(partition)):
            yield partition[:i] + [[head] + partition[i]] + partition[i + 1 :]


def find_region_cover_assignment(
    sg: StateGraph,
    regions: Sequence[ExcitationRegion],
    precomputed: Optional[Dict[ExcitationRegion, Optional[Cube]]] = None,
    max_regions_exact: int = 6,
) -> Optional[Dict[ExcitationRegion, Cube]]:
    """Theorem-5 assignment search, finest partitions first."""
    regions = list(regions)
    if not regions:
        return {}
    single = dict(precomputed or {})
    for er in regions:
        if er not in single:
            single[er] = find_monotonous_cover(sg, er)
    if all(single[er] is not None for er in regions):
        return {er: single[er] for er in regions}
    if len(regions) > max_regions_exact:
        return _greedy_cover_assignment(sg, regions, single)

    group_cache: Dict[Tuple[ExcitationRegion, ...], Optional[Cube]] = {}

    def cube_for(group: Tuple[ExcitationRegion, ...]) -> Optional[Cube]:
        if len(group) == 1:
            return single[group[0]]
        if group not in group_cache:
            group_cache[group] = find_generalized_monotonous_cover(sg, group)
        return group_cache[group]

    for partition in _partitions(regions):
        assignment: Dict[ExcitationRegion, Cube] = {}
        for group in partition:
            key = tuple(sorted(group, key=lambda er: er.transition_name))
            cube = cube_for(key)
            if cube is None:
                assignment = {}
                break
            for er in group:
                assignment[er] = cube
        if assignment:
            return assignment
    return None


def _greedy_cover_assignment(
    sg: StateGraph,
    regions: Sequence[ExcitationRegion],
    single: Dict[ExcitationRegion, Optional[Cube]],
) -> Optional[Dict[ExcitationRegion, Cube]]:
    """Fallback for functions with many regions: grow groups greedily."""
    assignment: Dict[ExcitationRegion, Cube] = {
        er: cube for er, cube in single.items() if cube is not None
    }
    failed = [er for er in regions if er not in assignment]
    for er in failed:
        if er in assignment:
            continue
        placed = False
        for size in range(2, len(regions) + 1):
            for group in combinations(regions, size):
                if er not in group:
                    continue
                cube = find_generalized_monotonous_cover(sg, list(group))
                if cube is not None:
                    for member in group:
                        assignment[member] = cube
                    placed = True
                    break
            if placed:
                break
        if not placed:
            return None
    return assignment


# ----------------------------------------------------------------------
# Whole-graph MC analysis (Definitions 18-19), reference path
# ----------------------------------------------------------------------
def _function_verdicts(
    sg: StateGraph, regions: List[ExcitationRegion]
) -> List[RegionVerdict]:
    """Reference mirror of :func:`repro.core.mc._function_verdicts`."""
    verdicts: List[RegionVerdict] = []
    private: Dict[ExcitationRegion, Optional[Cube]] = {
        er: find_monotonous_cover(sg, er) for er in regions
    }
    assignment = find_region_cover_assignment(sg, regions, precomputed=private)
    groups: Dict[Cube, List[ExcitationRegion]] = {}
    if assignment:
        for er, cube in assignment.items():
            groups.setdefault(cube, []).append(er)
    for er in regions:
        cfr = constant_function_region(sg, er)
        cube = assignment.get(er) if assignment else private[er]
        stuck_stable: FrozenSet[State] = frozenset()
        stuck_opposite: FrozenSet[State] = frozenset()
        if cube is None:
            smallest = smallest_cover_cube(sg, er)
            outside = check_monotonous_cover(sg, er, smallest, cfr).outside_cfr
            stuck_stable, stuck_opposite = _classify_stuck(sg, er, outside)
        verdicts.append(
            RegionVerdict(
                er=er,
                cfr=frozenset(cfr),
                unique_entry=has_unique_entry(sg, er),
                mc_cube=cube,
                group=tuple(groups.get(cube, [er])) if cube else (),
                private=private.get(er) is not None
                and cube == private.get(er),
                stuck_stable=stuck_stable,
                stuck_opposite=stuck_opposite,
            )
        )
    return verdicts


def analyze_mc_reference(sg: StateGraph) -> MCReport:
    """Serial, dictionary-based MC analysis of a whole state graph.

    Returns the same :class:`~repro.core.mc.MCReport` shape as the fast
    path, so reports are comparable field by field.
    """
    by_function: Dict[Tuple[str, int], List[ExcitationRegion]] = {}
    for er in all_excitation_regions(sg, only_non_inputs=True):
        by_function.setdefault((er.signal, er.direction), []).append(er)
    verdicts: List[RegionVerdict] = []
    for _, regions in sorted(by_function.items()):
        verdicts.extend(_function_verdicts(sg, regions))
    return MCReport(sg=sg, verdicts=verdicts)


class ReferenceBackend:
    """The pure dictionary-based oracle as a pipeline analysis engine."""

    name = "reference"
    supports_reuse = False

    def analyze_mc(self, sg: StateGraph) -> MCReport:
        perf.count("backend.reference.analyze_mc")
        return analyze_mc_reference(sg)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<analysis engine reference>"


__all__ = [
    "ReferenceBackend",
    "analyze_mc_reference",
    "check_generalized_mc",
    "check_monotonous_cover",
    "covers_correctly",
    "find_generalized_monotonous_cover",
    "find_monotonous_cover",
    "find_region_cover_assignment",
    "smallest_cover_cube",
]
