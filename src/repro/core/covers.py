"""Cover cubes and monotonous covers (Definitions 15-17, 19).

A *cover cube* for ER(*a_i) (Def. 15) may only use literals on signals
*ordered* with the transition (no transition of the literal signal is
excited inside the region); the literal value is the signal's (constant)
value throughout the region.  Consequently every cover cube of a region
is obtained from the *smallest cover cube* (Lemma 3: the minterm of the
minimal state stripped of concurrent signals and of the region's own
signal) by dropping literals.

A cover cube is a **monotonous cover** (Def. 17) when

1. it covers every state of ER(*a_i),
2. its value changes at most once along any trace of states that stays
   inside CFR(*a_i) = ER u QR, and
3. it covers no reachable state outside CFR(*a_i).

Condition (2) is checked exactly: a violation exists iff some change
edge's head can reach (inside the CFR) the tail of a change edge --
including itself through a CFR-internal cycle -- since any two changes in
sequence imply a trace with at least two changes, and a cycle implies
unboundedly many.

Definition 19 generalises the notion to a *set* of excitation regions so
one AND gate can serve several regions (Sec. VI, Theorem 5).

**Performance.**  All candidate-cube loops here are exponential in the
literal count, so the per-candidate work is kept O(L) word operations
via the per-graph bitmask engine (:mod:`repro.sg.bitengine`): each
forbidden/required state set is a cached bitset, each literal's
satisfying-state set is a cached bitset, and a candidate is judged by
OR/AND-ing those instead of rescanning every state of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro import perf
from repro.boolean.cube import Cube
from repro.sg.bitengine import BitEngine, bit_analysis
from repro.sg.graph import State, StateGraph
from repro.sg.regions import (
    ExcitationRegion,
    constant_function_region,
    ordered_signals,
    value_set_bits,
)


# ----------------------------------------------------------------------
# Cover cubes (Definition 15, Lemma 3)
# ----------------------------------------------------------------------
def smallest_cover_cube(sg: StateGraph, er: ExcitationRegion) -> Cube:
    """The maximal-literal cover cube of the region (Lemma 3).

    Every ordered signal keeps its (constant) region value as a literal;
    dropping literals yields every other cover cube of the region.
    Cached per (graph, region).
    """
    cached = sg._analysis_cache.get(("scc", er))
    if cached is not None:
        return cached
    some_state = next(iter(er.states))
    literals = {}
    for signal in ordered_signals(sg, er):
        literals[signal] = sg.value(some_state, signal)
    cube = Cube(literals)
    sg._analysis_cache[("scc", er)] = cube
    return cube


def is_cover_cube(sg: StateGraph, er: ExcitationRegion, cube: Cube) -> bool:
    """Definition 15: literals only on ordered signals, at region values."""
    return _is_sub_cover(sg, er, cube)


def _is_sub_cover(sg: StateGraph, er: ExcitationRegion, cube: Cube) -> bool:
    smallest = smallest_cover_cube(sg, er)
    for signal, value in cube.literals:
        if smallest.value_of(signal) != value:
            return False
    return True


# ----------------------------------------------------------------------
# Cached forbidden/required bitsets (Definitions 13, 16)
# ----------------------------------------------------------------------
def _forbidden_bits(sg: StateGraph, signal: str, direction: int) -> int:
    """Bitset of states a Def.-16-correct cube must *not* cover.

    For a rising region: 1*-set(a) u 0-set(a); falling mirrored.
    Cached per (graph, signal, direction).
    """
    cache = sg._analysis_cache
    key = ("forbidden_bits", signal, direction)
    cached = cache.get(key)
    if cached is not None:
        return cached
    sets = value_set_bits(sg, signal)
    if direction == 1:
        bits = sets["1*-set"] | sets["0-set"]
    else:
        bits = sets["0*-set"] | sets["1-set"]
    cache[key] = bits
    return bits


def _er_bits(sg: StateGraph, er: ExcitationRegion) -> int:
    return bit_analysis(sg).region_bits(("er", er), er.states)


def _cfr_bits(sg: StateGraph, er: ExcitationRegion) -> int:
    return bit_analysis(sg).region_bits(
        ("cfr", er), constant_function_region(sg, er)
    )


def _literal_masks(
    engine: BitEngine, literals: Sequence[Tuple[str, int]]
) -> List[int]:
    """Per literal, the bitset of states *satisfying* it."""
    position_of = engine.position
    return [
        engine.literal_bits(position_of[signal], value)
        for signal, value in literals
    ]


# ----------------------------------------------------------------------
# Consistent excitation functions (Definition 13)
# ----------------------------------------------------------------------
def is_consistent_excitation_function(
    sg: StateGraph, signal: str, cover, direction: int
) -> bool:
    """Definition 13: the function is 1 on the whole excited set of its
    direction and 0 on the opposite excited set and the preceding stable
    set (its value on the *following* stable set is free).

    For ``direction = +1`` (an up-excitation function ``Sa``): value 1 on
    0*-set(a), value 0 on 1*-set(a) and 0-set(a).  Mirrored for ``-1``.
    Every excitation function synthesised from (generalised) MC cubes
    satisfies this by construction -- asserted in the test-suite.
    """
    engine = bit_analysis(sg)
    sets = value_set_bits(sg, signal)
    if direction == 1:
        must_one_bits = sets["0*-set"]
        must_zero_bits = sets["1*-set"] | sets["0-set"]
    else:
        must_one_bits = sets["1*-set"]
        must_zero_bits = sets["0*-set"] | sets["1-set"]
    ones = _function_bits(engine, cover)
    if ones is None:  # unknown callable: fall back to per-state evaluation
        evaluator = cover.evaluator(sg.signals)
        states_of = engine.states_of
        return all(evaluator(sg.code(s)) for s in states_of(must_one_bits)) and not any(
            evaluator(sg.code(s)) for s in states_of(must_zero_bits)
        )
    return must_one_bits & ~ones == 0 and ones & must_zero_bits == 0


def _function_bits(engine: BitEngine, cover) -> Optional[int]:
    """Bitset where a Cube (AND) or Cover (OR of cubes) evaluates to 1."""
    if isinstance(cover, Cube):
        return engine.cube_bits(cover)
    cubes = getattr(cover, "cubes", None)
    if cubes is not None:
        bits = 0
        for cube in cubes:
            bits |= engine.cube_bits(cube)
        return bits
    return None


# ----------------------------------------------------------------------
# Correct covering (Definition 16)
# ----------------------------------------------------------------------
def covers_correctly(sg: StateGraph, er: ExcitationRegion, cube: Cube) -> bool:
    """Definition 16 over the reachable states.

    For a rising region the cube must not cover 1*-set(a) u 0-set(a);
    for a falling region it must not cover 0*-set(a) u 1-set(a).
    """
    engine = bit_analysis(sg)
    forbidden = _forbidden_bits(sg, er.signal, er.direction)
    return engine.cube_bits(cube) & forbidden == 0


def find_correct_cover_cubes(
    sg: StateGraph, er: ExcitationRegion
) -> Optional[List[Cube]]:
    """A set of cover cubes jointly covering the region correctly.

    This is the Beerel-style requirement (each state of the ER covered by
    at least one *correct* cover cube; monotonicity not demanded).  For
    each region state, the best chance is the most specific cover cube
    that still covers that state -- i.e. the smallest cover cube itself,
    which covers all of them; if it is not correct, the region state's
    minterm restricted to ordered signals is refined per state.  Returns
    ``None`` if some region state cannot be covered correctly at all.
    """
    engine = bit_analysis(sg)
    smallest = smallest_cover_cube(sg, er)
    literals = smallest.literals
    forbidden = _forbidden_bits(sg, er.signal, er.direction)
    # Correctness as a hitting set: every forbidden state must fail at
    # least one kept literal.  Each literal's exclusion set over the
    # forbidden states is one cached bitset, so a candidate subset is
    # judged in O(|subset|) word ORs.
    satisfy = _literal_masks(engine, literals)
    exclusion = [forbidden & ~bits for bits in satisfy]
    reachable_exclusion = 0
    for mask in exclusion:
        reachable_exclusion |= mask
    candidates = 0
    if reachable_exclusion == forbidden:
        # candidate single cubes: subsets of the smallest cube's literals,
        # fewest literals first (the paper's equations (1) use the cheapest
        # correct cover, e.g. the single literal a for ER(+c_1))
        indices = range(len(literals))
        for size in range(0, len(literals) + 1):
            for subset in combinations(indices, size):
                candidates += 1
                excluded = 0
                for i in subset:
                    excluded |= exclusion[i]
                if excluded == forbidden:
                    perf.count("cube.candidates", candidates)
                    return [Cube(dict(literals[i] for i in subset))]
    perf.count("cube.candidates", candidates)
    # No single Def.-15 cube is correct (e.g. ER(+d_1) of Figure 1):
    # fall back to several cubes, each covering part of the region.
    return _per_state_correct_cubes(sg, er)


def _per_state_correct_cubes(
    sg: StateGraph, er: ExcitationRegion
) -> Optional[List[Cube]]:
    """Cover each region state with a correct cube over its stable signals.

    When no single Def.-15 cube is correct (e.g. ER(+d_1) of Figure 1),
    the implementation needs several cubes; each may use literals on any
    signal *stable at the states it covers* -- values constant across the
    covered subset.  We grow one cube per still-uncovered state: start
    from the full minterm minus the region's signal, then drop literals
    greedily while the cube stays correct, preferring cubes that cover
    more of the region.
    """
    engine = bit_analysis(sg)
    forbidden = _forbidden_bits(sg, er.signal, er.direction)
    uncovered: Set[State] = set(er.states)
    result: List[Cube] = []
    guard = 0
    while uncovered:
        guard += 1
        if guard > len(er.states) + 1:
            return None
        seed = min(uncovered, key=str)
        cube = Cube(
            {s: v for s, v in sg.code_dict(seed).items() if s != er.signal}
        )
        if engine.cube_bits(cube) & forbidden:
            return None
        # greedy literal dropping: try to widen the cube so it swallows
        # more region states while staying correct
        improved = True
        while improved:
            improved = False
            for signal, _ in cube.literals:
                candidate = cube.without((signal,))
                if engine.cube_bits(candidate) & forbidden == 0:
                    cube = candidate
                    improved = True
                    break
        covered_now = {
            s for s in uncovered if engine.covers_state(cube, s)
        }
        if not covered_now:
            return None
        uncovered -= covered_now
        result.append(cube)
    return result


# ----------------------------------------------------------------------
# Monotonous covers (Definition 17)
# ----------------------------------------------------------------------
@dataclass
class CoverDiagnostics:
    """Outcome of a monotonous-cover check, with witnesses for repair."""

    cube: Cube
    covers_all_er: bool
    monotonous: bool
    outside_cfr: FrozenSet[State]  # reachable states covered outside CFR
    change_witness: Optional[Tuple[State, State, State, State]] = None

    @property
    def is_mc(self) -> bool:
        return self.covers_all_er and self.monotonous and not self.outside_cfr


def _monotonicity_violation(
    sg: StateGraph, cfr: FrozenSet[State], cube: Cube
) -> Optional[Tuple[State, State, State, State]]:
    """A witness that the cube is not monotonous inside the CFR.

    Inside the constant function region a legitimate cube can only
    *fall*: it is 1 throughout the excitation region (which is entered
    exclusively from outside the CFR -- a quiescent state never steps
    back into the region), and after falling in the quiescent region it
    must stay 0.  Any 0 -> 1 change edge inside the CFR is therefore a
    violation of Definition 17(2): either the cube re-rises after
    falling (two changes on one trace), or it rises on a trace that
    entered the quiescent region from a foreign path -- an AND gate
    turning on with nobody to acknowledge it (exactly the Figure-4
    hazard mechanism, just inside the QR).

    Two 1 -> 0 edges in trace order are impossible without an
    intervening rise, so banning rises is the complete check.
    """
    engine = bit_analysis(sg)
    cfr_bits = engine.bits_of(cfr)
    ones = engine.cube_bits(cube)
    witness = engine.first_rise_edge(cfr_bits, ones)
    if witness is None:
        return None
    source, target = witness
    return (source, target, source, target)


def check_monotonous_cover(
    sg: StateGraph,
    er: ExcitationRegion,
    cube: Cube,
    cfr: Optional[FrozenSet[State]] = None,
) -> CoverDiagnostics:
    """Full Definition-17 check with diagnostics."""
    engine = bit_analysis(sg)
    if cfr is None:
        cfr_bits = _cfr_bits(sg, er)
    else:
        cfr_bits = engine.bits_of(cfr)
    ones = engine.cube_bits(cube)
    covers_all = _er_bits(sg, er) & ~ones == 0
    outside = engine.states_of(ones & ~cfr_bits)
    witness_edge = engine.first_rise_edge(cfr_bits, ones)
    witness = None
    if witness_edge is not None:
        source, target = witness_edge
        witness = (source, target, source, target)
    return CoverDiagnostics(
        cube=cube,
        covers_all_er=covers_all,
        monotonous=witness is None,
        outside_cfr=outside,
        change_witness=witness,
    )


def is_monotonous_cover(sg: StateGraph, er: ExcitationRegion, cube: Cube) -> bool:
    return check_monotonous_cover(sg, er, cube).is_mc


def find_monotonous_cover(
    sg: StateGraph,
    er: ExcitationRegion,
    max_literal_budget: int = 18,
) -> Optional[Cube]:
    """Search the cover-cube lattice of the region for an MC cube.

    Candidates are subsets of the smallest cover cube's literal set
    (every cover cube by Def. 15).  Condition (3) is antitone in the
    literal set (more literals exclude more states), so if the full cube
    already covers a reachable state outside the CFR no subset can
    succeed and the search exits immediately.  Otherwise subsets are
    tried smallest-first; the first cube passing the correctness bitset
    filter and the monotonicity check wins (ties broken towards fewer
    literals at equal size by ordering).

    Every per-candidate test is a handful of big-int operations: the
    outside-CFR condition is a hitting-set over cached per-literal
    exclusion bitsets, and the monotonicity check walks only the 0-states
    of the CFR against a successor-bitset table.
    """
    engine = bit_analysis(sg)
    cfr_bits = _cfr_bits(sg, er)
    full = smallest_cover_cube(sg, er)
    outside_all = engine.all_states_bits & ~cfr_bits
    full_ones = engine.cube_bits(full)
    if full_ones & outside_all:
        return None  # condition (3) can only get worse with fewer literals

    literals = full.literals
    if len(literals) > max_literal_budget:
        # too wide for exhaustive search; fall back to greedy drops
        cfr = constant_function_region(sg, er)
        if check_monotonous_cover(sg, er, full, cfr).is_mc:
            return full
        return _greedy_mc_search(sg, er, full, cfr)

    # Condition (3) as a hitting-set precondition: every reachable state
    # outside the CFR must be excluded by at least one kept literal.
    # Each literal's exclusion set is a cached bitmask, so the
    # smallest-first subset enumeration discards non-covers in O(|subset|)
    # before paying for the monotonicity check.
    satisfy = _literal_masks(engine, literals)
    exclusion = [outside_all & ~bits for bits in satisfy]
    need = outside_all

    # Smallest literal sets first: the paper's examples use the cheapest
    # admissible cube (e.g. the single literal a for ER(+c_1) of Fig. 1).
    indices = range(len(literals))
    candidates = 0
    mono_checks = 0
    try:
        for size in range(0, len(literals) + 1):
            for subset in combinations(indices, size):
                candidates += 1
                excluded = 0
                for i in subset:
                    excluded |= exclusion[i]
                if excluded != need:
                    continue
                ones = engine.all_states_bits
                for i in subset:
                    ones &= satisfy[i]
                mono_checks += 1
                if not engine.has_rise_edge(cfr_bits, ones):
                    return Cube(dict(literals[i] for i in subset))
        return None
    finally:
        perf.count("cube.candidates", candidates)
        perf.count("cube.mono_checks", mono_checks)


def _greedy_mc_search(
    sg: StateGraph, er: ExcitationRegion, full: Cube, cfr: FrozenSet[State]
) -> Optional[Cube]:
    engine = bit_analysis(sg)
    cfr_bits = engine.region_bits(("cfr", er), cfr)
    er_bits = _er_bits(sg, er)
    outside_all = engine.all_states_bits & ~cfr_bits
    cube = full
    for _ in range(len(full)):
        ones = engine.cube_bits(cube)
        witness = engine.first_rise_edge(cfr_bits, ones)
        if witness is None:
            if er_bits & ~ones == 0 and not ones & outside_all:
                return cube
            return None
        # drop a literal implicated in the *second* change edge
        u2, v2 = witness
        codes, index = engine.packed_list, engine.index
        diff = codes[index[u2]] ^ codes[index[v2]]
        position_of = engine.position
        changed = [
            s for s, _ in cube.literals if diff >> position_of[s] & 1
        ]
        if not changed:
            return None
        cube = cube.without(changed[:1])
        if engine.cube_bits(cube) & outside_all:
            return None
    ones = engine.cube_bits(cube)
    if (
        er_bits & ~ones == 0
        and not ones & outside_all
        and not engine.has_rise_edge(cfr_bits, ones)
    ):
        return cube
    return None


# ----------------------------------------------------------------------
# Generalised MC over region sets (Definition 19)
# ----------------------------------------------------------------------
def find_generalized_monotonous_cover(
    sg: StateGraph, ers: Sequence[ExcitationRegion]
) -> Optional[Cube]:
    """An MC cube for a whole *set* of regions (Definition 19), if any.

    Candidate literals are those common to every region's smallest cover
    cube (a shared cube must be a cover cube of each region).  As in the
    single-region search, condition (3) is antitone in the literal set,
    so the full common cube failing (3) kills the search; otherwise
    subsets are tried smallest-first with the same bitset filters.
    """
    if not ers:
        return None
    if len(ers) == 1:
        return find_monotonous_cover(sg, ers[0])
    common = set(smallest_cover_cube(sg, ers[0]).literals)
    for er in ers[1:]:
        common &= set(smallest_cover_cube(sg, er).literals)
    if not common:
        return None
    engine = bit_analysis(sg)
    literals = sorted(common)
    full = Cube(dict(literals))
    union_cfr_bits = 0
    for er in ers:
        union_cfr_bits |= _cfr_bits(sg, er)
    if engine.cube_bits(full) & ~union_cfr_bits & engine.all_states_bits:
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
    """Assign one (possibly shared) MC cube to every region of a function.

    This realises Theorem 5's premise for one excitation function: each
    region is covered by exactly one cube, each cube a (generalised)
    monotonous cover of the set of regions it serves.  Partitions of the
    region list are tried finest-first, so gates are shared only when a
    region has no private MC grouping option.  Returns ``None`` when no
    partition works.
    """
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


def check_generalized_mc(
    sg: StateGraph, ers: Sequence[ExcitationRegion], cube: Cube
) -> bool:
    """Definition 19: ``cube`` is an MC for the whole region set.

    The cube must be a cover cube of every region that *covers each
    region correctly* (the paper defines correct covering of a region
    set immediately before Def. 19), and then (1) it covers every state
    of every region, (2) it changes at most once inside each region's
    CFR, and (3) it covers no reachable state outside the union of the
    CFRs.  For a single region (3) subsumes correctness; for a group --
    in particular across signals -- it does not, because a state may lie
    inside another group member's CFR yet in this region's forbidden
    sets.
    """
    if not ers:
        return False
    engine = bit_analysis(sg)
    ones = None
    for er in ers:
        if not _is_sub_cover(sg, er, cube):
            return False
        if ones is None:
            ones = engine.cube_bits(cube)
        if ones & _forbidden_bits(sg, er.signal, er.direction):
            return False
    union_cfr_bits = 0
    for er in ers:
        cfr_bits = _cfr_bits(sg, er)
        union_cfr_bits |= cfr_bits
        if _er_bits(sg, er) & ~ones:
            return False
        if engine.has_rise_edge(cfr_bits, ones):
            return False
    if ones & ~union_cfr_bits & engine.all_states_bits:
        return False
    return True
