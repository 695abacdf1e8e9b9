"""Whole-state-graph Monotonous Cover analysis (Definitions 18-19).

``analyze_mc`` examines every excitation region of every non-input signal
and decides whether the graph is implementable in the standard structure:
each region must be covered by exactly one cube that is a monotonous
cover of the set of regions it serves (per-region MC, Def. 17, or the
generalised form over region groups of the same excitation function,
Def. 19 / Theorem 5 -- the paper's own Figure-3 solution needs the
latter: ``Sd = x'`` is one cube shared by ER(+d_1) and ER(+d_2)).

The report carries, per failed region, the *stuck states*: reachable
states outside the region's CFR that even the smallest cover cube covers
-- every cover cube of the region covers them, so an inserted signal must
neutralise them.  The insertion engine consumes these diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro import perf
from repro.boolean.cube import Cube
from repro.core.covers import (
    check_monotonous_cover,
    find_monotonous_cover,
    find_region_cover_assignment,
    smallest_cover_cube,
)
from repro.sg.graph import State, StateGraph
from repro.sg.regions import (
    ExcitationRegion,
    all_excitation_regions,
    constant_function_region,
    excited_value_sets,
    has_unique_entry,
)


@dataclass
class RegionVerdict:
    """MC status of one excitation region."""

    er: ExcitationRegion
    cfr: FrozenSet[State]
    unique_entry: bool
    #: the cube covering this region in the chosen assignment (None = fail)
    mc_cube: Optional[Cube]
    #: regions sharing that cube (singleton tuple for a private MC cube)
    group: Tuple[ExcitationRegion, ...] = ()
    #: True when the cube is only a private Def.-17 MC (no sharing needed)
    private: bool = True
    #: for failed regions: reachable states outside the CFR covered by the
    #: *smallest* cover cube, split by why they are dangerous
    stuck_stable: FrozenSet[State] = frozenset()
    stuck_opposite: FrozenSet[State] = frozenset()

    @property
    def ok(self) -> bool:
        return self.mc_cube is not None

    @property
    def stuck_states(self) -> FrozenSet[State]:
        return self.stuck_stable | self.stuck_opposite

    def describe(self) -> str:
        if self.ok:
            shared = (
                ""
                if self.private
                else f" (shared with {[e.transition_name for e in self.group if e != self.er]})"
            )
            return f"ER({self.er.transition_name}): MC cube {self.mc_cube!r}{shared}"
        reasons = []
        if not self.unique_entry:
            reasons.append("no unique entry")
        if self.stuck_states:
            sample = sorted(map(str, self.stuck_states))[:4]
            reasons.append(f"every cover cube covers outside-CFR states {sample}")
        if not reasons:
            reasons.append("no monotonous cube in the cover-cube lattice")
        return f"ER({self.er.transition_name}): FAIL ({'; '.join(reasons)})"


@dataclass
class MCReport:
    """The outcome of :func:`analyze_mc` over a state graph."""

    sg: StateGraph
    verdicts: List[RegionVerdict]

    @property
    def satisfied(self) -> bool:
        """Every non-input region has an (optionally shared) MC cube."""
        return all(v.ok for v in self.verdicts)

    @property
    def strictly_satisfied(self) -> bool:
        """Definition 18 proper: every region has its own private MC cube."""
        return all(v.ok and v.private for v in self.verdicts)

    @property
    def failed(self) -> List[RegionVerdict]:
        return [v for v in self.verdicts if not v.ok]

    def verdict_for(self, er: ExcitationRegion) -> RegionVerdict:
        for verdict in self.verdicts:
            if verdict.er == er:
                return verdict
        raise KeyError(f"no verdict for {er}")

    def mc_cubes(self) -> Dict[ExcitationRegion, Cube]:
        """Region -> assigned cube (only for satisfied regions)."""
        return {v.er: v.mc_cube for v in self.verdicts if v.ok}

    def describe(self) -> str:
        lines = [
            f"MC analysis of {self.sg.name!r}: "
            f"{'SATISFIED' if self.satisfied else 'VIOLATED'}"
        ]
        lines += ["  " + v.describe() for v in self.verdicts]
        return "\n".join(lines)

    def to_json(self) -> Dict:
        """Structured artifact (see :mod:`repro.pipeline.serialize`)."""
        from repro.pipeline.serialize import mc_report_to_json

        return mc_report_to_json(self)


def _classify_stuck(
    sg: StateGraph, er: ExcitationRegion, outside: FrozenSet[State]
) -> Tuple[FrozenSet[State], FrozenSet[State]]:
    """Split covered outside-CFR states into strict / delay-repairable.

    Covering a state of the *opposite* excitation region can be
    neutralised by delaying that opposite transition behind the inserted
    signal (the covered phase then has the region's signal stable at the
    harmless level).  Everything else -- stable states at the wrong
    level, and states of *other regions of the same direction* (where
    covering part of a foreign region would turn on two cubes inside it)
    -- needs a strictly distinguishing signal value.
    """
    sets = excited_value_sets(sg, er.signal)
    if er.direction == 1:
        strict = sets["0-set"] | sets["1-set"] | (sets["0*-set"] - er.states)
        opposite = sets["1*-set"]
    else:
        strict = sets["1-set"] | sets["0-set"] | (sets["1*-set"] - er.states)
        opposite = sets["0*-set"]
    return outside & strict, outside & opposite


def _function_verdicts(
    sg: StateGraph, regions: List[ExcitationRegion]
) -> List[RegionVerdict]:
    """Verdicts for all regions of one excitation function (signal, dir).

    Self-contained per function, which lets :func:`analyze_mc` adopt a
    reused verdict list in place of any one function's.
    """
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


def analyze_mc(
    sg: StateGraph,
    reuse: Optional[Dict[Tuple[str, int], List[RegionVerdict]]] = None,
) -> MCReport:
    """Check the (generalised) Monotonous Cover requirement per region.

    Verdicts are computed per excitation function (one (signal,
    direction) pair) in sorted function order.  ``reuse`` maps
    ``(signal, direction)`` pairs to previously computed verdict lists
    that are adopted verbatim in place of re-running the function's
    cover search.  Callers are responsible for only offering
    verdicts whose input cone is unchanged (the pipeline keys them on
    the per-function digests of ``pipeline/incremental.py``), which
    makes adoption indistinguishable from recomputation.
    """
    with perf.phase("mc-analysis"):
        by_function: Dict[Tuple[str, int], List[ExcitationRegion]] = {}
        for er in all_excitation_regions(sg, only_non_inputs=True):
            by_function.setdefault((er.signal, er.direction), []).append(er)
        ordered = sorted(by_function.items())
        reuse = reuse or {}
        pending = [item for item in ordered if item[0] not in reuse]
        if reuse:
            perf.count("mc.functions-reused", len(ordered) - len(pending))

        computed = {
            key: _function_verdicts(sg, regions) for key, regions in pending
        }
        verdicts: List[RegionVerdict] = []
        for key, _regions in ordered:
            verdicts.extend(computed[key] if key in computed else list(reuse[key]))
        return MCReport(sg=sg, verdicts=verdicts)
