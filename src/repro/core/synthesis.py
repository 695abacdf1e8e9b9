"""Standard C- and RS-implementation synthesis (Sections III-IV, VI).

For every non-input signal ``a`` the synthesiser derives

* an up-excitation function ``Sa`` -- one AND gate (cube) per
  up-excitation region, OR-ed together, and
* a down-excitation function ``Ra`` -- likewise for the down regions,

with every cube a monotonous cover of the region(s) it implements
(Theorem 3; with gate sharing, a generalised monotonous cover of its
region set, Theorem 5).  The two functions feed a Muller C-element
(``a = C(Sa, Ra')``) in the C-implementation or an RS latch in the
RS-implementation; the two structures differ only in how inverted
literals are realised (Fig. 2), so the logic layer here is shared and
the choice of latch is made by the netlist builder.

Degenerate simplifications (Sec. IV, note 2): when an excitation
function is a single cube of a single literal, the AND and OR gates
disappear -- the literal feeds the latch directly -- and the cube only
needs to be a *correct* cover, not a monotonous one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.sop import format_cover, format_cube
from repro.core.covers import (
    covers_correctly,
    find_generalized_monotonous_cover,
    smallest_cover_cube,
)
from repro.core.mc import MCReport, analyze_mc
from repro.sg.bitengine import bit_analysis
from repro.sg.graph import StateGraph
from repro.sg.regions import ExcitationRegion, excitation_regions


class SynthesisError(RuntimeError):
    """The state graph violates the MC requirement; carries the report."""

    def __init__(self, report: MCReport):
        self.report = report
        super().__init__(report.describe())


class CSCViolation(RuntimeError):
    """Two same-coded states demand different next values of a signal."""

    def __init__(self, signal: str, code: Tuple[int, ...]):
        self.signal = signal
        self.code = code
        super().__init__(
            f"signal {signal!r}: code {''.join(map(str, code))} needs both "
            f"next-values (CSC violation)"
        )


@dataclass
class SignalNetwork:
    """The excitation logic of one non-input signal (Fig. 2)."""

    signal: str
    set_cover: Cover
    reset_cover: Cover
    #: cube -> regions it implements (for sharing and reports)
    set_regions: Dict[Cube, Tuple[ExcitationRegion, ...]] = field(default_factory=dict)
    reset_regions: Dict[Cube, Tuple[ExcitationRegion, ...]] = field(default_factory=dict)
    #: True when the function was admitted under the degenerate
    #: single-literal rule (correct cover only)
    degenerate_set: bool = False
    degenerate_reset: bool = False

    @property
    def wire_source(self) -> Optional[Tuple[str, int]]:
        """``(source, polarity)`` when the network degenerates to a wire.

        ``a = x`` when set = literal ``x`` and reset = ``x'`` (polarity 1);
        ``a = x'`` when set = ``x'`` and reset = ``x`` (polarity 0) -- the
        paper's ``d = x`` in equations (2) is this inverted-wire case.
        """
        if len(self.set_cover) != 1 or len(self.reset_cover) != 1:
            return None
        set_cube = self.set_cover.cubes[0]
        reset_cube = self.reset_cover.cubes[0]
        if len(set_cube) != 1 or len(reset_cube) != 1:
            return None
        (s_sig, s_val), = set_cube.literals
        (r_sig, r_val), = reset_cube.literals
        if s_sig == r_sig and s_val != r_val:
            return (s_sig, s_val)
        return None

    @property
    def is_wire(self) -> bool:
        return self.wire_source is not None

    def equations(self) -> List[str]:
        wire = self.wire_source
        if wire is not None:
            source, polarity = wire
            return [f"{self.signal} = {source}{'' if polarity else chr(39)}"]
        lines = [
            f"S{self.signal} = {format_cover(self.set_cover)}",
            f"R{self.signal} = {format_cover(self.reset_cover)}",
            f"{self.signal} = C(S{self.signal}, R{self.signal}')",
        ]
        return lines


@dataclass
class Implementation:
    """A complete standard implementation of a state graph."""

    sg: StateGraph
    networks: Dict[str, SignalNetwork]
    shared: bool = False
    method: str = "mc"

    def network(self, signal: str) -> SignalNetwork:
        return self.networks[signal]

    def equations(self) -> str:
        lines: List[str] = []
        for signal in sorted(self.networks):
            lines += self.networks[signal].equations()
        return "\n".join(lines)

    def region_report(self) -> str:
        """Per-region mapping: which cube implements which region.

        The documentation artefact of the synthesis run: for every
        excitation region of every non-input signal, the implementing
        cube, whether it is shared (Def. 19 group) or degenerate, and
        the region's trigger events.
        """
        from repro.boolean.sop import format_cube
        from repro.sg.regions import trigger_events

        lines = [f"region mapping for {self.sg.name!r} ({self.method})"]
        for signal in sorted(self.networks):
            network = self.networks[signal]
            for label, mapping in (
                (f"S{signal}", network.set_regions),
                (f"R{signal}", network.reset_regions),
            ):
                for cube, regions in mapping.items():
                    shared = " [shared]" if len(regions) > 1 else ""
                    degenerate = (
                        " [degenerate]"
                        if (label.startswith("S") and network.degenerate_set)
                        or (label.startswith("R") and network.degenerate_reset)
                        else ""
                    )
                    for er in regions:
                        triggers = ", ".join(
                            sorted(str(e) for e in trigger_events(self.sg, er))
                        )
                        lines.append(
                            f"  {label}: ER({er.transition_name}) <- cube "
                            f"{format_cube(cube)}{shared}{degenerate}"
                            f"  (triggers: {triggers})"
                        )
        return "\n".join(lines)

    def and_gate_count(self) -> int:
        """AND gates needed (cubes with >= 2 literals), after sharing."""
        cubes = set()
        for network in self.networks.values():
            for cube in network.set_cover:
                if len(cube) >= 2:
                    cubes.add(cube)
            for cube in network.reset_cover:
                if len(cube) >= 2:
                    cubes.add(cube)
        return len(cubes)

    def literal_count(self) -> int:
        return sum(
            network.set_cover.literal_count() + network.reset_cover.literal_count()
            for network in self.networks.values()
        )


def _degenerate_function_cube(
    sg: StateGraph, regions: Sequence[ExcitationRegion]
) -> Optional[Cube]:
    """A single-literal cube correctly covering *all* the regions.

    This is the paper's degenerate case: the whole excitation function is
    one literal wired straight to the latch input, so only correct
    covering (Def. 16) is required of it.
    """
    if not regions:
        return None
    candidates = None
    for er in regions:
        literals = set(smallest_cover_cube(sg, er).literals)
        candidates = literals if candidates is None else candidates & literals
    if not candidates:
        return None
    for signal, value in sorted(candidates):
        cube = Cube({signal: value})
        if all(
            covers_correctly(sg, er, cube) and _literal_covers(sg, er, signal, value)
            for er in regions
        ):
            return cube
    return None


def _literal_covers(sg: StateGraph, er: ExcitationRegion, signal: str, value: int) -> bool:
    """True if ``signal = value`` holds in every state of the region."""
    engine = bit_analysis(sg)
    er_bits = engine.region_bits(("er", er), er.states)
    return er_bits & ~engine.literal_bits(engine.position[signal], value) == 0


def _wire_candidate(
    sg: StateGraph,
    ups: Sequence[ExcitationRegion],
    downs: Sequence[ExcitationRegion],
) -> Optional[Tuple[str, int]]:
    """A ``(source, polarity)`` wire implementing the whole network.

    The paper's strongest degenerate case (its equations (2) write
    ``d = x``): when some literal ``w = v`` correctly covers every
    up-region and ``w = 1-v`` every down-region, the C-element collapses
    to a BUF/NOT from ``w``.  Correct covering (Def. 16) suffices here
    because there is no AND/OR gate left to acknowledge.
    """
    if not ups or not downs:
        return None
    candidates = None
    for er in ups:
        literals = set(smallest_cover_cube(sg, er).literals)
        candidates = literals if candidates is None else candidates & literals
    if not candidates:
        return None
    for signal, value in sorted(candidates):
        up_cube = Cube({signal: value})
        down_cube = Cube({signal: 1 - value})
        if not all(
            covers_correctly(sg, er, up_cube) and _literal_covers(sg, er, signal, value)
            for er in ups
        ):
            continue
        if all(
            covers_correctly(sg, er, down_cube)
            and _literal_covers(sg, er, signal, 1 - value)
            for er in downs
        ):
            return (signal, value)
    return None


def _share_cubes(
    sg: StateGraph,
    chosen: Dict[ExcitationRegion, Cube],
) -> Dict[ExcitationRegion, Cube]:
    """Section-VI optimisation: merge AND gates across regions.

    Greedy pairwise merging: for each pair of regions, the candidate
    shared cube is the common-literal cube of their smallest covers; it
    replaces both cubes when it is a generalised MC (Def. 19) of the
    merged region group.  Groups keep growing until no merge applies.
    """
    groups: List[List[ExcitationRegion]] = [[er] for er in chosen]
    cubes: List[Cube] = [chosen[er] for er in chosen]

    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                group = groups[i] + groups[j]
                candidate = find_generalized_monotonous_cover(sg, group)
                if candidate is not None:
                    groups[i] = group
                    cubes[i] = candidate
                    del groups[j]
                    del cubes[j]
                    merged = True
                    break
            if merged:
                break
    result: Dict[ExcitationRegion, Cube] = {}
    for group, cube in zip(groups, cubes):
        for er in group:
            result[er] = cube
    return result


def synthesize(
    sg: StateGraph,
    share_gates: bool = False,
    allow_degenerate: bool = True,
    report: Optional[MCReport] = None,
) -> Implementation:
    """Derive the standard implementation of an MC-satisfying state graph.

    Raises :class:`SynthesisError` (carrying the MC report) if some
    non-input excitation region admits no monotonous cover and cannot be
    rescued by the degenerate single-literal rule; run the insertion
    engine (:func:`repro.core.insertion.insert_state_signals`) first in
    that case.
    """
    report = report or analyze_mc(sg)
    chosen: Dict[ExcitationRegion, Cube] = {}
    degenerate: Dict[Tuple[str, int], Cube] = {}

    by_function: Dict[Tuple[str, int], List[ExcitationRegion]] = {}
    for verdict in report.verdicts:
        key = (verdict.er.signal, verdict.er.direction)
        by_function.setdefault(key, []).append(verdict.er)

    unresolved = []
    for verdict in report.verdicts:
        if verdict.ok:
            chosen[verdict.er] = verdict.mc_cube
        else:
            unresolved.append(verdict.er)

    if unresolved and allow_degenerate:
        for key, regions in by_function.items():
            if any(er in unresolved for er in regions):
                cube = _degenerate_function_cube(sg, regions)
                if cube is not None:
                    degenerate[key] = cube
                    for er in regions:
                        chosen.pop(er, None)
                        if er in unresolved:
                            unresolved.remove(er)

    if unresolved:
        raise SynthesisError(report)

    if share_gates == "optimal":
        from repro.core.optimize import optimal_region_assignment

        chosen = optimal_region_assignment(sg, regions=list(chosen))
    elif share_gates:
        chosen = _share_cubes(sg, chosen)

    networks: Dict[str, SignalNetwork] = {}
    for signal in sorted(sg.non_inputs):
        regions = excitation_regions(sg, signal)
        ups = [er for er in regions if er.direction == 1]
        downs = [er for er in regions if er.direction == -1]
        if not ups or not downs:
            raise ValueError(
                f"non-input signal {signal!r} never "
                f"{'rises' if not ups else 'falls'} in the specification; "
                f"constant or one-shot signals have no excitation logic -- "
                f"tie the signal off instead of synthesising it"
            )

        if allow_degenerate:
            wire = _wire_candidate(sg, ups, downs)
            if wire is not None:
                source, polarity = wire
                networks[signal] = SignalNetwork(
                    signal=signal,
                    set_cover=Cover([Cube({source: polarity})]),
                    reset_cover=Cover([Cube({source: 1 - polarity})]),
                    set_regions={Cube({source: polarity}): tuple(ups)},
                    reset_regions={Cube({source: 1 - polarity}): tuple(downs)},
                    degenerate_set=True,
                    degenerate_reset=True,
                )
                continue

        def build(direction_regions, key):
            if key in degenerate:
                cube = degenerate[key]
                return (
                    Cover([cube]),
                    {cube: tuple(direction_regions)},
                    True,
                )
            cubes: List[Cube] = []
            mapping: Dict[Cube, Tuple[ExcitationRegion, ...]] = {}
            for er in direction_regions:
                cube = chosen[er]
                if cube not in cubes:
                    cubes.append(cube)
                mapping[cube] = tuple(
                    list(mapping.get(cube, ())) + [er]
                )
            return Cover(cubes), mapping, False

        set_cover, set_map, deg_s = build(ups, (signal, 1))
        reset_cover, reset_map, deg_r = build(downs, (signal, -1))
        networks[signal] = SignalNetwork(
            signal=signal,
            set_cover=set_cover,
            reset_cover=reset_cover,
            set_regions=set_map,
            reset_regions=reset_map,
            degenerate_set=deg_s,
            degenerate_reset=deg_r,
        )
    return Implementation(sg=sg, networks=networks, shared=share_gates, method="mc")
