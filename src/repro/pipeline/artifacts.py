"""Typed stage artifacts of the staged synthesis pipeline.

Each pipeline stage produces exactly one frozen artifact:

========== ==================== =========================================
stage      artifact             contents
========== ==================== =========================================
reach      ReachedSG            the elaborated state graph (Defs. 5-7)
regions    RegionMap            excitation regions per non-input signal
mc         MCVerdict            the backend's whole-graph MC report
covers     CoverPlan            insertion + standard implementation
netlist    SynthesizedNetlist   basic-gate netlist (+ hazard report)
========== ==================== =========================================

Every artifact carries a ``fingerprint``: a stable SHA-256 digest over
its own content chained with its upstream artifact's fingerprint.  The
fingerprint chain is what the pipeline memoises on -- an unchanged
upstream artifact re-keys to the same digest and hits the cache, while
a mutated specification re-keys (and therefore recomputes) exactly the
stages downstream of the mutation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.insertion import InsertionResult
from repro.core.mc import MCReport
from repro.core.synthesis import Implementation
from repro.netlist.hazards import HazardReport
from repro.netlist.netlist import Netlist
from repro.sg.graph import StateGraph
from repro.sg.regions import ExcitationRegion
from repro.stg.stg import STG


def _digest(*parts: str) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x1f")
    return hasher.hexdigest()


def fingerprint_state_graph(sg: StateGraph) -> str:
    """Stable structural digest of a state graph (cached on the graph).

    Covers everything downstream analyses can observe: the signal order,
    the input partition, every state code, every arc and the initial
    state.  Safe to cache because state graphs are immutable after
    construction.
    """
    cached = sg._analysis_cache.get("pipeline_fingerprint")
    if cached is not None:
        return cached
    arcs = sorted(
        f"{source}>{event.signal}{'+' if event.direction == 1 else '-'}>{target}"
        for source, event, target in sg.arcs()
    )
    codes = sorted(
        f"{state}={''.join(map(str, sg.code(state)))}" for state in sg.state_list
    )
    digest = _digest(
        sg.name,
        ",".join(sg.signals),
        ",".join(sorted(sg.inputs)),
        str(sg.initial),
        "|".join(codes),
        "|".join(arcs),
    )
    sg._analysis_cache["pipeline_fingerprint"] = digest
    return digest


def fingerprint_stg(stg: STG) -> str:
    """Stable structural digest of an STG specification."""
    net = stg.net
    arcs = sorted(
        [f"{p}>{t}" for t in net.transitions for p in net.preset[t]]
        + [f"{t}>{p}" for t in net.transitions for p in net.postset[t]]
    )
    marking = sorted(map(str, stg.initial_marking))
    initial_values = sorted(
        f"{signal}={value}" for signal, value in (stg.initial_values or {}).items()
    )
    return _digest(
        stg.name,
        ",".join(sorted(stg.inputs)),
        ",".join(sorted(stg.outputs)),
        ",".join(sorted(stg.internal)),
        ",".join(sorted(net.places)),
        ",".join(sorted(net.transitions)),
        "|".join(arcs),
        ",".join(marking),
        ",".join(initial_values),
    )


@dataclass(frozen=True)
class ReachedSG:
    """Stage ``reach``: the specification elaborated to a state graph."""

    sg: StateGraph
    #: the source STG when the pipeline elaborated one (None for specs
    #: that entered as a ready-made state graph)
    source: Optional[STG] = None
    fingerprint: str = ""

    @property
    def states(self) -> int:
        return len(self.sg.state_list)


@dataclass(frozen=True)
class RegionMap:
    """Stage ``regions``: excitation regions of every non-input signal."""

    regions: Tuple[ExcitationRegion, ...]
    fingerprint: str = ""
    #: per-signal digests of the region computation's input cone
    #: (see pipeline/incremental.py); equal digest = identical ER list
    signal_fingerprints: Tuple[Tuple[str, str], ...] = ()

    def __len__(self) -> int:
        return len(self.regions)


@dataclass(frozen=True)
class MCVerdict:
    """Stage ``mc``: one backend's whole-graph Monotonous Cover report."""

    report: MCReport
    backend: str = "bitengine"
    fingerprint: str = ""
    #: per-``a+``/``a-`` digests of each function's verdict input cone
    #: (see pipeline/incremental.py); equal digest = identical verdicts
    function_fingerprints: Tuple[Tuple[str, str], ...] = ()

    @property
    def satisfied(self) -> bool:
        return self.report.satisfied


@dataclass(frozen=True)
class CoverPlan:
    """Stage ``covers``: the repaired graph and its implementation.

    ``insertion`` records the state signals the MC-driven assignment
    added (none when the specification already satisfied MC);
    ``implementation`` is the standard C-/RS-implementation derived from
    the final report's (possibly shared) MC cubes.
    """

    insertion: InsertionResult
    implementation: Implementation
    fingerprint: str = ""

    @property
    def sg(self) -> StateGraph:
        """The final (post-insertion) state graph."""
        return self.insertion.sg

    @property
    def added_signals(self) -> Tuple[str, ...]:
        return tuple(self.insertion.added_signals)


@dataclass(frozen=True)
class SynthesizedNetlist:
    """Stage ``netlist``: the basic-gate netlist, optionally verified."""

    netlist: Netlist
    hazard_report: Optional[HazardReport] = None
    fingerprint: str = ""

    @property
    def hazard_free(self) -> bool:
        return bool(self.hazard_report and self.hazard_report.hazard_free)


def fingerprint_region_map(upstream: str, regions: Tuple[ExcitationRegion, ...]) -> str:
    body = "|".join(
        f"{er.transition_name}:{','.join(sorted(map(str, er.states)))}"
        for er in regions
    )
    return _digest("regions", upstream, body)


def fingerprint_mc_report(upstream: str, backend: str, report: MCReport) -> str:
    parts = []
    for verdict in report.verdicts:
        parts.append(
            f"{verdict.er.transition_name};{verdict.unique_entry};"
            f"{verdict.mc_cube!r};{verdict.private};"
            f"{sorted(e.transition_name for e in verdict.group)};"
            f"{sorted(map(str, verdict.stuck_stable))};"
            f"{sorted(map(str, verdict.stuck_opposite))}"
        )
    return _digest("mc", upstream, backend, "|".join(parts))


def fingerprint_cover_plan(
    upstream: str, insertion: InsertionResult, implementation: Implementation
) -> str:
    return _digest(
        "covers",
        upstream,
        ",".join(insertion.added_signals),
        fingerprint_state_graph(insertion.sg),
        implementation.equations(),
    )


def fingerprint_netlist(
    upstream: str, netlist: Netlist, hazard_report: Optional[HazardReport]
) -> str:
    from repro.netlist.io import netlist_to_json

    verdict = "unverified"
    if hazard_report is not None:
        verdict = (
            f"{hazard_report.hazard_free};{len(hazard_report.conflicts)};"
            f"{hazard_report.composition.truncated}"
        )
    return _digest("netlist", upstream, netlist_to_json(netlist, indent=0), verdict)


__all__ = [
    "CoverPlan",
    "MCVerdict",
    "ReachedSG",
    "RegionMap",
    "SynthesizedNetlist",
    "fingerprint_cover_plan",
    "fingerprint_mc_report",
    "fingerprint_netlist",
    "fingerprint_region_map",
    "fingerprint_state_graph",
    "fingerprint_stg",
]
