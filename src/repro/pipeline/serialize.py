"""JSON codecs for pipeline artifacts.

Two result-level encoders feed reports and comparisons:
:func:`mc_report_to_json` (schema ``repro-mc-report/1``, every claim an
:class:`~repro.core.mc.MCReport` makes; ``repro-si diff --table1``
compares two engines through it) and :func:`pipeline_result_to_json`
(one Table-1 row, the ``table1`` section row schema of
``BENCH_pipeline.json``).  Both are one-way: nothing decodes them.

The stage codecs (:func:`stage_artifact_to_json` /
:func:`stage_artifact_from_json`) serialise the five *pipeline stage
artifacts* for the persistent store (:mod:`repro.pipeline.store`,
envelope ``repro-artifact-store/6``).  These round-trips are
**faithful**: a loaded artifact drives every downstream stage to
byte-identical results, so region state sets, MC diagnostics, cover
order and degenerate flags are preserved exactly.  Cubes travel in the
compiled IR form, a ``[mask, value]`` pair against the graph's signals.

Each state graph is stored once, in its dense form (packed codes, arcs
as index arrays), in the ``reach`` payload.  The ``regions`` and ``mc``
payloads name it by fingerprint and state-order digest; so does
``covers``, which also names the ``mc`` report by the ``mc``
fingerprint, unless insertion changed graph and report -- then it
embeds its own.  Every state set is a hex bitmask over the state order
of the graph it refers to.  Decoders resolve these references against
the ``upstream`` artifacts the caller holds, so a loaded report's
``.sg`` is the reach graph object, as in a fresh run.

The only intentionally detached piece is the hazard report inside a
loaded ``SynthesizedNetlist`` (the final stage -- no downstream stage
consumes it, only its verdict is kept).  State ids may be strings, ints
or arbitrarily nested tuples thereof (state-signal insertion produces
``(state, phase)`` pairs); artifacts using any other id type raise
:class:`ArtifactCodingError`, which the store treats as "do not
persist", never as an error.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple


# ----------------------------------------------------------------------
# Detached hazard verdict (duck-typed against HazardReport)
# ----------------------------------------------------------------------
@dataclass
class _DetachedComposition:
    """Composition stand-in: the truncation flag the pipeline reads."""

    truncated: bool = False


@dataclass
class DetachedHazardReport:
    """Serialised verdict of a :class:`repro.netlist.hazards.HazardReport`.

    Carries exactly the serialised facts; ``conflicts`` is a *count*,
    not the witness list.  ``netlist`` is attached when the report is
    rebuilt next to its netlist (the store's ``SynthesizedNetlist``
    codec does) so harness code reading ``hazard_report.netlist`` keeps
    working on cached verdicts.
    """

    hazard_free: bool
    conflicts: int
    truncated: bool
    circuit_states: int
    #: the synthesised netlist, when rebuilt alongside one (not serialised)
    netlist: Optional[object] = None

    @property
    def composition(self) -> _DetachedComposition:
        """Duck-typed composition view (truncation flag only)."""
        return _DetachedComposition(truncated=self.truncated)

    @property
    def inconclusive(self) -> bool:
        """Truncated before any hazard witness: nothing is proven.

        Conformance failures are not serialised, so a truncated cached
        verdict without conflicts counts as inconclusive.
        """
        return self.truncated and not self.conflicts

    @property
    def conflict_count(self) -> int:
        return self.conflicts

    def describe(self) -> str:
        verdict = (
            "HAZARD-FREE"
            if self.hazard_free
            else f"HAZARDOUS ({self.conflicts} conflict(s))"
        )
        suffix = ", truncated" if self.truncated else ""
        return (
            f"speed independence: {verdict} "
            f"(cached verdict, {self.circuit_states} circuit states{suffix})"
        )


def _hazard_to_json(report) -> Optional[Dict]:
    if report is None:
        return None
    return {
        "hazard_free": report.hazard_free,
        "conflicts": report.conflict_count,
        "truncated": report.composition.truncated,
        "circuit_states": report.circuit_states,
    }


def _hazard_from_json(data: Optional[Dict]) -> Optional[DetachedHazardReport]:
    return None if data is None else DetachedHazardReport(**data)


# ----------------------------------------------------------------------
# MCReport
# ----------------------------------------------------------------------
def _cube_to_json(cube) -> Optional[Dict[str, int]]:
    if cube is None:
        return None
    return {signal: value for signal, value in sorted(cube.literals)}


def mc_report_to_json(report) -> Dict:
    """Schema ``repro-mc-report/1``: every claim the report makes."""
    verdicts = []
    for verdict in report.verdicts:
        verdicts.append(
            {
                "region": verdict.er.transition_name,
                "unique_entry": verdict.unique_entry,
                "cube": _cube_to_json(verdict.mc_cube),
                "private": verdict.private,
                "group": sorted(e.transition_name for e in verdict.group),
                "stuck_stable": sorted(map(str, verdict.stuck_stable)),
                "stuck_opposite": sorted(map(str, verdict.stuck_opposite)),
            }
        )
    return {
        "schema": "repro-mc-report/1",
        "name": report.sg.name,
        "satisfied": report.satisfied,
        "verdicts": verdicts,
    }


# ----------------------------------------------------------------------
# PipelineResult (the Table-1 harness row)
# ----------------------------------------------------------------------
def pipeline_result_to_json(result) -> Dict:
    """One Table-1 row; exactly the ``table1`` section row schema of
    ``BENCH_pipeline.json`` (key-compatible with frozen baselines)."""
    from repro.bench.suite import BENCHMARKS, paper_row

    row = {
        "name": result.name,
        "inputs": len(result.stg.inputs),
        "outputs": len(result.stg.non_inputs),
        "added_signals": len(result.insertion.added_signals),
        "paper_added_signals": (
            paper_row(result.name)[2] if result.name in BENCHMARKS else None
        ),
        "spec_states": len(result.spec_sg),
        "final_states": len(result.insertion.sg),
        "hazard_free": (
            None
            if result.hazard_report is None
            else result.hazard_report.hazard_free
        ),
        "elapsed_seconds": result.elapsed_seconds,
    }
    if result.profile is not None:
        row["profile"] = result.profile
    if result.reuse is not None:
        row["reuse"] = result.reuse
    return row


# ----------------------------------------------------------------------
# Stage artifacts (the persistent artifact store payloads)
# ----------------------------------------------------------------------
class ArtifactCodingError(ValueError):
    """The artifact cannot be spilled faithfully (e.g. state ids of an
    unsupported type -- anything but strings, ints and tuples thereof).

    The store treats this as "keep the artifact in memory only" -- it is
    a capability signal, never a failure of the pipeline run.
    """


def _encode_state(state):
    """Encode one state id losslessly.

    STG elaboration names states ``"m0"``-style; state-signal insertion
    nests them into ``(state, phase)`` tuples; hand-built graphs may use
    ints.  Strings pass through, everything else is tagged so the type
    survives JSON (``{"i": 3}`` vs ``"3"``, ``{"t": [...]}`` for tuples).
    """
    if isinstance(state, str):
        return state
    if isinstance(state, bool):
        raise ArtifactCodingError(f"unsupported state id type: {state!r}")
    if isinstance(state, int):
        return {"i": state}
    if isinstance(state, tuple):
        return {"t": [_encode_state(part) for part in state]}
    raise ArtifactCodingError(f"unsupported state id type: {state!r}")


def _decode_state(data):
    if isinstance(data, str):
        return data
    if "i" in data:
        return data["i"]
    return tuple(_decode_state(part) for part in data["t"])


def _engine(sg):
    from repro.sg.bitengine import bit_analysis

    return bit_analysis(sg)


def _states_to_mask(states, engine) -> str:
    """A state *set* as a hex bitmask over its graph's state order."""
    try:
        return format(engine.bits_of(states), "x")
    except KeyError as error:
        raise ArtifactCodingError(f"state outside the graph: {error}") from error


def _states_from_mask(data: str, engine) -> FrozenSet:
    return engine.states_of(int(data, 16))


def _order_digest(sg) -> str:
    """Digest of the graph's state order, which the bitmasks refer to.

    Fingerprints do not depend on state order, so a payload whose masks
    refer to an upstream graph records this digest, and decoding checks
    it against the graph in hand.
    """
    cached = sg._analysis_cache.get("state_order_digest")
    if cached is None:
        cached = hashlib.sha256(repr(sg.state_list).encode("utf-8")).hexdigest()[:16]
        sg._analysis_cache["state_order_digest"] = cached
    return cached


def _check_order(data: Dict, sg) -> None:
    if data["order"] != _order_digest(sg):
        raise ArtifactCodingError("state order does not match the upstream graph")


def _sg_to_json(sg) -> Dict:
    """A state graph in its dense form (unlike the ``.sg`` text format,
    arbitrary str/int/tuple state ids survive): packed codes and the
    arcs as three index arrays, in the order they were given, so the
    decoded graph has the same successor and predecessor order."""
    arcs = sg.given_arc_order()
    sources, events, targets = sg.arc_sources, sg.arc_events, sg.arc_targets
    return {
        "name": sg.name,
        "signals": list(sg.signals),
        "inputs": sorted(sg.inputs),
        "states": [_encode_state(state) for state in sg.state_list],
        "codes": sg.packed_codes,
        "sources": [sources[a] for a in arcs],
        "events": [events[a] for a in arcs],
        "targets": [targets[a] for a in arcs],
        "initial": sg.initial_index,
    }


def _sg_from_json(data: Dict):
    from repro.sg.graph import StateGraph

    states = [
        entry if entry.__class__ is str else _decode_state(entry)
        for entry in data["states"]
    ]
    return StateGraph.from_packed(
        data["signals"],
        data["inputs"],
        states,
        data["codes"],
        data["sources"],
        data["events"],
        data["targets"],
        data["initial"],
        name=data["name"],
    )


def _er_to_json(er, engine) -> List:
    try:
        bits = engine.region_bits(("er", er), er.states)
    except KeyError as error:
        raise ArtifactCodingError(f"region state outside the graph: {error}") from error
    return [er.signal, er.direction, er.index, format(bits, "x")]


def _er_from_json(data: List, engine):
    from repro.sg.regions import ExcitationRegion

    signal, direction, index, mask = data
    bits = int(mask, 16)
    er = ExcitationRegion(signal, direction, index, engine.states_of(bits))
    # the region's bitset is the mask itself
    engine.sg._analysis_cache[("bits", ("er", er))] = bits
    return er


def _space_of(sg):
    """The interned signal space of an embedded state graph."""
    from repro.boolean.compiled import SignalSpace

    return SignalSpace.of(tuple(sg.signals))


def _cube_packed(cube, space) -> Optional[List[int]]:
    """A cube as its compiled ``[mask, value]`` pair against ``space``."""
    if cube is None:
        return None
    try:
        compiled = cube.compiled(space)
    except KeyError as error:  # literal outside the embedded graph
        raise ArtifactCodingError(
            f"cube constrains a signal outside the graph: {error}"
        ) from error
    return [compiled.mask, compiled.value]


def _cube_from_packed(data, space):
    from repro.boolean.compiled import CompiledCube

    if data is None:
        return None
    mask, value = data
    return CompiledCube(space, int(mask), int(value)).to_cube()


def _mc_report_to_full_json(report, space) -> Dict:
    """Every verdict with its *full* state sets (unlike the claims-only
    :func:`mc_report_to_json`): loaded reports must be able to drive the
    insertion engine and the synthesiser exactly like fresh ones.  State
    sets are bitmasks over ``report.sg``; MC cubes are stored compiled
    (``[mask, value]`` against ``space``)."""
    engine = _engine(report.sg)
    verdicts = []
    for verdict in report.verdicts:
        verdicts.append(
            {
                "er": _er_to_json(verdict.er, engine),
                "cfr": _states_to_mask(verdict.cfr, engine),
                "unique_entry": verdict.unique_entry,
                "cube": _cube_packed(verdict.mc_cube, space),
                "group": [_er_to_json(er, engine) for er in verdict.group],
                "private": verdict.private,
                "stuck_stable": _states_to_mask(verdict.stuck_stable, engine),
                "stuck_opposite": _states_to_mask(verdict.stuck_opposite, engine),
            }
        )
    return {"verdicts": verdicts}


def _mc_report_from_full_json(data: Dict, sg, space):
    from repro.core.mc import MCReport, RegionVerdict

    engine = _engine(sg)
    verdicts = []
    for entry in data["verdicts"]:
        verdicts.append(
            RegionVerdict(
                er=_er_from_json(entry["er"], engine),
                cfr=_states_from_mask(entry["cfr"], engine),
                unique_entry=entry["unique_entry"],
                mc_cube=_cube_from_packed(entry["cube"], space),
                group=tuple(_er_from_json(er, engine) for er in entry["group"]),
                private=entry["private"],
                stuck_stable=_states_from_mask(entry["stuck_stable"], engine),
                stuck_opposite=_states_from_mask(entry["stuck_opposite"], engine),
            )
        )
    return MCReport(sg=sg, verdicts=verdicts)


def _graph_reference(sg) -> Dict:
    """Payload fields naming an upstream graph: its fingerprint and the
    digest of the state order the payload's bitmasks refer to."""
    from repro.pipeline.artifacts import fingerprint_state_graph

    return {"sg": fingerprint_state_graph(sg), "order": _order_digest(sg)}


def _sg_from_reference(data: Dict, reached):
    """The payload's embedded state graph, or the upstream ``reach``
    graph it names by fingerprint and state order (a mismatch is a
    coding error)."""
    entry = data["sg"]
    if not isinstance(entry, str):
        return _sg_from_json(entry)
    if reached is None or entry != reached.fingerprint:
        raise ArtifactCodingError("state graph reference does not match upstream")
    _check_order(data, reached.sg)
    return reached.sg


def reached_sg_to_json(artifact) -> Dict:
    """Stage ``reach``.  The source STG is not persisted -- no
    downstream stage reads it, and the store key already identifies it."""
    return {
        "sg": _sg_to_json(artifact.sg),
        "fingerprint": artifact.fingerprint,
    }


def reached_sg_from_json(data: Dict):
    from repro.pipeline.artifacts import ReachedSG

    sg = _sg_from_json(data["sg"])
    # the recorded digest is fingerprint_state_graph(sg); seeding its
    # cache spares downstream references a re-hash of the whole graph
    sg._analysis_cache["pipeline_fingerprint"] = data["fingerprint"]
    return ReachedSG(sg=sg, source=None, fingerprint=data["fingerprint"])


def region_map_to_json(artifact, reached=None) -> Dict:
    """Stage ``regions``: the region tuple in analysis order, each
    region's states a bitmask over the upstream reach graph."""
    if reached is None:
        raise ArtifactCodingError("regions refer to the upstream reach graph")
    engine = _engine(reached.sg)
    return dict(
        _graph_reference(reached.sg),
        regions=[_er_to_json(er, engine) for er in artifact.regions],
        fingerprint=artifact.fingerprint,
    )


def region_map_from_json(data: Dict, reached=None):
    from repro.pipeline.artifacts import RegionMap

    engine = _engine(_sg_from_reference(data, reached))
    return RegionMap(
        regions=tuple(_er_from_json(er, engine) for er in data["regions"]),
        fingerprint=data["fingerprint"],
    )


def mc_verdict_to_json(artifact, *_upstream) -> Dict:
    """Stage ``mc``: the full report (verdict state sets included); the
    analysed graph -- the upstream reach graph -- by reference."""
    sg = artifact.report.sg
    return dict(
        _graph_reference(sg),
        report=_mc_report_to_full_json(artifact.report, _space_of(sg)),
        backend=artifact.backend,
        fingerprint=artifact.fingerprint,
    )


def mc_verdict_from_json(data: Dict, reached=None):
    from repro.pipeline.artifacts import MCVerdict

    sg = _sg_from_reference(data, reached)
    return MCVerdict(
        report=_mc_report_from_full_json(data["report"], sg, _space_of(sg)),
        backend=data["backend"],
        fingerprint=data["fingerprint"],
    )


def _network_to_json(network, space, engine) -> Dict:
    def region_mapping(mapping) -> List:
        return [
            [_cube_packed(cube, space), [_er_to_json(er, engine) for er in regions]]
            for cube, regions in mapping.items()
        ]

    return {
        "set_cover": [_cube_packed(c, space) for c in network.set_cover.cubes],
        "reset_cover": [_cube_packed(c, space) for c in network.reset_cover.cubes],
        "set_regions": region_mapping(network.set_regions),
        "reset_regions": region_mapping(network.reset_regions),
        "degenerate_set": network.degenerate_set,
        "degenerate_reset": network.degenerate_reset,
    }


def _network_from_json(signal: str, data: Dict, space, engine):
    from repro.boolean.cover import Cover
    from repro.core.synthesis import SignalNetwork

    def region_mapping(entries) -> Dict:
        return {
            _cube_from_packed(cube, space): tuple(
                _er_from_json(er, engine) for er in regions
            )
            for cube, regions in entries
        }

    return SignalNetwork(
        signal=signal,
        set_cover=Cover(
            [_cube_from_packed(c, space) for c in data["set_cover"]]
        ),
        reset_cover=Cover(
            [_cube_from_packed(c, space) for c in data["reset_cover"]]
        ),
        set_regions=region_mapping(data["set_regions"]),
        reset_regions=region_mapping(data["reset_regions"]),
        degenerate_set=data["degenerate_set"],
        degenerate_reset=data["degenerate_reset"],
    )


def cover_plan_to_json(artifact, reached=None, mc=None) -> Dict:
    """Stage ``covers``: insertion outcome + implementation, faithfully.

    Graph and report are references when they are the upstream
    ``reached.sg`` / ``mc.report`` objects (insertion added no signal).
    Region state sets are bitmasks over the plan's graph.  Cube order
    inside each cover is preserved (it determines gate naming and
    equation text downstream).  The per-round SAT labellings are the
    one thing dropped: nothing downstream reads them.
    """
    insertion = artifact.insertion
    implementation = artifact.implementation
    if implementation.sg is not insertion.sg:
        raise ArtifactCodingError(
            "insertion and implementation disagree on the state graph"
        )
    sg = insertion.sg
    space = _space_of(sg)
    engine = _engine(sg)
    sg_is_upstream = reached is not None and sg is reached.sg
    report_is_upstream = mc is not None and insertion.report is mc.report
    graph = _graph_reference(sg) if sg_is_upstream else {"sg": _sg_to_json(sg)}
    return dict(
        graph,
        report=(
            mc.fingerprint
            if report_is_upstream
            else _mc_report_to_full_json(insertion.report, space)
        ),
        rounds=[
            {
                "signal": r.signal,
                "failures_before": r.failures_before,
                "failures_after": r.failures_after,
                "models_tried": r.models_tried,
            }
            for r in insertion.rounds
        ],
        networks={
            signal: _network_to_json(network, space, engine)
            for signal, network in implementation.networks.items()
        },
        shared=implementation.shared,
        method=implementation.method,
        fingerprint=artifact.fingerprint,
    )


def cover_plan_from_json(data: Dict, reached=None, mc=None):
    from repro.core.insertion import InsertionResult, InsertionRound
    from repro.core.synthesis import Implementation
    from repro.pipeline.artifacts import CoverPlan

    sg = _sg_from_reference(data, reached)
    space = _space_of(sg)
    engine = _engine(sg)
    if not isinstance(data["report"], str):
        report = _mc_report_from_full_json(data["report"], sg, space)
    elif mc is not None and data["report"] == mc.fingerprint:
        report = mc.report
    else:
        raise ArtifactCodingError("MC report reference does not match upstream")
    rounds = [
        InsertionRound(
            signal=entry["signal"],
            labelling={},  # the SAT labelling is not persisted
            failures_before=entry["failures_before"],
            failures_after=entry["failures_after"],
            models_tried=entry["models_tried"],
        )
        for entry in data["rounds"]
    ]
    implementation = Implementation(
        sg=sg,
        networks={
            signal: _network_from_json(signal, entry, space, engine)
            for signal, entry in data["networks"].items()
        },
        shared=data["shared"],
        method=data["method"],
    )
    return CoverPlan(
        insertion=InsertionResult(sg=sg, report=report, rounds=rounds),
        implementation=implementation,
        fingerprint=data["fingerprint"],
    )


def synthesized_netlist_to_json(artifact) -> Dict:
    """Stage ``netlist``: the netlist faithfully, the hazard report as
    its verdict (no downstream stage consumes the witness traces)."""
    from repro.netlist.io import netlist_to_json

    return {
        "netlist": json.loads(netlist_to_json(artifact.netlist)),
        "hazard": _hazard_to_json(artifact.hazard_report),
        "fingerprint": artifact.fingerprint,
    }


def synthesized_netlist_from_json(data: Dict):
    from repro.netlist.io import netlist_from_json
    from repro.pipeline.artifacts import SynthesizedNetlist

    netlist = netlist_from_json(json.dumps(data["netlist"]))
    hazard = _hazard_from_json(data["hazard"])
    if hazard is not None:
        hazard.netlist = netlist
    return SynthesizedNetlist(
        netlist=netlist,
        hazard_report=hazard,
        fingerprint=data["fingerprint"],
    )


#: stage name -> (encode, decode) for the persistent artifact store
STAGE_CODECS = {
    "reach": (reached_sg_to_json, reached_sg_from_json),
    "regions": (region_map_to_json, region_map_from_json),
    "mc": (mc_verdict_to_json, mc_verdict_from_json),
    "covers": (cover_plan_to_json, cover_plan_from_json),
    "netlist": (synthesized_netlist_to_json, synthesized_netlist_from_json),
}


def stage_artifact_to_json(stage: str, artifact, upstream: Tuple = ()) -> Dict:
    """Serialise one pipeline stage artifact for the persistent store.

    Parts that are ``upstream`` artifacts' (``(reached,)`` for
    ``regions`` and ``mc``, ``(reached, mc)`` for ``covers``) are
    written as references.
    Raises :class:`ArtifactCodingError` when the artifact cannot be
    spilled faithfully and :class:`KeyError` for an unknown stage.
    """
    encode, _ = STAGE_CODECS[stage]
    return encode(artifact, *upstream)


def stage_artifact_from_json(stage: str, data: Dict, upstream: Tuple = ()):
    """Rebuild one pipeline stage artifact from its store payload;
    references resolve against ``upstream`` (a mismatch raises
    :class:`ArtifactCodingError`)."""
    _, decode = STAGE_CODECS[stage]
    return decode(data, *upstream)


# ----------------------------------------------------------------------
# Canonical-JSON fingerprints (batch manifests / resume journals)
# ----------------------------------------------------------------------
def canonical_json(document) -> str:
    """``document`` as canonical compact JSON (sorted keys, no spaces).

    This is the byte form that fingerprints are computed over, so it
    must stay stable: the batch resume check compares fingerprints of
    option blocks recorded by *earlier* runs.
    """
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def fingerprint_document(document) -> str:
    """SHA-256 hex digest of ``document``'s canonical JSON form."""
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


def fingerprint_file(path: str) -> str:
    """SHA-256 hex digest of a file's bytes, ``""`` if unreadable.

    Identifies a batch design's *specification content* independently
    of its path, mtime or store placement -- the staleness test behind
    ``repro-si batch --resume``.
    """
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return ""


__all__ = [
    "ArtifactCodingError",
    "DetachedHazardReport",
    "STAGE_CODECS",
    "canonical_json",
    "fingerprint_document",
    "fingerprint_file",
    "mc_report_to_json",
    "pipeline_result_to_json",
    "stage_artifact_from_json",
    "stage_artifact_to_json",
]
