"""Ordinary Petri nets: the structure under a signal transition graph.

Places and transitions are identified by strings.  All arcs have weight
one (ordinary nets); the STG interpretation of asynchronous control
requires 1-safe behaviour, which the reachability analysis enforces
dynamically (a marking trying to put a second token on a place is
reported as a safeness violation).

This module holds the net's structure only.  A marking is given as a
``frozenset`` of marked places (an STG's initial marking, a delta's
``SetMarking``); the firing rule lives in one place,
:func:`repro.stg.reachability.explore`, which numbers the places in
sorted order and fires on markings packed into integers.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set, Tuple

Marking = FrozenSet[str]


class PetriNet:
    """An ordinary Petri net.

    Parameters
    ----------
    places / transitions:
        Disjoint sets of identifiers.
    arcs:
        ``(source, target)`` pairs; each arc must connect a place and a
        transition (either direction).
    """

    def __init__(
        self,
        places: Iterable[str],
        transitions: Iterable[str],
        arcs: Iterable[Tuple[str, str]],
    ):
        self.places: Set[str] = set(places)
        self.transitions: Set[str] = set(transitions)
        overlap = self.places & self.transitions
        if overlap:
            raise ValueError(f"ids used as both place and transition: {sorted(overlap)}")
        self.preset: Dict[str, Set[str]] = {t: set() for t in self.transitions}
        self.postset: Dict[str, Set[str]] = {t: set() for t in self.transitions}
        self.place_preset: Dict[str, Set[str]] = {p: set() for p in self.places}
        self.place_postset: Dict[str, Set[str]] = {p: set() for p in self.places}
        for source, target in arcs:
            if source in self.places and target in self.transitions:
                self.preset[target].add(source)
                self.place_postset[source].add(target)
            elif source in self.transitions and target in self.places:
                self.postset[source].add(target)
                self.place_preset[target].add(source)
            else:
                raise ValueError(
                    f"arc ({source!r}, {target!r}) must connect a place and a transition"
                )

    # ------------------------------------------------------------------
    def check_connected(self) -> bool:
        """Weak connectivity of the net graph (places + transitions)."""
        nodes = self.places | self.transitions
        if not nodes:
            return True
        neighbours: Dict[str, Set[str]] = {n: set() for n in nodes}
        for transition in self.transitions:
            for place in self.preset[transition]:
                neighbours[transition].add(place)
                neighbours[place].add(transition)
            for place in self.postset[transition]:
                neighbours[transition].add(place)
                neighbours[place].add(transition)
        seen = set()
        frontier = [next(iter(nodes))]
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(neighbours[node] - seen)
        return seen == nodes

    def __repr__(self) -> str:
        return (
            f"PetriNet({len(self.places)} places, "
            f"{len(self.transitions)} transitions)"
        )
