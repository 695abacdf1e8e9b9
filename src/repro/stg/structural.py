"""Structural classes of Petri nets underlying STGs.

* **Marked graph**: every place has at most one input and one output
  transition -- no choice at all.  Yu & Subrahmanyam's method [14] is
  restricted to this class; the paper's method is not, which Example 1
  (an input choice) exercises.
* **Free choice**: if a place has several output transitions, it is the
  unique input place of each of them -- choices are "clean".
* **Live and safe** (on the explored reachability graph): every
  transition remains fireable from every reachable marking, and no
  firing ever violates 1-safeness.  Both are read off the packed
  exploration of :func:`repro.stg.reachability.explore` (integer
  markings, index arcs): safeness is checked while it fires, liveness
  is one linear pass over the marking graph's bottom strongly
  connected components.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.stg.petrinet import PetriNet
from repro.stg.stg import STG


def is_marked_graph(net: PetriNet) -> bool:
    """Every place has at most one producer and one consumer."""
    return all(
        len(net.place_preset[p]) <= 1 and len(net.place_postset[p]) <= 1
        for p in net.places
    )


def is_free_choice(net: PetriNet) -> bool:
    """Every choice place is the unique input of its output transitions."""
    for place in net.places:
        consumers = net.place_postset[place]
        if len(consumers) > 1:
            for transition in consumers:
                if net.preset[transition] != {place}:
                    return False
    return True


def is_live_and_safe(stg: STG, max_states: int = 200_000) -> bool:
    """Liveness + safeness over the explored reachability graph.

    Safeness is enforced by exploration itself (unsafe nets raise).
    Liveness is decided by :func:`is_live_marking_graph`: a finite
    marking graph is live iff every bottom strongly connected component
    fires every transition (Murata, *Petri nets: properties, analysis
    and applications*, Proc. IEEE 1989).
    """
    from repro.stg.reachability import ReachabilityError, explore

    try:
        exploration = explore(stg, max_states=max_states)
    except ReachabilityError:
        return False
    return is_live_marking_graph(
        len(exploration.markings), exploration.arcs, len(exploration.transitions)
    )


def is_live_marking_graph(
    count: int, arcs: Iterable[Tuple[int, int, int]], transitions: int
) -> bool:
    """Every transition stays fireable from every marking of the graph.

    The graph has markings ``0 .. count-1`` and ``transitions``
    transitions; ``arcs`` lists ``(marking, transition, marking')``
    index triples, as :func:`~repro.stg.reachability.explore` returns
    them.  A finite marking graph is live iff every bottom strongly
    connected component (one no arc leaves) fires every transition
    (Murata 1989).  One iterative Tarjan pass finds the components in
    linear time; the transitions a component fires are one bitmask.  A
    marking without successors is a bottom component firing nothing,
    which is live only for a net without transitions.
    """
    everything = (1 << transitions) - 1
    successors: List[List[int]] = [[] for _ in range(count)]
    fired = [0] * count
    for source, transition, target in arcs:
        successors[source].append(target)
        fired[source] |= 1 << transition

    index = [-1] * count
    low = [0] * count
    component = [-1] * count
    stack: List[int] = []
    counter = 0
    for root in range(count):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        calls = [(root, 0)]
        while calls:
            node, position = calls[-1]
            edges = successors[node]
            if position < len(edges):
                calls[-1] = (node, position + 1)
                target = edges[position]
                if index[target] < 0:
                    index[target] = low[target] = counter
                    counter += 1
                    stack.append(target)
                    calls.append((target, 0))
                elif component[target] < 0 and index[target] < low[node]:
                    low[node] = index[target]
                continue
            calls.pop()
            if calls:
                parent = calls[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] != index[node]:
                continue
            members: List[int] = []
            while True:
                member = stack.pop()
                component[member] = node
                members.append(member)
                if member == node:
                    break
            # every successor is already in a finished component, so the
            # component is bottom iff no arc leaves it
            bottom = all(
                component[target] == node
                for member in members
                for target in successors[member]
            )
            if bottom:
                seen = 0
                for member in members:
                    seen |= fired[member]
                if seen != everything:
                    return False
    return True
