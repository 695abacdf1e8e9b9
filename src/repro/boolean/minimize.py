"""Exact two-level minimisation of incompletely specified functions.

The synthesis flow uses this for the Section-VI optimisation: once the set
of candidate (generalised) monotonous-cover cubes is known, picking the
smallest subset that covers every excitation region exactly once is a
covering problem.  The machinery here is a classic Quine--McCluskey prime
generator plus a branch-and-bound unate-covering solver, over functions
given as explicit on/off/dc sets of state codes.

Functions are specified over *named* signals (consistent with the rest of
the library); internally minterms are packed ints against an interned
:class:`~repro.boolean.compiled.SignalSpace` and implicants are the
``(mask, value)`` pairs of :meth:`Cube.compiled
<repro.boolean.cube.Cube.compiled>`, so the cover test is one AND plus one
compare and the QM merge is pure bit arithmetic.  Only the chosen primes
become :class:`~repro.boolean.cube.Cube` objects (:meth:`Cube.from_mask
<repro.boolean.cube.Cube.from_mask>`).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.boolean.compiled import SignalSpace, popcount
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube

#: an implicant: ``mask`` has a 1-bit for every cared position, ``value``
#: holds the required values on those bits
_Implicant = Tuple[int, int]


def generate_prime_cubes(
    space: SignalSpace, on_minterms: Set[int], dc_minterms: Set[int]
) -> List[_Implicant]:
    """All prime implicants of the function (Quine--McCluskey).

    ``on_minterms``/``dc_minterms`` are disjoint sets of packed minterms
    against ``space``.  Implicants are ``(mask, value)`` pairs (mask =
    cared positions): two implicants with the same mask merge when their
    values differ in exactly one cared bit, clearing that bit from both
    words.  Primes that cover no on-set minterm (pure don't-care primes)
    are dropped.  The result is canonically ordered by (literal count,
    mask, value).
    """
    full = space.full_mask
    current: Set[_Implicant] = {(full, m) for m in on_minterms | dc_minterms}
    primes: Set[_Implicant] = set()
    while current:
        merged_from: Set[_Implicant] = set()
        next_level: Set[_Implicant] = set()
        grouped: dict = {}
        for implicant in current:
            grouped.setdefault(implicant[0], []).append(implicant)
        for mask, implicants in grouped.items():
            by_value = set(v for _, v in implicants)
            probe = mask
            while probe:
                bit = probe & -probe
                probe ^= bit
                for value in by_value:
                    if value & bit:
                        continue  # canonical side: merge from the 0-value
                    if value ^ bit in by_value:
                        next_level.add((mask ^ bit, value))
                        merged_from.add((mask, value))
                        merged_from.add((mask, value ^ bit))
        primes |= current - merged_from
        current = next_level
    return sorted(
        (
            (mask, value)
            for mask, value in primes
            if any(m & mask == value for m in on_minterms)
        ),
        key=lambda pair: (popcount(pair[0]), pair[0], pair[1]),
    )


def solve_covering(
    rows: Sequence[FrozenSet[int]],
    universe: Set[int],
    cost: Optional[Sequence[int]] = None,
) -> List[int]:
    """Minimum-cost set cover by branch and bound.

    ``rows[i]`` is the subset of ``universe`` covered by candidate ``i``;
    ``cost[i]`` its cost (default 1 each).  Returns indices of a
    minimum-cost cover.  Raises ``ValueError`` if the universe cannot be
    covered.
    """
    if cost is None:
        cost = [1] * len(rows)
    reachable = set()
    for row in rows:
        reachable |= row
    if not universe <= reachable:
        missing = universe - reachable
        raise ValueError(f"universe elements not coverable: {sorted(missing)[:5]}")

    best_choice: List[int] = list(range(len(rows)))
    best_cost = sum(cost) + 1

    def essential_and_reduce(
        remaining: Set[int], available: List[int]
    ) -> Tuple[List[int], Set[int], List[int]]:
        """Pick essential candidates and drop dominated ones."""
        chosen: List[int] = []
        remaining = set(remaining)
        available = list(available)
        changed = True
        while changed and remaining:
            changed = False
            for element in list(remaining):
                covering = [i for i in available if element in rows[i]]
                if len(covering) == 1:
                    index = covering[0]
                    chosen.append(index)
                    remaining -= rows[index]
                    available.remove(index)
                    changed = True
                    break
        return chosen, remaining, available

    def branch(remaining: Set[int], available: List[int], spent: int, picked: List[int]):
        nonlocal best_choice, best_cost
        chosen, remaining, available = essential_and_reduce(remaining, available)
        spent += sum(cost[i] for i in chosen)
        picked = picked + chosen
        if spent >= best_cost:
            return
        if not remaining:
            best_choice = picked
            best_cost = spent
            return
        # Branch on the element covered by the fewest candidates.
        element = min(
            remaining, key=lambda e: sum(1 for i in available if e in rows[i])
        )
        covering = sorted(
            (i for i in available if element in rows[i]),
            key=lambda i: (cost[i] / max(1, len(rows[i] & remaining))),
        )
        if not covering:
            return
        for index in covering:
            rest = [i for i in available if i != index]
            branch(remaining - rows[index], rest, spent + cost[index], picked + [index])

    branch(set(universe), list(range(len(rows))), 0, [])
    if best_cost > sum(cost):
        raise ValueError("covering search failed")  # pragma: no cover - guarded above
    return sorted(best_choice)


def minimize_onset(
    signals: Sequence[str],
    on_codes: Iterable[Mapping[str, int]],
    dc_codes: Iterable[Mapping[str, int]] = (),
) -> Cover:
    """Exact minimum-cube SOP for an incompletely specified function.

    Parameters
    ----------
    signals:
        Ordered signal names; every code must assign each of them.
    on_codes / dc_codes:
        State codes where the function must be 1 / may be either.

    Returns the minimum-cardinality prime cover as a :class:`Cover`
    of the primes the solver picked.
    """
    space = SignalSpace.of(tuple(signals))
    on = {space.pack(code) for code in on_codes}
    dc = {space.pack(code) for code in dc_codes} - on
    if not on:
        return Cover()
    primes = generate_prime_cubes(space, on, dc)
    rows = [frozenset(m for m in on if m & mask == value) for mask, value in primes]
    chosen = solve_covering(rows, set(on))
    return Cover(Cube.from_mask(space, *primes[i]) for i in chosen)
