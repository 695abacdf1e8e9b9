"""Covers: sums of cubes (two-level SOP forms).

A :class:`Cover` is an ordered collection of :class:`~repro.boolean.cube.Cube`
objects interpreted as their disjunction.  The paper's excitation functions
``Sa`` / ``Ra`` are covers whose cubes are monotonous covers of excitation
regions (Theorem 3); Section VI allows a cube to be shared between several
regions (Theorem 5), which makes the cover the natural unit for the
synthesised logic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.boolean.cube import Cube


class Cover:
    """An immutable sum (disjunction) of cubes."""

    __slots__ = ("_cubes",)

    def __init__(self, cubes: Iterable[Cube] = ()):
        seen = []
        for cube in cubes:
            if not isinstance(cube, Cube):
                raise TypeError(f"expected Cube, got {type(cube).__name__}")
            if cube not in seen:
                seen.append(cube)
        self._cubes: Tuple[Cube, ...] = tuple(seen)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cubes(self) -> Tuple[Cube, ...]:
        return self._cubes

    @property
    def signals(self) -> frozenset:
        """All signals appearing in some cube of the cover."""
        result = set()
        for cube in self._cubes:
            result |= cube.signals
        return frozenset(result)

    def __len__(self) -> int:
        return len(self._cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self._cubes)

    def __bool__(self) -> bool:
        return bool(self._cubes)

    def is_empty(self) -> bool:
        """True for the constant-0 cover (no cubes)."""
        return not self._cubes

    def literal_count(self) -> int:
        """Total number of literals; the paper's area proxy for SOP logic."""
        return sum(len(cube) for cube in self._cubes)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def covers(self, code: Mapping[str, int]) -> bool:
        """True if some cube of the cover evaluates to 1 on ``code``."""
        return any(cube.covers(code) for cube in self._cubes)

    def covering_cubes(self, code: Mapping[str, int]) -> List[Cube]:
        """All cubes that cover ``code`` (used for 'one gate on' checks)."""
        return [cube for cube in self._cubes if cube.covers(code)]

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def union(self, other: "Cover") -> "Cover":
        return Cover(self._cubes + other._cubes)

    def with_cube(self, cube: Cube) -> "Cover":
        return Cover(self._cubes + (cube,))

    def contains_cube(self, cube: Cube) -> bool:
        """Single-cube containment check against each cover cube.

        This is a sufficient (not necessary) syntactic test: True when one
        cube of the cover contains ``cube`` outright.
        """
        return any(existing.contains(cube) for existing in self._cubes)

    def irredundant(self, keep: Optional[Iterable[Cube]] = None) -> "Cover":
        """Drop cubes single-cube-contained in another cube of the cover.

        ``keep`` lists cubes that must not be dropped even if contained.
        """
        protected = set(keep or ())
        kept: List[Cube] = []
        for i, cube in enumerate(self._cubes):
            if cube in protected:
                kept.append(cube)
                continue
            others = [c for j, c in enumerate(self._cubes) if j != i]
            if not any(other.contains(cube) for other in others):
                kept.append(cube)
        return Cover(kept)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return set(self._cubes) == set(other._cubes)

    def __hash__(self) -> int:
        return hash(frozenset(self._cubes))

    def __repr__(self) -> str:
        if not self._cubes:
            return "Cover(0)"
        return "Cover(" + " + ".join(repr(c)[5:-1] or "1" for c in self._cubes) + ")"
