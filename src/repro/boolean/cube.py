"""Product terms (cubes) over named Boolean signals.

A *cube* is a conjunction of literals.  Each literal constrains one signal
to a fixed value (0 or 1); signals without a literal are don't-cares.  The
paper manipulates cubes over the signals of a state graph: a *cover cube*
``c(*a_i)`` for an excitation region is exactly such a product term
(Definition 15), and a minterm of a state is the cube fixing every signal
(Lemma 3 derives the smallest cover cube from the minterm of the minimal
state of the region).

Cubes here are immutable and hashable so they can live in sets, serve as
dictionary keys during cover selection, and be compared structurally.

The literal dict is the one product-term form.  Against an interned
:class:`~repro.boolean.compiled.SignalSpace` a cube is also the
``(mask, value)`` pair of :meth:`Cube.compiled` (memoised per space), and
:meth:`Cube.from_mask` turns such a pair back into a cube.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.boolean.compiled import SignalSpace


class Cube:
    """An immutable product term over named signals.

    A cube maps a subset of signal names to required values (0 or 1).
    The empty cube (no literals) is the universal cube: it covers every
    state.

    Parameters
    ----------
    literals:
        A mapping (or iterable of pairs) from signal name to required
        value.  Values must be 0 or 1.
    """

    __slots__ = ("_literals", "_hash", "_compiled", "_sorted")

    def __init__(self, literals: Mapping[str, int] | Iterable[Tuple[str, int]] = ()):
        items = dict(literals)
        for signal, value in items.items():
            if value not in (0, 1):
                raise ValueError(
                    f"literal value for {signal!r} must be 0 or 1, got {value!r}"
                )
        self._literals: Dict[str, int] = items
        self._hash: Optional[int] = None
        #: interned SignalSpace -> (mask, value) (memoised per space)
        self._compiled: Optional[Dict[SignalSpace, Tuple[int, int]]] = None
        self._sorted: Optional[Tuple[Tuple[str, int], ...]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def universal(cls) -> "Cube":
        """The cube with no literals; covers every state."""
        return cls()

    @classmethod
    def minterm(cls, code: Mapping[str, int]) -> "Cube":
        """The minterm fixing every signal of ``code`` to its value."""
        return cls(dict(code))

    @classmethod
    def from_vector(cls, signals: Sequence[str], vector: Sequence[int]) -> "Cube":
        """Build a minterm from a signal ordering and a 0/1 vector."""
        if len(signals) != len(vector):
            raise ValueError("signals and vector must have the same length")
        return cls(dict(zip(signals, vector)))

    @classmethod
    def from_mask(cls, space: SignalSpace, mask: int, value: int) -> "Cube":
        """The cube of a ``(mask, value)`` pair against ``space``.

        The inverse of :meth:`compiled`.  Raises ``ValueError`` when
        ``mask`` constrains positions outside the space or ``value`` sets
        bits outside ``mask``.
        """
        if mask & ~space.full_mask:
            raise ValueError("mask constrains positions outside the space")
        if value & ~mask:
            raise ValueError("value sets bits outside the mask")
        signals = space.signals
        literals = {}
        while mask:
            low = mask & -mask
            mask ^= low
            literals[signals[low.bit_length() - 1]] = 1 if value & low else 0
        return cls(literals)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def literals(self) -> Tuple[Tuple[str, int], ...]:
        """The literals as a sorted tuple of ``(signal, value)`` pairs."""
        cached = self._sorted
        if cached is None:
            cached = self._sorted = tuple(sorted(self._literals.items()))
        return cached

    @property
    def signals(self) -> frozenset:
        """The set of signals constrained by this cube."""
        return frozenset(self._literals)

    def value_of(self, signal: str) -> Optional[int]:
        """The required value for ``signal``, or ``None`` if don't-care."""
        return self._literals.get(signal)

    def __len__(self) -> int:
        return len(self._literals)

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(self.literals)

    def __contains__(self, signal: str) -> bool:
        return signal in self._literals

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def covers(self, code: Mapping[str, int]) -> bool:
        """True if the cube evaluates to 1 on the given complete code."""
        get = code.__getitem__ if not hasattr(code, "get") else code.get
        for signal, value in self._literals.items():
            if get(signal) != value:
                return False
        return True

    def compiled(self, space: SignalSpace) -> Tuple[int, int]:
        """The cube as a ``(mask, value)`` pair against one space.

        ``mask`` has a 1-bit for every constrained position of
        ``space.signals`` and ``value`` the required values on those bits,
        so the cube covers a packed code ``p`` iff ``p & mask == value``
        -- one AND plus one compare, independent of the literal count.

        The pair is memoised per interned space (a cube is typically
        queried against exactly one graph's ordering thousands of times).
        """
        cache = self._compiled
        if cache is None:
            cache = self._compiled = {}
        cached = cache.get(space)
        if cached is None:
            position_of = space.position
            mask = value = 0
            for signal, bit_value in self._literals.items():
                bit = 1 << position_of[signal]
                mask |= bit
                if bit_value:
                    value |= bit
            cached = cache[space] = (mask, value)
        return cached

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def intersect(self, other: "Cube") -> Optional["Cube"]:
        """The product of two cubes, or ``None`` if they are disjoint."""
        merged = dict(self._literals)
        for signal, value in other._literals.items():
            existing = merged.get(signal)
            if existing is None:
                merged[signal] = value
            elif existing != value:
                return None
        return Cube(merged)

    def contains(self, other: "Cube") -> bool:
        """True if every state covered by ``other`` is covered by self.

        Cube containment: self ⊇ other iff every literal of self appears in
        other with the same value.
        """
        for signal, value in self._literals.items():
            if other._literals.get(signal) != value:
                return False
        return True

    def without(self, signals: Iterable[str]) -> "Cube":
        """A copy of the cube with literals on ``signals`` removed."""
        drop = set(signals)
        return Cube({s: v for s, v in self._literals.items() if s not in drop})

    def restricted_to(self, signals: Iterable[str]) -> "Cube":
        """A copy keeping only literals on ``signals``."""
        keep = set(signals)
        return Cube({s: v for s, v in self._literals.items() if s in keep})

    def expand(self, signal: str) -> "Cube":
        """Drop one literal (raise the cube along ``signal``)."""
        if signal not in self._literals:
            raise KeyError(f"cube has no literal on {signal!r}")
        return self.without((signal,))

    def with_literal(self, signal: str, value: int) -> "Cube":
        """Add (or overwrite) one literal."""
        merged = dict(self._literals)
        merged[signal] = value
        return Cube(merged)

    def supercube(self, other: "Cube") -> "Cube":
        """The smallest cube containing both cubes."""
        kept = {}
        for signal, value in self._literals.items():
            if other._literals.get(signal) == value:
                kept[signal] = value
        return Cube(kept)

    @staticmethod
    def supercube_of_codes(
        codes: Iterable[Mapping[str, int]], signals: Iterable[str]
    ) -> "Cube":
        """The smallest cube covering every code in ``codes``.

        Only signals listed in ``signals`` are considered for literals.
        Raises ``ValueError`` on an empty code collection (the empty set
        has no well-defined supercube).
        """
        iterator = iter(codes)
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("supercube of an empty set of codes is undefined")
        kept = {s: first[s] for s in signals}
        for code in iterator:
            for signal in [s for s, v in kept.items() if code[s] != v]:
                del kept[signal]
            if not kept:
                break
        return Cube(kept)

    def distance(self, other: "Cube") -> int:
        """Number of signals on which the two cubes have opposite literals."""
        count = 0
        for signal, value in self._literals.items():
            opposite = other._literals.get(signal)
            if opposite is not None and opposite != value:
                count += 1
        return count

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cube):
            return NotImplemented
        return self._literals == other._literals

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._literals.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._literals:
            return "Cube(1)"
        body = " ".join(
            s if v else f"{s}'" for s, v in sorted(self._literals.items())
        )
        return f"Cube({body})"
