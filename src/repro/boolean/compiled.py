"""The compiled cube/cover IR: mask-value big-int product terms.

Every layer of the library ultimately asks the same two questions --
*does this cube cover this code* and *how do two cubes relate* -- and
answers them thousands of times inside the synthesis loops.  This module
is the single compiled representation those answers bottom out in:

* a :class:`SignalSpace` interns an *ordered* universe of signal names
  (one per state graph / netlist) and packs complete codes into single
  big ints, bit ``i`` holding the value of ``signals[i]``;
* a :class:`CompiledCube` is a product term as a ``(mask, value)`` pair
  against one space -- it covers a packed code ``p`` iff
  ``p & mask == value``, one AND plus one compare regardless of the
  literal count;
* a :class:`CompiledCover` is an ordered sum of compiled cubes (the
  two-level SOP form the paper's excitation functions take).

Cube algebra becomes word-parallel bit arithmetic:

===============  ====================================================
operation        big-int form
===============  ====================================================
containment      ``self.mask & other.mask == self.mask`` and
                 ``other.value & self.mask == self.value``
intersection     disjoint iff ``(va ^ vb) & ma & mb`` is non-zero,
                 else ``(ma | mb, va | vb)``
supercube        keep ``ma & mb & ~(va ^ vb)``
distance         popcount of ``ma & mb & (va ^ vb)``
===============  ====================================================

The literal-dict classes (:class:`repro.boolean.cube.Cube`,
:class:`repro.boolean.cover.Cover`) remain the construction-time API and
compile into this IR on first use; ``to_cube()`` / ``to_cover()`` are
the thin views back.  The state-graph bitmask engine
(:mod:`repro.sg.bitengine`), the netlist evaluators
(:mod:`repro.netlist.gates`) and the persistent-store codecs
(:mod:`repro.pipeline.serialize`) all consume this module directly
instead of keeping private packed encodings.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple


def popcount(word: int) -> int:
    """Number of set bits (3.9-compatible; ``int.bit_count`` is 3.10+)."""
    return bin(word).count("1")


class SignalSpace:
    """An interned, ordered universe of Boolean signal names.

    Spaces are interned on their signal tuple: ``SignalSpace.of(order)``
    returns the *same* object for the same ordering, so compiled cubes
    memoised per space never duplicate work across the analyses of one
    graph, and identity comparison (``a.space is b.space``) is the
    compatibility check for packed operations.

    Construct via :meth:`of`; the constructor itself is not interned.
    """

    __slots__ = ("signals", "position", "width", "full_mask")

    #: interning table: signal tuple -> space (one per distinct ordering;
    #: orderings are per-graph/netlist, so this stays small)
    _interned: Dict[Tuple[str, ...], "SignalSpace"] = {}

    def __init__(self, signals: Sequence[str]):
        ordered = tuple(signals)
        if len(set(ordered)) != len(ordered):
            raise ValueError("signal names must be unique")
        self.signals: Tuple[str, ...] = ordered
        self.position: Dict[str, int] = {s: i for i, s in enumerate(ordered)}
        self.width: int = len(ordered)
        self.full_mask: int = (1 << len(ordered)) - 1

    @classmethod
    def of(cls, signals: Sequence[str]) -> "SignalSpace":
        """The interned space for an ordering (one object per tuple)."""
        key = tuple(signals)
        space = cls._interned.get(key)
        if space is None:
            space = cls._interned[key] = cls(key)
        return space

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------
    def pack(self, code: Mapping[str, int]) -> int:
        """A complete ``signal -> value`` code as one packed int."""
        word = 0
        for position, signal in enumerate(self.signals):
            if code[signal]:
                word |= 1 << position
        return word

    def pack_vector(self, vector: Sequence[int]) -> int:
        """A 0/1 vector ordered as ``self.signals`` as one packed int."""
        word = 0
        for position, value in enumerate(vector):
            if value:
                word |= 1 << position
        return word

    def unpack(self, word: int) -> Dict[str, int]:
        """The packed code back as a ``signal -> value`` dict."""
        return {
            signal: (word >> position) & 1
            for position, signal in enumerate(self.signals)
        }

    def unpack_vector(self, word: int) -> Tuple[int, ...]:
        """The packed code as a 0/1 tuple ordered as ``self.signals``."""
        return tuple((word >> position) & 1 for position in range(self.width))

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def index(self, signal: str) -> int:
        return self.position[signal]

    def __len__(self) -> int:
        return self.width

    def __contains__(self, signal: str) -> bool:
        return signal in self.position

    def __repr__(self) -> str:
        return f"SignalSpace({', '.join(self.signals)})"


class CompiledCube:
    """A product term compiled against one :class:`SignalSpace`.

    ``mask`` has a 1-bit for every constrained signal position; ``value``
    holds the required values on exactly those bits (``value & ~mask``
    must be 0).  The universal cube is ``(0, 0)``.
    """

    __slots__ = ("space", "mask", "value")

    def __init__(self, space: SignalSpace, mask: int, value: int):
        if mask & ~space.full_mask:
            raise ValueError("mask constrains positions outside the space")
        if value & ~mask:
            raise ValueError("value sets bits outside the mask")
        self.space = space
        self.mask = mask
        self.value = value

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_literals(
        cls, space: SignalSpace, literals: Iterable[Tuple[str, int]]
    ) -> "CompiledCube":
        position_of = space.position
        mask = 0
        value = 0
        for signal, bit_value in literals:
            bit = 1 << position_of[signal]
            mask |= bit
            if bit_value:
                value |= bit
        return cls(space, mask, value)

    @classmethod
    def universal(cls, space: SignalSpace) -> "CompiledCube":
        return cls(space, 0, 0)

    @classmethod
    def minterm(cls, space: SignalSpace, packed_code: int) -> "CompiledCube":
        """The full-width cube fixing every signal to the packed code."""
        return cls(space, space.full_mask, packed_code & space.full_mask)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def covers_packed(self, packed_code: int) -> bool:
        """O(words) covering test: one AND plus one compare."""
        return packed_code & self.mask == self.value

    def covers(self, code: Mapping[str, int]) -> bool:
        return self.space.pack(code) & self.mask == self.value

    # ------------------------------------------------------------------
    # Algebra (word-parallel; operands must share the space)
    # ------------------------------------------------------------------
    def _require_same_space(self, other: "CompiledCube") -> None:
        if self.space is not other.space:
            raise ValueError("compiled cubes live in different signal spaces")

    def contains(self, other: "CompiledCube") -> bool:
        """self ⊇ other: every literal of self appears in other."""
        self._require_same_space(other)
        mask = self.mask
        return other.mask & mask == mask and other.value & mask == self.value

    def intersect(self, other: "CompiledCube") -> Optional["CompiledCube"]:
        """The product cube, or ``None`` when the cubes are disjoint."""
        self._require_same_space(other)
        if (self.value ^ other.value) & self.mask & other.mask:
            return None
        return CompiledCube(
            self.space, self.mask | other.mask, self.value | other.value
        )

    def supercube(self, other: "CompiledCube") -> "CompiledCube":
        """The smallest cube containing both cubes."""
        self._require_same_space(other)
        kept = self.mask & other.mask & ~(self.value ^ other.value)
        return CompiledCube(self.space, kept, self.value & kept)

    def distance(self, other: "CompiledCube") -> int:
        """Number of positions with opposite literals."""
        self._require_same_space(other)
        return popcount(self.mask & other.mask & (self.value ^ other.value))

    def without_positions(self, drop_mask: int) -> "CompiledCube":
        """Raise the cube along every position set in ``drop_mask``."""
        kept = self.mask & ~drop_mask
        return CompiledCube(self.space, kept, self.value & kept)

    def cofactor(self, position: int, bit_value: int) -> Optional["CompiledCube"]:
        """The Shannon cofactor w.r.t. one position, ``None`` if it kills
        the cube (the cube requires the opposite value)."""
        bit = 1 << position
        if not self.mask & bit:
            return self
        if bool(self.value & bit) != bool(bit_value):
            return None
        return CompiledCube(self.space, self.mask ^ bit, self.value & ~bit)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def literals(self) -> Tuple[Tuple[str, int], ...]:
        """Literals in *space position order* (not alphabetical)."""
        return tuple(self.iter_literals())

    def iter_literals(self) -> Iterator[Tuple[str, int]]:
        signals = self.space.signals
        mask, value = self.mask, self.value
        while mask:
            low = mask & -mask
            position = low.bit_length() - 1
            yield signals[position], 1 if value & low else 0
            mask ^= low

    def literal_count(self) -> int:
        return popcount(self.mask)

    def to_cube(self):
        """The literal-dict view (:class:`repro.boolean.cube.Cube`)."""
        from repro.boolean.cube import Cube

        return Cube(dict(self.iter_literals()))

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return popcount(self.mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledCube):
            return NotImplemented
        return (
            self.space is other.space
            and self.mask == other.mask
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((id(self.space), self.mask, self.value))

    def __repr__(self) -> str:
        if not self.mask:
            return "CompiledCube(1)"
        body = " ".join(
            signal if value else f"{signal}'"
            for signal, value in self.iter_literals()
        )
        return f"CompiledCube({body})"


class CompiledCover:
    """An ordered sum of :class:`CompiledCube` over one space.

    Mirrors :class:`repro.boolean.cover.Cover`: construction drops exact
    duplicates while preserving first-occurrence order (cube order
    determines gate naming downstream, so it is part of the contract).
    """

    __slots__ = ("space", "cubes")

    def __init__(self, space: SignalSpace, cubes: Iterable[CompiledCube] = ()):
        seen: List[CompiledCube] = []
        keys = set()
        for cube in cubes:
            if cube.space is not space:
                raise ValueError("cover cube compiled against a foreign space")
            key = (cube.mask, cube.value)
            if key not in keys:
                keys.add(key)
                seen.append(cube)
        self.space = space
        self.cubes: Tuple[CompiledCube, ...] = tuple(seen)

    @classmethod
    def from_cover(cls, space: SignalSpace, cover) -> "CompiledCover":
        """Compile a literal-dict :class:`~repro.boolean.cover.Cover`."""
        return cls(space, (cube.compiled(space) for cube in cover))

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def covers_packed(self, packed_code: int) -> bool:
        for cube in self.cubes:
            if packed_code & cube.mask == cube.value:
                return True
        return False

    def covers(self, code: Mapping[str, int]) -> bool:
        return self.covers_packed(self.space.pack(code))

    def covering_cubes(self, packed_code: int) -> List[CompiledCube]:
        return [c for c in self.cubes if packed_code & c.mask == c.value]

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def union(self, other: "CompiledCover") -> "CompiledCover":
        if self.space is not other.space:
            raise ValueError("compiled covers live in different signal spaces")
        return CompiledCover(self.space, self.cubes + other.cubes)

    def with_cube(self, cube: CompiledCube) -> "CompiledCover":
        return CompiledCover(self.space, self.cubes + (cube,))

    def contains_cube(self, cube: CompiledCube) -> bool:
        """Syntactic single-cube containment (sufficient, not necessary)."""
        return any(existing.contains(cube) for existing in self.cubes)

    def irredundant(self) -> "CompiledCover":
        """Drop cubes single-cube-contained in another cube of the cover."""
        kept: List[CompiledCube] = []
        cubes = self.cubes
        for i, cube in enumerate(cubes):
            if not any(
                other.contains(cube) for j, other in enumerate(cubes) if j != i
            ):
                kept.append(cube)
        return CompiledCover(self.space, kept)

    # ------------------------------------------------------------------
    # Views & plumbing
    # ------------------------------------------------------------------
    def literal_count(self) -> int:
        return sum(popcount(cube.mask) for cube in self.cubes)

    def to_cover(self):
        """The literal-dict view (:class:`repro.boolean.cover.Cover`)."""
        from repro.boolean.cover import Cover

        return Cover(cube.to_cube() for cube in self.cubes)

    def is_empty(self) -> bool:
        return not self.cubes

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[CompiledCube]:
        return iter(self.cubes)

    def __bool__(self) -> bool:
        return bool(self.cubes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledCover):
            return NotImplemented
        return self.space is other.space and set(
            (c.mask, c.value) for c in self.cubes
        ) == set((c.mask, c.value) for c in other.cubes)

    def __hash__(self) -> int:
        return hash(
            (id(self.space), frozenset((c.mask, c.value) for c in self.cubes))
        )

    def __repr__(self) -> str:
        if not self.cubes:
            return "CompiledCover(0)"
        return (
            "CompiledCover("
            + " + ".join(repr(c)[13:-1] or "1" for c in self.cubes)
            + ")"
        )


__all__ = ["CompiledCover", "CompiledCube", "SignalSpace", "popcount"]
