"""The packed signal space every product term is tested against.

A :class:`SignalSpace` interns an *ordered* universe of signal names (one
per state graph / netlist) and packs complete codes into single big ints,
bit ``i`` holding the value of ``signals[i]``.  Against one space a
product term (:class:`repro.boolean.cube.Cube`) is the pair
``(mask, value)`` returned by :meth:`Cube.compiled
<repro.boolean.cube.Cube.compiled>`: ``mask`` has a 1-bit for every
constrained position and ``value`` the required values on those bits, so
the cube covers a packed code ``p`` iff ``p & mask == value`` -- one AND
plus one compare regardless of the literal count.  :meth:`Cube.from_mask
<repro.boolean.cube.Cube.from_mask>` is the way back from a pair.

The state-graph bitmask engine (:mod:`repro.sg.bitengine`), the netlist
evaluators (:mod:`repro.netlist.gates`), the minimiser and the
persistent-store codecs (:mod:`repro.pipeline.serialize`) all read the
pair against this space instead of keeping private packed encodings.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple


def popcount(word: int) -> int:
    """Number of set bits (3.9-compatible; ``int.bit_count`` is 3.10+)."""
    return bin(word).count("1")


class SignalSpace:
    """An interned, ordered universe of Boolean signal names.

    Spaces are interned on their signal tuple: ``SignalSpace.of(order)``
    returns the *same* object for the same ordering, so the ``(mask,
    value)`` pairs memoised per space never duplicate work across the
    analyses of one graph.

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

    def pack(self, code: Mapping[str, int]) -> int:
        """A complete ``signal -> value`` code as one packed int."""
        word = 0
        for position, signal in enumerate(self.signals):
            if code[signal]:
                word |= 1 << position
        return word

    def __repr__(self) -> str:
        return f"SignalSpace({', '.join(self.signals)})"


__all__ = ["SignalSpace", "popcount"]
