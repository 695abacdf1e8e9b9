"""Rendering of cubes, covers and excitation equations.

The paper writes implementations as equation systems, e.g. (eqs. (2)):

    Sx = a b' c ;  x = C(Sx, a')  ;  d = x
    Sc = b d + x a b' ;  Rc = a' b' d' ;  c = C(Sc, Rc')

We render literals with a trailing apostrophe for inversion (``a'``),
cubes as space-free concatenation when every signal is one character and
as ``&``-joined literals otherwise, and covers with `` + `` between cubes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.boolean.cube import Cube
from repro.boolean.cover import Cover


def format_literal(signal: str, value: int) -> str:
    """``a`` for the positive literal, ``a'`` for the negative one."""
    return signal if value else f"{signal}'"


def format_cube(cube: Cube, compact: bool = True) -> str:
    """Render a cube as a product of literals.

    ``compact`` concatenates single-character signal names (paper style,
    ``ab'c``); multi-character names always use `` `` separators.
    """
    if len(cube) == 0:
        return "1"
    parts = [format_literal(s, v) for s, v in cube.literals]
    if compact and all(len(s) <= 1 for s in cube.signals):
        return "".join(parts)
    return " ".join(parts)


def format_cover(cover: Cover, compact: bool = True) -> str:
    """Render a cover as a sum of products (``ab' + cd``)."""
    if cover.is_empty():
        return "0"
    return " + ".join(format_cube(cube, compact=compact) for cube in cover)


def format_equation(name: str, cover: Cover, compact: bool = True) -> str:
    """Render ``name = <SOP>``."""
    return f"{name} = {format_cover(cover, compact=compact)}"


def format_equations(pairs: Iterable[Sequence]) -> str:
    """Render several ``(name, cover)`` pairs, one per line."""
    return "\n".join(format_equation(name, cover) for name, cover in pairs)
