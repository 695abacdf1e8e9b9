"""Boolean cube and cover algebra.

This subpackage is the Boolean substrate of the library.  It provides:

* :class:`~repro.boolean.cube.Cube` -- a product term (conjunction of
  literals) over *named* signals; against an interned
  :class:`~repro.boolean.compiled.SignalSpace` it is the ``(mask, value)``
  pair of :meth:`Cube.compiled <repro.boolean.cube.Cube.compiled>`, the
  one form every hot path tests a packed code against,
* :class:`~repro.boolean.cover.Cover` -- a sum of cubes (SOP form),
* :mod:`~repro.boolean.minimize` -- exact two-level minimisation
  (Quine--McCluskey prime generation plus branch-and-bound covering),
* :mod:`~repro.boolean.compiled` -- :class:`SignalSpace`, the interned
  signal ordering that packs a code into one int,
* :mod:`~repro.boolean.sop` -- rendering of SOP equations in the style the
  paper uses (``Sc = bd + x a b'``).

The synthesis core (:mod:`repro.core`) expresses every excitation function
as a :class:`Cover` whose cubes are monotonous covers of excitation regions.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Cube",
    "Cover",
    "SignalSpace",
    "minimize_onset",
    "format_cube",
    "format_cover",
    "format_equation",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "compiled": ("SignalSpace",),
        "cube": ("Cube",),
        "cover": ("Cover",),
        "minimize": ("minimize_onset",),
        "sop": ("format_cube", "format_cover", "format_equation"),
    },
)
