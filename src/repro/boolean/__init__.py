"""Boolean cube and cover algebra.

This subpackage is the Boolean substrate of the library.  It provides:

* :class:`~repro.boolean.cube.Cube` -- a product term (conjunction of
  literals) over *named* signals,
* :class:`~repro.boolean.cover.Cover` -- a sum of cubes (SOP form),
* :mod:`~repro.boolean.minimize` -- exact two-level minimisation
  (Quine--McCluskey prime generation plus branch-and-bound covering),
* :mod:`~repro.boolean.compiled` -- the shared mask-value IR
  (:class:`SignalSpace`, :class:`CompiledCube`, :class:`CompiledCover`)
  that every hot path compiles into,
* :mod:`~repro.boolean.sop` -- rendering of SOP equations in the style the
  paper uses (``Sc = bd + x a b'``).

The synthesis core (:mod:`repro.core`) expresses every excitation function
as a :class:`Cover` whose cubes are monotonous covers of excitation regions.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CompiledCover",
    "CompiledCube",
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
        "compiled": ("CompiledCover", "CompiledCube", "SignalSpace"),
        "cube": ("Cube",),
        "cover": ("Cover",),
        "minimize": ("minimize_onset",),
        "sop": ("format_cube", "format_cover", "format_equation"),
    },
)
