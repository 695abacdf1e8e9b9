"""The production analysis engine and its reference oracle.

The *analysis engine* is what the pipeline threads through every stage:
the thing that decides, for a state graph, which excitation regions
admit monotonous covers (Definitions 17-19 of the paper).  There is one
production engine and one oracle:

* ``bitengine`` -- the production path: packed state codes and big-int
  bitset arithmetic (:mod:`repro.sg.bitengine` driving
  :func:`repro.core.mc.analyze_mc`).  Every user-facing verb runs it.
* ``reference`` -- the retained pure dictionary-based semantics exactly
  as they stood before the bitengine rewrite
  (:mod:`repro.pipeline.backends.reference`).  Deliberately slow, shares
  no code with the fast path; exists so differential verification
  (``repro-si diff``, :mod:`repro.verify.differential`) can run the
  *same* pipeline twice and diff the typed artifacts claim for claim.

:func:`get_backend` maps a name to an engine instance; the oracle
module is imported only when it is asked for.
"""

from __future__ import annotations

from typing import Optional

from repro.pipeline.backends.bitengine import BitengineBackend


def get_backend(name: Optional[str] = None):
    """The engine named ``name`` (``None`` means ``"bitengine"``).

    Raises :class:`KeyError` for any name other than ``"bitengine"`` and
    ``"reference"``.
    """
    if name is None or name == "bitengine":
        return BitengineBackend()
    if name == "reference":
        from repro.pipeline.backends.reference import ReferenceBackend

        return ReferenceBackend()
    raise KeyError(
        f"unknown analysis backend {name!r}; expected 'bitengine' or 'reference'"
    )


__all__ = ["get_backend"]
