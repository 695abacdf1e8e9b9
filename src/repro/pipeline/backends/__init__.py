"""Pluggable analysis backends for the staged synthesis pipeline.

A backend is the *analysis engine* the pipeline threads through every
stage: the thing that decides, for a state graph, which excitation
regions admit monotonous covers (Definitions 17-19 of the paper).  Two
implementations are registered out of the box:

* ``bitengine`` -- the production path: packed state codes and big-int
  bitset arithmetic (:mod:`repro.sg.bitengine` driving
  :func:`repro.core.mc.analyze_mc`), with the optional ``jobs=`` thread
  fan-out over excitation functions.
* ``reference`` -- the retained pure dictionary-based semantics exactly
  as they stood before the bitengine rewrite
  (:mod:`repro.pipeline.backends.reference`).  Deliberately slow, shares
  no code with the fast path; exists so differential verification can
  run the *same* pipeline twice with different backends and diff the
  typed artifacts claim for claim.

Backends are selected by name (``get_backend("reference")``) so callers
-- the CLI, the bench suite, the verify campaigns -- never fork their
orchestration per engine.  Third-party engines register with
:func:`register_backend`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

try:  # pragma: no cover - Protocol moved in 3.8, runtime use is duck-typed
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


from repro.core.mc import MCReport
from repro.sg.graph import StateGraph


@runtime_checkable
class AnalysisBackend(Protocol):
    """The contract every pipeline analysis engine satisfies.

    ``name`` identifies the backend in registries, artifact fingerprints
    and reports; ``analyze_mc`` performs the whole-graph Monotonous
    Cover analysis and must return the same :class:`MCReport` shape as
    the fast path so reports stay comparable field by field.

    Backends that additionally accept an ``analyze_mc(reuse=...)``
    mapping of previously computed per-function verdicts (delta
    re-synthesis, see ``pipeline/incremental.py``) advertise it with a
    truthy ``supports_reuse`` class attribute; the pipeline only passes
    ``reuse`` to backends that opt in, so third-party backends are
    unaffected.
    """

    name: str

    def analyze_mc(
        self, sg: StateGraph, jobs: Optional[int] = None
    ) -> MCReport:
        """Whole-state-graph MC analysis (Definitions 18-19)."""
        ...  # pragma: no cover


#: registry of backend factories, keyed by backend name
_REGISTRY: Dict[str, Callable[[], AnalysisBackend]] = {}


def register_backend(name: str, factory: Callable[[], AnalysisBackend]) -> None:
    """Register (or replace) a backend factory under ``name``."""
    _REGISTRY[name] = factory


def available_backends() -> List[str]:
    """The registered backend names, sorted."""
    return sorted(_REGISTRY)


def get_backend(backend: Union[str, AnalysisBackend, None]) -> AnalysisBackend:
    """Resolve a backend by name (``None`` means the bitengine default).

    Already-constructed backend objects pass through unchanged, so APIs
    can accept ``backend="reference"`` and ``backend=MyEngine()`` alike.
    """
    if backend is None:
        backend = "bitengine"
    if not isinstance(backend, str):
        return backend
    try:
        factory = _REGISTRY[backend]
    except KeyError:
        raise KeyError(
            f"unknown analysis backend {backend!r}; "
            f"registered: {available_backends()}"
        ) from None
    return factory()


def _register_builtins() -> None:
    from repro.pipeline.backends.bitengine import BitengineBackend
    from repro.pipeline.backends.reference import ReferenceBackend

    register_backend("bitengine", BitengineBackend)
    register_backend("reference", ReferenceBackend)


_register_builtins()

__all__ = [
    "AnalysisBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]
