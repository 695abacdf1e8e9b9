"""Signal Transition Graphs (STGs) over 1-safe Petri nets.

The paper formulates synthesis at the state-graph level but notes that
"the translation from different high-level specifications (e.g. STGs ...)
to state graphs is straightforward".  This subpackage provides that
substrate: benchmark behaviours are written as STGs (in the classic
``.g``/astg text format) and elaborated into state graphs by token-flow
reachability.

* :class:`~repro.stg.petrinet.PetriNet` -- places, transitions, arcs,
* :class:`~repro.stg.stg.STG` -- a Petri net whose transitions are
  labelled with signal edges, plus the input/output signal partition,
* :mod:`~repro.stg.parser` / :mod:`~repro.stg.writer` -- ``.g`` I/O with
  implicit places (``a+ b-`` arcs between transitions),
* :func:`~repro.stg.reachability.stg_to_state_graph` -- reachability
  analysis producing a consistent :class:`~repro.sg.graph.StateGraph`
  (the firing rule, on integer-packed markings, is
  :func:`~repro.stg.reachability.explore`),
* :mod:`~repro.stg.structural` -- marked-graph / free-choice / safeness
  checks.
"""

from repro._lazy import lazy_exports

__all__ = [
    "PetriNet",
    "STG",
    "parse_g",
    "load_g",
    "dumps_g",
    "stg_to_state_graph",
    "ReachabilityError",
    "StateCapExceeded",
    "is_marked_graph",
    "is_free_choice",
    "stg_from_state_graph",
    "NotSynthesizableError",
    "t_invariants",
    "s_invariants",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "petrinet": ("PetriNet",),
        "stg": ("STG",),
        "parser": ("parse_g", "load_g"),
        "writer": ("dumps_g",),
        "reachability": ("stg_to_state_graph", "ReachabilityError", "StateCapExceeded"),
        "structural": ("is_marked_graph", "is_free_choice"),
        "synthesis": ("stg_from_state_graph", "NotSynthesizableError"),
        "invariants": ("t_invariants", "s_invariants"),
    },
)
