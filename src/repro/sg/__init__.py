"""State graphs (Section II of the paper).

A state graph is a finite automaton ``G = <X, S, T, delta, s0>`` whose
states carry consistent binary codes over the signal set ``X = XI u XO``.
This subpackage provides:

* :class:`~repro.sg.events.SignalEvent` -- a rising/falling transition of
  a named signal (``a+`` / ``a-``),
* :class:`~repro.sg.graph.StateGraph` -- the automaton with codes, arcs,
  input/non-input partition and consistency checking,
* :mod:`~repro.sg.builder` -- construction helpers, including the paper's
  asterisk notation (``1*010*`` = code 1010 with ``a`` and ``d`` excited),
* :mod:`~repro.sg.properties` -- conflict and detonant states,
  (output) semi-modularity, distributivity, persistency (Defs. 1-4, 12),
* :mod:`~repro.sg.regions` -- excitation/quiescent/constant-function
  regions, minimal states, unique entry, triggers, ordered/concurrent
  signals (Defs. 5-11),
* :mod:`~repro.sg.csc` -- Unique/Complete State Coding checks (Def. 14).
"""

from repro._lazy import lazy_exports

__all__ = [
    "SignalEvent",
    "StateGraph",
    "sg_from_asterisk_states",
    "sg_from_arcs",
    "sg_from_cycle",
    "conflict_states",
    "detonant_states",
    "is_semi_modular",
    "is_output_semi_modular",
    "is_distributive",
    "is_output_distributive",
    "is_persistent",
    "non_persistent_pairs",
    "ExcitationRegion",
    "excitation_regions",
    "quiescent_region",
    "constant_function_region",
    "minimal_states",
    "has_unique_entry",
    "trigger_events",
    "ordered_signals",
    "concurrent_signals",
    "excited_value_sets",
    "has_usc",
    "has_csc",
    "csc_conflicts",
    "usc_conflicts",
    "refines",
    "trace_equivalent",
    "RefinementResult",
    "deadlock_states",
    "is_live",
    "statistics",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "events": ("SignalEvent",),
        "graph": ("StateGraph",),
        "builder": ("sg_from_asterisk_states", "sg_from_arcs", "sg_from_cycle"),
        "properties": (
            "conflict_states",
            "detonant_states",
            "is_semi_modular",
            "is_output_semi_modular",
            "is_distributive",
            "is_output_distributive",
            "is_persistent",
            "non_persistent_pairs",
        ),
        "regions": (
            "ExcitationRegion",
            "excitation_regions",
            "quiescent_region",
            "constant_function_region",
            "minimal_states",
            "has_unique_entry",
            "trigger_events",
            "ordered_signals",
            "concurrent_signals",
            "excited_value_sets",
        ),
        "csc": ("has_usc", "has_csc", "csc_conflicts", "usc_conflicts"),
        "conformance": ("refines", "trace_equivalent", "RefinementResult"),
        "analysis": ("deadlock_states", "is_live", "statistics"),
    },
)
