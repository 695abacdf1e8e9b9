"""Gate-level netlists and circuit-level verification.

* :mod:`repro.netlist.gates` -- the basic gate library: AND/OR with
  input-inversion bubbles, NOT/BUF, the Muller C-element and the RS
  latch, each with its next-state function.
* :mod:`repro.netlist.netlist` -- netlist structure plus construction
  from a synthesised :class:`~repro.core.synthesis.Implementation`
  (standard C- or RS-implementation, Fig. 2 of the paper).
* :mod:`repro.netlist.circuit_sg` -- composition of a netlist with its
  environment (the specification state graph acting as a mirror) into a
  *circuit-level* state graph in which **every gate output is a signal**.
* :mod:`repro.netlist.hazards` -- speed-independence verification: the
  circuit is hazard-free under the pure unbounded-delay model iff its
  circuit-level state graph is output semi-modular by all gate signals
  (Sec. III, citing [1]).  This executes Theorem 3 -- and exposes the
  Figure-4 baseline hazard.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Gate",
    "GateKind",
    "Netlist",
    "netlist_from_implementation",
    "build_circuit_state_graph",
    "CompositionError",
    "HazardReport",
    "verify_speed_independence",
    "area_estimate",
    "area_report",
    "netlist_to_json",
    "netlist_from_json",
    "save_netlist",
    "load_netlist",
    "netlist_to_verilog",
    "netlist_to_dot",
    "sg_to_dot",
    "decompose_fanin",
    "fanin_violations",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "gates": ("Gate", "GateKind"),
        "netlist": ("Netlist", "netlist_from_implementation"),
        "circuit_sg": ("build_circuit_state_graph", "CompositionError"),
        "hazards": ("HazardReport", "verify_speed_independence"),
        "area": ("area_estimate", "area_report"),
        "io": ("netlist_to_json", "netlist_from_json", "save_netlist", "load_netlist"),
        "render": ("netlist_to_verilog", "netlist_to_dot", "sg_to_dot"),
        "mapping": ("decompose_fanin", "fanin_violations"),
    },
)
