"""A small, self-contained SAT solver.

The paper's Section VII solves the generalized state-assignment problem as
a set of "0-1 Boolean programs ... efficiently solved using Boolean
satisfiability solvers".  This subpackage provides that substrate:

* :class:`~repro.sat.cnf.CNF` -- a clause database with named variables
  and convenience encoders (at-least-one, at-most-one, implications),
* :class:`~repro.sat.solver.Solver` -- an incremental CDCL solver
  (two-literal watching, 1-UIP clause learning, VSIDS branching, phase
  saving) that keeps its learnt clauses across solves, supporting
  assumptions and solution blocking (for model enumeration).
"""

from repro._lazy import lazy_exports

__all__ = ["CNF", "Solver", "solve"]

__getattr__, __dir__ = lazy_exports(
    __name__, {"cnf": ("CNF",), "solver": ("Solver", "solve")}
)
