"""Table 1 variants: RS latches and exact gate sharing across the suite.

The paper's table reports the C-implementation flow; Theorem 3 covers
the RS structure equally and Section VI promises sharing never hurts.
This harness re-runs the whole Table-1 suite with

* the RS-flip-flop structure (atomic latch), and
* exact Section-VI sharing (``share_gates="optimal"``),

asserting gate-level hazard freedom and cost monotonicity design by
design.
"""

import pytest

from repro.bench.suite import run_pipeline
from repro.core.synthesis import synthesize
from repro.netlist.hazards import verify_speed_independence
from repro.netlist.netlist import netlist_from_implementation

_FAST = ["delement", "berkel2", "luciano", "mp-forward-pkt", "nak-pa", "nowick"]
_ALL = _FAST + ["duplicator", "ganesh8", "berkel3"]


@pytest.mark.parametrize("name", _ALL)
def test_rs_structure(name, benchmark):
    result = run_pipeline(name, verify=False)
    sg = result.insertion.sg
    netlist = netlist_from_implementation(result.implementation, "RS")

    report = benchmark(verify_speed_independence, netlist, sg)
    assert report.hazard_free, report.describe()
    print(
        f"\n[table1/RS] {name}: hazard-free, {report.circuit_states} "
        f"circuit states, {len(report.rs_overlaps)} transient S=R overlaps"
    )


@pytest.mark.parametrize("name", _FAST)
def test_optimal_sharing(name, benchmark):
    result = run_pipeline(name, verify=False)
    sg = result.insertion.sg
    plain = synthesize(sg)

    optimal = benchmark(synthesize, sg, share_gates="optimal")
    assert optimal.literal_count() <= plain.literal_count()
    netlist = netlist_from_implementation(optimal, "C")
    assert verify_speed_independence(netlist, sg).hazard_free
    print(
        f"\n[table1/share] {name}: literals {plain.literal_count()} -> "
        f"{optimal.literal_count()}, AND gates {plain.and_gate_count()} -> "
        f"{optimal.and_gate_count()}"
    )
