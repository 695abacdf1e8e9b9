"""Figure 2: the standard C- and RS-implementation structures.

The figure is architectural (signal networks: AND gates per excitation
region, OR per excitation function, a C-element or RS flip-flop per
non-input signal).  This harness instantiates both structures for the
paper's own MC example (Figure 3) and reports their gate inventories,
and cross-checks that both are speed-independent -- Theorem 3's claim
"both standard RS- and C-implementations are semi-modular".
"""

import pytest

from repro.core.synthesis import synthesize
from repro.netlist.hazards import verify_speed_independence
from repro.netlist.netlist import netlist_from_implementation


@pytest.mark.parametrize("style", ["C", "RS"])
def test_structure_instantiation(fig3, style, benchmark):
    impl = synthesize(fig3)
    netlist = benchmark(netlist_from_implementation, impl, style)
    counts = netlist.gate_count()
    print(f"\n[fig2/{style}] gate inventory: {counts}")
    latch_kind = "c" if style == "C" else "rs"
    assert counts[latch_kind] == 2  # c and x; d degenerates to a wire
    assert counts["not"] == 1       # d = x'


@pytest.mark.parametrize("style", ["C", "RS"])
def test_both_structures_speed_independent(fig3, style, benchmark):
    netlist = netlist_from_implementation(synthesize(fig3), style)
    report = benchmark(verify_speed_independence, netlist, fig3)
    assert report.hazard_free
    print(
        f"\n[fig2/{style}] {report.circuit_states} circuit states, "
        f"{len(report.rs_overlaps)} transient S=R overlaps (held through)"
    )
