"""Ablation: Section-VI gate sharing and latch-decomposition styles.

Not a table in the paper, but the design choices its text calls out:

* **Gate sharing** (generalised MC, Theorem 5): compare AND-gate and
  literal counts with and without sharing on the paper's Figure 3 and on
  the benchmark suite -- sharing should never increase cost and pays off
  whenever one cube can serve several regions (``Rx = a`` in eqs. (2)).
* **Latch decomposition**: the paper models the RS flip-flop as a basic
  element.  Decomposing it into two independently-delayed cross-coupled
  NOR gates (style ``RS-NOR``) exceeds the model's assumptions and
  exhibits rail races -- quantified here as the hazard verdict flip.
"""

import pytest

from repro.bench.suite import run_pipeline
from repro.core.synthesis import synthesize
from repro.netlist.hazards import verify_speed_independence
from repro.netlist.netlist import netlist_from_implementation


def test_sharing_on_fig3(fig3, benchmark):
    shared = benchmark(synthesize, fig3, share_gates=True)
    plain = synthesize(fig3)
    assert shared.and_gate_count() <= plain.and_gate_count()
    assert shared.literal_count() <= plain.literal_count()
    print(
        f"\n[sharing/fig3] AND gates {plain.and_gate_count()} -> "
        f"{shared.and_gate_count()}, literals {plain.literal_count()} -> "
        f"{shared.literal_count()}"
    )


@pytest.mark.parametrize("name", ["delement", "berkel2", "luciano"])
def test_sharing_on_benchmarks(name, benchmark):
    result = run_pipeline(name, verify=False)
    sg = result.insertion.sg

    def both():
        return synthesize(sg), synthesize(sg, share_gates=True)

    plain, shared = benchmark(both)
    assert shared.literal_count() <= plain.literal_count()
    print(
        f"\n[sharing/{name}] literals {plain.literal_count()} -> "
        f"{shared.literal_count()}"
    )


def test_latch_decomposition_ablation(fig3, benchmark):
    impl = synthesize(fig3)
    atomic = netlist_from_implementation(impl, "RS")
    discrete = netlist_from_implementation(impl, "RS-NOR")

    def verify_both():
        return (
            verify_speed_independence(atomic, fig3),
            verify_speed_independence(discrete, fig3),
        )

    atomic_report, discrete_report = benchmark(verify_both)
    assert atomic_report.hazard_free
    assert not discrete_report.hazard_free
    print(
        f"\n[latch ablation] atomic RS: hazard-free "
        f"({atomic_report.circuit_states} states); discrete NOR pair: "
        f"{len(discrete_report.conflicts)} rail conflicts "
        f"({discrete_report.circuit_states} states)"
    )
