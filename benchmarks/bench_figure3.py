"""Figure 3 / Example 1 (MC side): one inserted signal, equations (2).

Two reproductions:

* **verbatim**: the Figure-3 state graph (entered from the paper)
  satisfies the generalised MC requirement; synthesis with gate sharing
  reproduces equations (2) exactly (modulo the polarity of ``x``):
  ``Sx = a'b'c'``, ``Rx = a`` (shared literal), ``d = x'`` (the paper's
  ``d = x`` wire), ``Sc = bd' + ab'x'``, ``Rc = a'bd``;
* **from scratch**: running the insertion engine on Figure 1 finds a
  single-signal repair (the paper: "it is sufficient to add only one
  signal x"), and the result is hazard-free at the gate level.
"""

from repro.boolean.cube import Cube
from repro.core.insertion import insert_state_signals
from repro.core.mc import analyze_mc
from repro.core.synthesis import synthesize
from repro.netlist.hazards import verify_speed_independence
from repro.netlist.netlist import netlist_from_implementation


def test_fig3_satisfies_generalized_mc(fig3, benchmark):
    report = benchmark(analyze_mc, fig3)
    assert report.satisfied
    assert not report.strictly_satisfied  # Sd = x' is a shared cube
    print("\n[fig3] " + report.describe())


def test_equations_2(fig3, benchmark):
    impl = benchmark(synthesize, fig3, share_gates=True)
    print("\n[fig3] MC implementation (paper equations (2)):")
    print(impl.equations())
    assert impl.network("d").wire_source == ("x", 0)
    assert impl.network("x").set_cover.cubes == (
        Cube({"a": 0, "b": 0, "c": 0}),
    )
    assert impl.network("x").reset_cover.cubes == (Cube({"a": 1}),)
    assert len(impl.network("c").set_cover) == 2


def test_insertion_reduces_fig1_with_one_signal(fig1, benchmark):
    result = benchmark(insert_state_signals, fig1, max_models=400)
    assert len(result.added_signals) == 1
    assert result.satisfied
    print(
        f"\n[fig1->fig3] inserted {result.added_signals}; "
        f"{len(fig1)} -> {len(result.sg)} states "
        f"(paper's Figure 3 has 17)"
    )


def test_mc_implementation_is_hazard_free(fig3, benchmark):
    impl = synthesize(fig3, share_gates=True)
    netlist = netlist_from_implementation(impl, "C")
    report = benchmark(verify_speed_independence, netlist, fig3)
    assert report.hazard_free
    print(f"\n[fig3] circuit-level SG: {report.circuit_states} states, hazard-free")
