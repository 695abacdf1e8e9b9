"""Ablation: separate input inverters (the paper's Section-III caveat).

The paper: "If we consider all these inverters as independent gates the
standard C-implementation will not be speed-independent anymore", but it
is "hazard-free under any distribution of gate delays which obeys
``d_inv^max < D_sn^min``".  Both halves are demonstrated here on the
paper's own Figure-3 implementation:

* under unbounded delays, the explicit-inverter netlist (style
  ``C-INV``) has gate conflicts;
* under the relational bound (inverters orders of magnitude faster than
  any signal network), Monte-Carlo simulation over the same netlist
  finds no withdrawn excitations;
* with deliberately *slow* inverters the race is realised dynamically.
"""

from repro.core.synthesis import synthesize
from repro.netlist.hazards import verify_speed_independence
from repro.netlist.netlist import netlist_from_implementation
from repro.netlist.simulate import simulate


def _inverter_overrides(netlist, low, high):
    return {n: (low, high) for n in netlist.gates if n.startswith("inv_")}


def test_unbounded_inverters_break_si(fig3, benchmark):
    netlist = netlist_from_implementation(synthesize(fig3), "C-INV")

    def check():
        return verify_speed_independence(netlist, fig3, max_states=200_000)

    report = benchmark.pedantic(check, rounds=1, iterations=1)
    assert not report.hazard_free
    print(
        f"\n[inverters/unbounded] HAZARDOUS: {len(report.conflicts)} "
        f"conflicts over {report.circuit_states} circuit states"
    )


def test_bounded_inverters_are_safe(fig3, benchmark):
    netlist = netlist_from_implementation(synthesize(fig3), "C-INV")
    overrides = _inverter_overrides(netlist, 0.001, 0.01)

    def run_batch():
        return [
            simulate(
                netlist,
                fig3,
                max_events=400,
                seed=seed,
                gate_delay=(1.0, 10.0),
                delay_overrides=overrides,
            )
            for seed in range(20)
        ]

    reports = benchmark.pedantic(run_batch, rounds=1, iterations=1)
    assert all(r.hazard_free for r in reports)
    print("\n[inverters/bounded] d_inv << D_sn: 20/20 clean runs")


def test_slow_inverters_realise_the_race(fig3, benchmark):
    netlist = netlist_from_implementation(synthesize(fig3), "C-INV")
    overrides = _inverter_overrides(netlist, 50.0, 80.0)

    def run_batch():
        return [
            simulate(
                netlist,
                fig3,
                max_events=400,
                seed=seed,
                gate_delay=(1.0, 5.0),
                input_delay=(1.0, 5.0),
                delay_overrides=overrides,
            )
            for seed in range(20)
        ]

    reports = benchmark.pedantic(run_batch, rounds=1, iterations=1)
    glitchy = [r for r in reports if r.disablings]
    assert glitchy
    print(
        f"\n[inverters/slow] {len(glitchy)}/20 runs with withdrawn "
        f"excitations, e.g. {glitchy[0].disablings[0]}"
    )
