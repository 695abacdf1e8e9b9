"""Micro-benchmarks of the substrates (extension; not in the paper).

The paper notes its naive Boolean-program solving could be sped up "by
several orders of magnitude"; these measurements document where the
substrate time goes in this implementation: the CDCL solver, the
two-level minimiser, and state-graph elaboration.
"""

import itertools


from repro.corpus import concurrent_fork, token_ring
from repro.boolean.minimize import minimize_onset
from repro.sat.cnf import CNF
from repro.sat.solver import Solver
from repro.stg.reachability import stg_to_state_graph


def test_sat_pigeonhole(benchmark):
    """UNSAT pigeonhole PHP(6,5): a classic resolution-hard instance."""

    def build_and_solve():
        pigeons, holes = 6, 5
        cnf = CNF()
        var = {
            (p, h): cnf.new_var()
            for p in range(pigeons)
            for h in range(holes)
        }
        for p in range(pigeons):
            cnf.at_least_one([var[(p, h)] for h in range(holes)])
        for h in range(holes):
            cnf.at_most_one([var[(p, h)] for p in range(pigeons)])
        return Solver.from_cnf(cnf).solve()

    assert benchmark(build_and_solve) is None


def test_sat_satisfiable_chain(benchmark):
    def build_and_solve():
        cnf = CNF()
        vs = [cnf.new_var() for _ in range(120)]
        cnf.add(vs[0])
        for left, right in zip(vs, vs[1:]):
            cnf.add(-left, right)
        return Solver.from_cnf(cnf).solve()

    model = benchmark(build_and_solve)
    assert model is not None and model[120]


def test_minimizer_five_variables(benchmark):
    signals = tuple("abcde")
    on = [
        dict(zip(signals, bits))
        for bits in itertools.product((0, 1), repeat=5)
        if sum(bits) in (2, 3)
    ]
    cover = benchmark(minimize_onset, signals, on)
    assert cover


def test_reachability_token_ring(benchmark):
    stg = token_ring(10)
    sg = benchmark(stg_to_state_graph, stg)
    assert len(sg) == 40


def test_reachability_concurrent_fork(benchmark):
    stg = concurrent_fork(6)
    sg = benchmark(stg_to_state_graph, stg)
    assert len(sg) > 2 ** 6


def test_regions_synthesis_roundtrip(benchmark):
    """Theory-of-regions Petri-net synthesis of a benchmark SG."""
    from repro.bench.suite import load_benchmark
    from repro.stg.reachability import stg_to_state_graph
    from repro.stg.synthesis import stg_from_state_graph

    sg = stg_to_state_graph(load_benchmark("nak-pa"))
    stg = benchmark(stg_from_state_graph, sg)
    assert len(stg.net.transitions) == 18
