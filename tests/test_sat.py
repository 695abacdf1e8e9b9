"""Unit tests for the CNF builder and the CDCL solver."""

import itertools

import pytest

from repro.sat.cnf import CNF
from repro.sat.solver import Solver, solve


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product((False, True), repeat=num_vars):
        assignment = (None,) + bits
        if all(
            any(
                assignment[abs(l)] == (l > 0)
                for l in clause
            )
            for clause in clauses
        ):
            return True
    return False


class TestCNF:
    def test_named_variables_are_stable(self):
        cnf = CNF()
        v1 = cnf.var("a")
        v2 = cnf.var("a")
        assert v1 == v2
        assert cnf.name_of(v1) == "a"

    def test_duplicate_explicit_name_rejected(self):
        cnf = CNF()
        cnf.new_var("a")
        with pytest.raises(ValueError):
            cnf.new_var("a")

    def test_clause_literal_range_checked(self):
        cnf = CNF()
        cnf.new_var()
        with pytest.raises(ValueError):
            cnf.add(2)
        with pytest.raises(ValueError):
            cnf.add(0)

    def test_empty_clause_rejected(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add_clause([])

    def test_exactly_one(self):
        cnf = CNF()
        vs = [cnf.new_var() for _ in range(3)]
        cnf.exactly_one(vs)
        model = solve(cnf)
        assert model is not None
        assert sum(model[v] for v in vs) == 1

    def test_at_most_k_bounds(self):
        for k in (0, 1, 2, 3):
            cnf = CNF()
            vs = [cnf.new_var() for _ in range(5)]
            cnf.at_most_k(vs, k)
            # force k+1 variables true -> UNSAT
            if k < 5:
                for v in vs[: k + 1]:
                    cnf.add(v)
                assert solve(cnf) is None

    def test_at_most_k_allows_k(self):
        cnf = CNF()
        vs = [cnf.new_var() for _ in range(5)]
        cnf.at_most_k(vs, 2)
        for v in vs[:2]:
            cnf.add(v)
        model = solve(cnf)
        assert model is not None
        assert sum(model[v] for v in vs) == 2

    def test_decode(self):
        cnf = CNF()
        a = cnf.var("a")
        cnf.add(a)
        model = solve(cnf)
        assert cnf.decode(model)["a"] is True

    def test_implication_and_iff(self):
        cnf = CNF()
        a, b = cnf.var("a"), cnf.var("b")
        cnf.add_implies(a, b)
        cnf.add(a)
        model = solve(cnf)
        assert model[b]
        cnf2 = CNF()
        a2, b2 = cnf2.var("a"), cnf2.var("b")
        cnf2.add_iff(a2, b2)
        cnf2.add(-a2)
        model2 = solve(cnf2)
        assert not model2[b2]


class TestSolver:
    def test_trivial_sat(self):
        assert Solver(1, [(1,)]).solve() is not None

    def test_trivial_unsat(self):
        assert Solver(1, [(1,), (-1,)]).solve() is None

    def test_unit_propagation_chain(self):
        clauses = [(1,), (-1, 2), (-2, 3), (-3, 4)]
        model = Solver(4, clauses).solve()
        assert model[1] and model[2] and model[3] and model[4]

    def test_requires_backtracking(self):
        # (a|b) & (a|-b) & (-a|c) & (-a|-c) forces a then contradiction -> a False?
        # -a|c and -a|-c force a False; then a|b, a|-b force b and -b -> UNSAT
        clauses = [(1, 2), (1, -2), (-1, 3), (-1, -3)]
        assert Solver(3, clauses).solve() is None

    def test_pigeonhole_3_into_2_unsat(self):
        # p_ij: pigeon i in hole j, i in 0..2, j in 0..1
        def var(i, j):
            return i * 2 + j + 1

        clauses = []
        for i in range(3):
            clauses.append((var(i, 0), var(i, 1)))
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    clauses.append((-var(i1, j), -var(i2, j)))
        assert Solver(6, clauses).solve() is None

    def test_assumptions(self):
        solver = Solver(2, [(1, 2)])
        model = solver.solve(assumptions=[-1])
        assert model is not None and model[2]

    def test_contradictory_assumptions(self):
        solver = Solver(1, [(1, -1)])
        assert solver.solve(assumptions=[1, -1]) is None

    def test_tautological_clause_skipped(self):
        model = Solver(2, [(1, -1), (2,)]).solve()
        assert model[2]

    def test_agrees_with_brute_force_on_random_instances(self):
        import random

        rng = random.Random(12345)
        for trial in range(60):
            num_vars = rng.randint(3, 7)
            num_clauses = rng.randint(3, 18)
            clauses = []
            for _ in range(num_clauses):
                width = rng.randint(1, 3)
                clause = tuple(
                    rng.choice([-1, 1]) * rng.randint(1, num_vars)
                    for _ in range(width)
                )
                clauses.append(clause)
            expected = brute_force_sat(num_vars, clauses)
            solver = Solver(num_vars, clauses)
            model = solver.solve()
            assert (model is not None) == expected, (num_vars, clauses)
            if model is not None:
                assignment = [None] + [bool(v) for v in model[1:]]
                for clause in clauses:
                    assert any(assignment[abs(l)] == (l > 0) for l in clause)


def pigeonhole(pigeons, holes, enable=None):
    """Clauses of the pigeonhole principle (UNSAT when pigeons > holes).

    With ``enable`` every at-least-one-hole clause carries ``-enable``,
    so the instance is UNSAT only under the assumption ``enable``.
    """

    def var(i, j):
        return i * holes + j + 1

    guard = () if enable is None else (-enable,)
    clauses = [guard + tuple(var(i, j) for j in range(holes)) for i in range(pigeons)]
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append((-var(a, j), -var(b, j)))
    return pigeons * holes, clauses


def all_models(num_vars, clauses):
    return {
        bits
        for bits in itertools.product((False, True), repeat=num_vars)
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses)
    }


def random_instance(rng, num_vars):
    return [
        tuple(
            rng.choice([-1, 1]) * rng.randint(1, num_vars)
            for _ in range(rng.randint(1, 3))
        )
        for _ in range(rng.randint(num_vars, 3 * num_vars))
    ]


class TestIncrementalContract:
    """The CDCL solver keeps learnt clauses, activities and phases across
    solves; these pin what that must never change."""

    def test_enumeration_with_interleaved_growth_matches_brute_force(self):
        import random

        rng = random.Random(2026)
        for trial in range(40):
            num_vars = rng.randint(3, 8)
            clauses = random_instance(rng, num_vars)
            solver = Solver(num_vars, clauses)
            top = num_vars
            found = []
            while True:
                model = solver.solve()
                if model is None:
                    break
                bits = tuple(model[1 : num_vars + 1])
                found.append(bits)
                solver.add_clause(
                    [-v if model[v] else v for v in range(1, num_vars + 1)]
                )
                if rng.random() < 0.5:
                    # a fresh variable defined as a function of the old
                    # ones leaves the projected model set unchanged
                    top += 1
                    a, b = rng.sample(range(1, num_vars + 1), 2)
                    solver.ensure_vars(top)
                    solver.add_clause((-top, a))
                    solver.add_clause((-top, b))
                    solver.add_clause((top, -a, -b))
            assert len(found) == len(set(found)), clauses
            assert set(found) == all_models(num_vars, clauses), clauses

    def test_assumption_conflicts_do_not_leak(self):
        num_vars, clauses = pigeonhole(4, 3, enable=13)
        solver = Solver(13, clauses)
        for _ in range(2):
            assert solver.solve(assumptions=[13]) is None
            model = solver.solve()
            assert model is not None and model[13] is False
        assert Solver(13, clauses).solve(assumptions=[13]) is None

    def test_assumptions_agree_with_brute_force(self):
        import random

        rng = random.Random(7)
        for trial in range(60):
            num_vars = rng.randint(3, 7)
            clauses = random_instance(rng, num_vars)
            solver = Solver(num_vars, clauses)
            for _ in range(4):
                assumed = [
                    rng.choice([-1, 1]) * v
                    for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 3))
                ]
                expected = all_models(num_vars, clauses + [(l,) for l in assumed])
                model = solver.solve(assumptions=assumed)
                assert (model is not None) == bool(expected), (clauses, assumed)
                if model is not None:
                    assert tuple(model[1:]) in expected

    def test_past_deadline_raises_and_solver_stays_usable(self):
        import time

        from repro.sat.solver import SolverTimeout

        num_vars, clauses = pigeonhole(5, 4)
        solver = Solver(num_vars, clauses)
        with pytest.raises(SolverTimeout):
            solver.solve(deadline=time.monotonic() - 1.0)
        assert solver.solve() is None
        sat_vars, sat_clauses = pigeonhole(4, 4)
        solver = Solver(sat_vars, sat_clauses)
        with pytest.raises(SolverTimeout):
            solver.solve(deadline=time.monotonic() - 1.0)
        model = solver.solve()
        assert model is not None
        assert tuple(model[1:]) in all_models(sat_vars, sat_clauses)

    def test_timeout_mid_search_keeps_solver_correct(self, monkeypatch):
        """A deadline that trips mid-search, after a decision or after a
        conflict, leaves learnt clauses behind; later solves under other
        assumptions must stay exact."""
        from repro.sat import solver as solver_module
        from repro.sat.solver import SolverTimeout

        def satisfies(model, clauses):
            return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)

        sat_vars, sat_clauses = pigeonhole(6, 6, enable=37)
        unsat_vars, unsat_clauses = pigeonhole(5, 4, enable=21)
        for budget in range(1, 60, 3):
            ticks = iter(range(10**6))
            monkeypatch.setattr(
                solver_module.time, "monotonic", lambda: float(next(ticks))
            )
            sat = Solver(37, sat_clauses)
            unsat = Solver(21, unsat_clauses)
            with pytest.raises(SolverTimeout):
                sat.solve(assumptions=[37], deadline=budget - 0.5)
            ticks = iter(range(10**6))
            with pytest.raises(SolverTimeout):
                unsat.solve(assumptions=[21], deadline=budget - 0.5)
            monkeypatch.undo()
            model = sat.solve(assumptions=[-37])
            assert model[37] is False and satisfies(model, sat_clauses)
            model = sat.solve(assumptions=[37])
            assert model[37] is True and satisfies(model, sat_clauses)
            assert unsat.solve(assumptions=[21]) is None
            model = unsat.solve()
            assert model[21] is False and satisfies(model, unsat_clauses)

    def test_same_calls_give_same_models_on_two_solvers(self):
        import random

        def run(seed):
            rng = random.Random(seed)
            num_vars = 9
            solver = Solver(num_vars, random_instance(rng, num_vars))
            models = []
            for step in range(30):
                model = solver.solve(
                    assumptions=[rng.choice([-1, 1])] if step % 4 == 0 else ()
                )
                if model is None:
                    break
                models.append(tuple(model))
                solver.add_clause([-v if model[v] else v for v in range(1, 10)])
            return models

        for seed in range(5):
            assert run(seed) == run(seed)

    def test_model_sequence_is_independent_of_hash_seed(self):
        import os
        import subprocess
        import sys

        script = (
            "import random\n"
            "from repro.sat.solver import Solver\n"
            "rng = random.Random(5)\n"
            "for trial in range(5):\n"
            "    n = 10\n"
            "    clauses = [tuple(rng.choice([-1, 1]) * rng.randint(1, n)\n"
            "                     for _ in range(3)) for _ in range(30)]\n"
            "    solver = Solver(n, clauses)\n"
            "    while (model := solver.solve()) is not None:\n"
            "        print(''.join('1' if b else '0' for b in model[1:]))\n"
            "        solver.add_clause([-v if model[v] else v\n"
            "                           for v in range(1, n + 1)])\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env, capture_output=True, text=True, check=True,
                ).stdout
            )
        assert outputs[0] and outputs[0] == outputs[1]
