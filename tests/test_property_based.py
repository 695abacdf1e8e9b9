"""Property-based tests (hypothesis) for core data structures and invariants."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolean.compiled import SignalSpace
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.minimize import minimize_onset
from repro.core.insertion import expand_with_signal, labelling_from_partition, project_away
from repro.sat.cnf import CNF
from repro.sat.solver import Solver
from repro.sg.builder import sg_from_arcs
from repro.sg.properties import is_output_semi_modular

SIGNALS = ("a", "b", "c")


def all_codes():
    return [dict(zip(SIGNALS, bits)) for bits in itertools.product((0, 1), repeat=3)]


cube_strategy = st.dictionaries(
    st.sampled_from(SIGNALS), st.integers(0, 1), max_size=3
).map(Cube)


class TestCubeProperties:
    @given(cube_strategy, cube_strategy)
    def test_intersection_semantics(self, x, y):
        both = x.intersect(y)
        for code in all_codes():
            point_in_both = x.covers(code) and y.covers(code)
            if both is None:
                assert not point_in_both
            else:
                assert both.covers(code) == point_in_both

    @given(cube_strategy, cube_strategy)
    def test_containment_semantics(self, x, y):
        if x.contains(y):
            for code in all_codes():
                if y.covers(code):
                    assert x.covers(code)

    @given(cube_strategy, cube_strategy)
    def test_supercube_covers_both(self, x, y):
        sup = x.supercube(y)
        for code in all_codes():
            if x.covers(code) or y.covers(code):
                assert sup.covers(code)

    @given(cube_strategy)
    def test_evaluator_matches_covers(self, cube):
        space = SignalSpace.of(SIGNALS)
        mask, value = cube.compiled(space)
        for code in all_codes():
            assert (space.pack(code) & mask == value) == cube.covers(code)

    @given(st.lists(cube_strategy, max_size=4))
    def test_cover_is_disjunction(self, cubes):
        cover = Cover(cubes)
        for code in all_codes():
            assert cover.covers(code) == any(c.covers(code) for c in cubes)


class TestMinimizeProperties:
    @given(st.sets(st.integers(0, 7)), st.sets(st.integers(0, 7)))
    @settings(max_examples=60, deadline=None)
    def test_minimized_cover_equivalent(self, on, dc):
        dc = dc - on
        codes = all_codes()
        on_codes = [codes[i] for i in sorted(on)]
        dc_codes = [codes[i] for i in sorted(dc)]
        cover = minimize_onset(SIGNALS, on_codes, dc_codes)
        for i, code in enumerate(codes):
            value = cover.covers(code)
            if i in on:
                assert value
            elif i not in dc:
                assert not value


class TestSATProperties:
    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(
                        st.integers(1, n).flatmap(
                            lambda v: st.sampled_from([v, -v])
                        ),
                        min_size=1,
                        max_size=3,
                    ),
                    max_size=12,
                ),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_solver_sound_and_complete(self, instance):
        num_vars, clauses = instance
        clauses = [tuple(c) for c in clauses]
        model = Solver(num_vars, clauses).solve()
        brute = any(
            all(
                any((bits[abs(l) - 1] if l > 0 else not bits[abs(l) - 1]) for l in c)
                for c in clauses
            )
            for bits in itertools.product((False, True), repeat=num_vars)
        )
        assert (model is not None) == brute
        if model is not None:
            for clause in clauses:
                assert any(
                    (model[abs(l)] if l > 0 else not model[abs(l)]) for l in clause
                )

    @given(st.integers(1, 8), st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_at_most_k_exact_boundary(self, n, k):
        cnf = CNF()
        vs = [cnf.new_var() for _ in range(n)]
        cnf.at_most_k(vs, k)
        # forcing min(n, k) variables true stays SAT
        for v in vs[: min(n, k)]:
            cnf.add(v)
        assert Solver.from_cnf(cnf).solve() is not None
        if k < n:
            cnf.add(vs[k])
            assert Solver.from_cnf(cnf).solve() is None


def _random_cycle_sg(order):
    """A state graph from a random interleaving of signal sequences."""
    events = []
    for signal, toggles in order:
        events.extend([f"{signal}{'+' if i % 2 == 0 else '-'}" for i in range(toggles)])
    arcs = [
        (f"s{i}", event, f"s{(i + 1) % len(events)}")
        for i, event in enumerate(events)
    ]
    return sg_from_arcs(
        ("p", "q"),
        ("p",),
        (0, 0),
        arcs,
        initial="s0",
        name="random-cycle",
    )


class TestExpansionProperties:
    @given(st.sets(st.integers(0, 3), min_size=1, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_partition_expansion_projects_back(self, one_side):
        sg = sg_from_arcs(
            ("p", "q"),
            ("p",),
            (0, 0),
            [
                ("s0", "p+", "s1"),
                ("s1", "q+", "s2"),
                ("s2", "p-", "s3"),
                ("s3", "q-", "s0"),
            ],
            initial="s0",
            name="toggle",
        )
        partition = {f"s{i}": (1 if i in one_side else 0) for i in range(4)}
        labelling = labelling_from_partition(sg, partition)
        if labelling is None:
            return
        expanded = expand_with_signal(sg, labelling, "x")
        # invariant 1: the expansion is a consistent state graph
        expanded.check()
        # invariant 2: hiding x restores the original behaviour
        projected = project_away(expanded, "x")
        original = {
            (sg.code(s), str(e), sg.code(t)) for s, e, t in sg.arcs()
        }
        back = {
            (projected.code(s), str(e), projected.code(t))
            for s, e, t in projected.arcs()
        }
        assert original == back
        # invariant 3: expansion never breaks output semi-modularity of a
        # semi-modular original (x conflicts excepted -- checked on all)
        assert is_output_semi_modular(projected) == is_output_semi_modular(sg)
