"""Tests for Petri-net S/T-invariant analysis."""

import random
from fractions import Fraction
from math import gcd

import pytest

from repro.bench.suite import BENCHMARKS, load_benchmark
from repro.corpus.families import fuzz_specs
from repro.stg.invariants import (
    _kernel_basis,
    _to_integer,
    incidence_matrix,
    is_consistent_net,
    is_covered_by_s_invariants,
    s_invariants,
    t_invariants,
)
from repro.stg.parser import parse_g
from repro.stg.reachability import explore
from tests.test_stg_explore_oracle import marking_places

TOGGLE = """
.inputs r
.outputs q
.graph
r+ q+
q+ r-
r- q-
q- r+
.marking { <q-,r+> }
.end
"""


class TestIncidenceMatrix:
    def test_shape_and_entries(self):
        net = parse_g(TOGGLE).net
        places, transitions, matrix = incidence_matrix(net)
        assert len(places) == 4 and len(transitions) == 4
        # each column has exactly one +1 (output place) and one -1
        for j in range(len(transitions)):
            column = [matrix[i][j] for i in range(len(places))]
            assert sorted(column) == [-1, 0, 0, 1]


class TestTInvariants:
    def test_toggle_cycle_all_ones(self):
        net = parse_g(TOGGLE).net
        invariants = t_invariants(net)
        assert len(invariants) == 1
        assert set(invariants[0].values()) == {1}
        assert set(invariants[0]) == net.transitions

    def test_invariant_reproduces_marking(self):
        """Firing a T-invariant's multiset returns to the start marking."""
        stg = parse_g(TOGGLE)
        net = stg.net
        invariant = t_invariants(net)[0]
        exploration = explore(stg)
        successors = {}
        for source, t, target in exploration.arcs:
            successors.setdefault(source, []).append((exploration.transitions[t], target))
        marking = 0
        fired = {t: 0 for t in net.transitions}
        guard = 0
        while any(fired[t] < invariant.get(t, 0) for t in net.transitions):
            guard += 1
            assert guard < 100
            for t, target in successors.get(marking, []):
                if fired[t] < invariant.get(t, 0):
                    marking = target
                    fired[t] += 1
                    break
        assert marking_places(exploration, marking) == stg.initial_marking

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_benchmarks_are_consistent(self, name):
        assert is_consistent_net(load_benchmark(name).net), name


class TestSInvariants:
    def test_toggle_single_token_conservation(self):
        net = parse_g(TOGGLE).net
        invariants = s_invariants(net)
        # the 4-place ring conserves exactly one weighted token set
        assert len(invariants) == 1
        assert set(invariants[0].values()) == {1}

    def test_concurrent_net_has_multiple_invariants(self):
        text = """
        .inputs r
        .outputs u v
        .graph
        r+ u+ v+
        u+ r-
        v+ r-
        r- u- v-
        u- r+
        v- r+
        .marking { <u-,r+> <v-,r+> }
        .end
        """
        net = parse_g(text).net
        assert len(s_invariants(net)) >= 2

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_benchmarks_covered(self, name):
        assert is_covered_by_s_invariants(load_benchmark(name).net), name

    def test_invariant_weight_is_conserved_dynamically(self):
        stg = parse_g(TOGGLE)
        net = stg.net
        invariant = s_invariants(net)[0]

        def weight(marking):
            return sum(invariant.get(p, 0) for p in marking)

        initial_weight = weight(stg.initial_marking)
        exploration = explore(stg)
        marking = 0
        for _ in range(8):
            # the first transition enabled at the marking, in sorted order
            marking = next(d for s, _, d in exploration.arcs if s == marking)
            assert weight(marking_places(exploration, marking)) == initial_weight


def _fraction_kernel(matrix):
    """Rational Gauss–Jordan kernel basis, the RREF free-column vectors (oracle)."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    cols = len(rows[0]) if rows else 0
    pivots = {}
    row_index = 0
    for col in range(cols):
        pivot_row = None
        for r in range(row_index, len(rows)):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[row_index], rows[pivot_row] = rows[pivot_row], rows[row_index]
        pivot_value = rows[row_index][col]
        rows[row_index] = [v / pivot_value for v in rows[row_index]]
        for r in range(len(rows)):
            if r != row_index and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[row_index])]
        pivots[col] = row_index
        row_index += 1
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vector = [Fraction(0)] * cols
        vector[free] = Fraction(1)
        for col, row in pivots.items():
            vector[col] = -rows[row][free]
        basis.append(vector)
    return basis


def _fraction_to_integer(vector):
    multiple = 1
    for value in vector:
        d = value.denominator
        multiple = multiple * d // gcd(multiple, d)
    scaled = [int(v * multiple) for v in vector]
    divisor = 0
    for v in scaled:
        divisor = gcd(divisor, abs(v))
    return [v // divisor for v in scaled] if divisor > 1 else scaled


def _oracle_invariants(names, matrix):
    result = []
    for vector in _fraction_kernel(matrix):
        weights = _fraction_to_integer(vector)
        if all(w <= 0 for w in weights):
            weights = [-w for w in weights]
        result.append({n: w for n, w in zip(names, weights) if w != 0})
    return result


def _random_matrix(rng):
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    dense = rng.random()
    return [
        [rng.randint(-3, 3) if rng.random() < dense else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


EDGE_MATRICES = [
    [],
    [[0, 0, 0]],
    [[0, 0], [0, 0]],
    [[1, -1, 0, 2]],
    [[-2], [3], [0]],
    [[0], [0]],
    [[-1, 2, 0], [0, 0, 0], [3, -1, 1]],
    [[0, -2, 4], [-3, 0, 6], [0, 0, 0]],
    [[-5, 10, 15], [2, -4, -6]],
]


@pytest.mark.smoke
def test_integer_kernel_matches_fraction_oracle():
    rng = random.Random(2026)
    matrices = EDGE_MATRICES + [_random_matrix(rng) for _ in range(400)]
    for matrix in matrices:
        expected = [_fraction_to_integer(v) for v in _fraction_kernel(matrix)]
        assert [_to_integer(v) for v in _kernel_basis(matrix)] == expected, matrix
    for _, stg in fuzz_specs(30, seed=1):
        net = stg.net
        places, transitions, matrix = incidence_matrix(net)
        transposed = [list(col) for col in zip(*matrix)] if matrix else []
        assert t_invariants(net) == _oracle_invariants(transitions, matrix)
        assert s_invariants(net) == _oracle_invariants(places, transposed)
