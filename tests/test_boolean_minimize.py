"""Unit tests for two-level minimisation (Quine--McCluskey + covering)."""

import itertools

import pytest

from repro.boolean.cube import Cube
from repro.boolean.compiled import SignalSpace
from repro.boolean.minimize import generate_prime_cubes, minimize_onset, solve_covering


def all_codes(signals):
    for bits in itertools.product((0, 1), repeat=len(signals)):
        yield dict(zip(signals, bits))


def assert_equivalent(cover, signals, on, dc=()):
    on_set = [tuple(code[s] for s in signals) for code in on]
    dc_set = [tuple(code[s] for s in signals) for code in dc]
    for code in all_codes(signals):
        vector = tuple(code[s] for s in signals)
        value = cover.covers(code)
        if vector in on_set:
            assert value, f"must be 1 on {code}"
        elif vector not in dc_set:
            assert not value, f"must be 0 on {code}"


class TestGeneratePrimes:
    """Primes are ``(mask, value)`` pairs; ``mask`` holds the cared bits."""

    def test_single_minterm(self):
        primes = generate_prime_cubes(SignalSpace.of(("a", "b")), {0b0}, set())
        assert primes == [(0b11, 0)]

    def test_full_function_is_one_prime(self):
        primes = generate_prime_cubes(SignalSpace.of(("a", "b")), {0, 1, 2, 3}, set())
        assert primes == [(0, 0)]

    def test_dc_merges_but_pure_dc_primes_dropped(self):
        # f(a) with on = {1}, dc = {0}: single prime covering everything
        primes = generate_prime_cubes(SignalSpace.of(("a",)), {1}, {0})
        assert primes == [(0, 0)]


class TestSolveCovering:
    def test_essential_rows_picked(self):
        rows = [frozenset({1}), frozenset({2}), frozenset({1, 2})]
        assert solve_covering(rows, {1, 2}) == [2]

    def test_unreachable_universe(self):
        with pytest.raises(ValueError):
            solve_covering([frozenset({1})], {1, 2})

    def test_cost_respected(self):
        rows = [frozenset({1, 2}), frozenset({1}), frozenset({2})]
        assert solve_covering(rows, {1, 2}, cost=[5, 1, 1]) == [1, 2]


class TestMinimizeOnset:
    def test_empty_onset(self):
        assert minimize_onset(("a",), []).is_empty()

    def test_xor_needs_two_cubes(self):
        signals = ("a", "b")
        on = [{"a": 0, "b": 1}, {"a": 1, "b": 0}]
        cover = minimize_onset(signals, on)
        assert len(cover) == 2
        assert_equivalent(cover, signals, on)

    def test_and_is_one_cube(self):
        signals = ("a", "b")
        on = [{"a": 1, "b": 1}]
        cover = minimize_onset(signals, on)
        assert cover == __import__("repro.boolean.cover", fromlist=["Cover"]).Cover(
            [Cube({"a": 1, "b": 1})]
        )

    def test_dont_cares_merge(self):
        signals = ("a", "b")
        on = [{"a": 1, "b": 1}]
        dc = [{"a": 1, "b": 0}]
        cover = minimize_onset(signals, on, dc)
        assert len(cover) == 1
        assert len(cover.cubes[0]) == 1  # merged into literal a

    def test_three_variable_classic(self):
        # majority function maj(a,b,c): minimum cover = ab + ac + bc
        signals = ("a", "b", "c")
        on = [
            dict(zip(signals, bits))
            for bits in itertools.product((0, 1), repeat=3)
            if sum(bits) >= 2
        ]
        cover = minimize_onset(signals, on)
        assert len(cover) == 3
        assert_equivalent(cover, signals, on)

    def test_exhaustive_small_functions(self):
        # every 2-variable completely specified function minimises correctly
        signals = ("a", "b")
        codes = list(all_codes(signals))
        for mask in range(16):
            on = [codes[i] for i in range(4) if mask >> i & 1]
            cover = minimize_onset(signals, on)
            assert_equivalent(cover, signals, on)
