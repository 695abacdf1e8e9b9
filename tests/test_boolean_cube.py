"""Unit tests for the cube algebra."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolean.compiled import SignalSpace
from repro.boolean.cube import Cube

SIGNALS = ("a", "b", "c")
POINTS = [dict(zip(SIGNALS, bits)) for bits in itertools.product((0, 1), repeat=3)]

cube_strategy = st.dictionaries(
    st.sampled_from(SIGNALS), st.integers(0, 1), max_size=3
).map(Cube)


def covered_points(cube):
    """Indices into ``POINTS`` of every point ``cube`` covers."""
    return {i for i, point in enumerate(POINTS) if cube.covers(point)}


class TestConstruction:
    def test_empty_cube_is_universal(self):
        cube = Cube.universal()
        assert len(cube) == 0
        assert cube.covers({"a": 0, "b": 1})

    def test_literal_values_validated(self):
        with pytest.raises(ValueError):
            Cube({"a": 2})

    def test_minterm(self):
        cube = Cube.minterm({"a": 1, "b": 0})
        assert cube.value_of("a") == 1
        assert cube.value_of("b") == 0

    def test_from_vector(self):
        cube = Cube.from_vector(("a", "b", "c"), (1, 0, 1))
        assert cube.literals == (("a", 1), ("b", 0), ("c", 1))

    def test_from_vector_length_mismatch(self):
        with pytest.raises(ValueError):
            Cube.from_vector(("a",), (1, 0))


class TestSemantics:
    def test_covers_matches_literals(self):
        cube = Cube({"a": 1, "b": 0})
        assert cube.covers({"a": 1, "b": 0, "c": 1})
        assert not cube.covers({"a": 1, "b": 1, "c": 1})
        assert not cube.covers({"a": 0, "b": 0})

    def test_value_of_missing_literal_is_none(self):
        assert Cube({"a": 1}).value_of("b") is None

    def test_evaluator_agrees_with_covers(self):
        cube = Cube({"a": 1, "c": 0})
        space = SignalSpace.of(("a", "b", "c"))
        mask, value = cube.compiled(space)
        for word in range(8):
            code = {s: (word >> i) & 1 for i, s in enumerate(space.signals)}
            assert (word & mask == value) == cube.covers(code)

    def test_contains_signal(self):
        cube = Cube({"a": 1})
        assert "a" in cube
        assert "b" not in cube


class TestAlgebra:
    def test_intersect_compatible(self):
        result = Cube({"a": 1}).intersect(Cube({"b": 0}))
        assert result == Cube({"a": 1, "b": 0})

    def test_intersect_conflicting_is_none(self):
        assert Cube({"a": 1}).intersect(Cube({"a": 0})) is None

    def test_containment(self):
        big = Cube({"a": 1})
        small = Cube({"a": 1, "b": 0})
        assert big.contains(small)
        assert not small.contains(big)
        assert big.contains(big)

    def test_universal_contains_everything(self):
        assert Cube.universal().contains(Cube({"a": 0, "b": 1}))

    def test_without_and_expand(self):
        cube = Cube({"a": 1, "b": 0})
        assert cube.without(("b",)) == Cube({"a": 1})
        assert cube.expand("b") == Cube({"a": 1})
        with pytest.raises(KeyError):
            cube.expand("z")

    def test_restricted_to(self):
        cube = Cube({"a": 1, "b": 0, "c": 1})
        assert cube.restricted_to(("a", "c")) == Cube({"a": 1, "c": 1})

    def test_with_literal(self):
        assert Cube({"a": 1}).with_literal("b", 0) == Cube({"a": 1, "b": 0})

    def test_supercube(self):
        left = Cube({"a": 1, "b": 0})
        right = Cube({"a": 1, "b": 1})
        assert left.supercube(right) == Cube({"a": 1})

    def test_supercube_of_codes(self):
        codes = [{"a": 1, "b": 0, "c": 0}, {"a": 1, "b": 1, "c": 0}]
        cube = Cube.supercube_of_codes(codes, ("a", "b", "c"))
        assert cube == Cube({"a": 1, "c": 0})

    def test_supercube_of_empty_raises(self):
        with pytest.raises(ValueError):
            Cube.supercube_of_codes([], ("a",))

    def test_distance(self):
        assert Cube({"a": 1, "b": 0}).distance(Cube({"a": 0, "b": 1})) == 2
        assert Cube({"a": 1}).distance(Cube({"b": 1})) == 0


class TestAgainstPoints:
    """Containment and intersection checked point by point over 2**3."""

    @given(cube_strategy, cube_strategy)
    @settings(max_examples=80, deadline=None)
    def test_containment_matches(self, x, y):
        assert x.contains(y) == (covered_points(y) <= covered_points(x))

    @given(cube_strategy, cube_strategy)
    @settings(max_examples=80, deadline=None)
    def test_intersection_matches(self, x, y):
        both = x.intersect(y)
        common = covered_points(x) & covered_points(y)
        if both is None:
            assert not common
        else:
            assert covered_points(both) == common


class TestDunder:
    def test_equality_and_hash(self):
        assert Cube({"a": 1, "b": 0}) == Cube({"b": 0, "a": 1})
        assert hash(Cube({"a": 1})) == hash(Cube({"a": 1}))
        assert Cube({"a": 1}) != Cube({"a": 0})

    def test_usable_in_sets(self):
        cubes = {Cube({"a": 1}), Cube({"a": 1}), Cube({"a": 0})}
        assert len(cubes) == 2

    def test_repr(self):
        assert repr(Cube()) == "Cube(1)"
        assert "a" in repr(Cube({"a": 1}))
        assert "b'" in repr(Cube({"b": 0}))
