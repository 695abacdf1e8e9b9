"""Unit tests for covers (sums of cubes)."""

import pytest

from repro.boolean.compiled import SignalSpace
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube


class TestConstruction:
    def test_deduplicates(self):
        cover = Cover([Cube({"a": 1}), Cube({"a": 1})])
        assert len(cover) == 1

    def test_rejects_non_cubes(self):
        with pytest.raises(TypeError):
            Cover(["ab"])

    def test_empty_cover_is_constant_zero(self):
        cover = Cover()
        assert cover.is_empty()
        assert not cover
        assert not cover.covers({"a": 1})


class TestSemantics:
    def test_covers_is_disjunction(self):
        cover = Cover([Cube({"a": 1}), Cube({"b": 1})])
        assert cover.covers({"a": 1, "b": 0})
        assert cover.covers({"a": 0, "b": 1})
        assert not cover.covers({"a": 0, "b": 0})

    def test_covering_cubes(self):
        c1, c2 = Cube({"a": 1}), Cube({"b": 1})
        cover = Cover([c1, c2])
        assert cover.covering_cubes({"a": 1, "b": 1}) == [c1, c2]
        assert cover.covering_cubes({"a": 1, "b": 0}) == [c1]

    def test_evaluator_agrees_with_covers(self):
        cover = Cover([Cube({"a": 1, "b": 0}), Cube({"c": 1})])
        space = SignalSpace.of(("a", "b", "c"))
        pairs = [cube.compiled(space) for cube in cover]
        for word in range(8):
            code = {s: (word >> i) & 1 for i, s in enumerate(space.signals)}
            packed = any(word & mask == value for mask, value in pairs)
            assert packed == cover.covers(code)

    def test_signals(self):
        cover = Cover([Cube({"a": 1}), Cube({"b": 0, "c": 1})])
        assert cover.signals == frozenset({"a", "b", "c"})


class TestAlgebra:
    def test_union_and_with_cube(self):
        cover = Cover([Cube({"a": 1})]).union(Cover([Cube({"b": 1})]))
        assert len(cover) == 2
        assert len(cover.with_cube(Cube({"c": 1}))) == 3

    def test_contains_cube(self):
        cover = Cover([Cube({"a": 1})])
        assert cover.contains_cube(Cube({"a": 1, "b": 0}))
        assert not cover.contains_cube(Cube({"b": 0}))

    def test_irredundant_drops_contained(self):
        cover = Cover([Cube({"a": 1}), Cube({"a": 1, "b": 0})])
        reduced = cover.irredundant()
        assert reduced == Cover([Cube({"a": 1})])

    def test_irredundant_respects_keep(self):
        keep = Cube({"a": 1, "b": 0})
        cover = Cover([Cube({"a": 1}), keep])
        assert keep in cover.irredundant(keep=[keep]).cubes

    def test_literal_count(self):
        cover = Cover([Cube({"a": 1}), Cube({"b": 0, "c": 1})])
        assert cover.literal_count() == 3

    def test_equality_ignores_order(self):
        a, b = Cube({"a": 1}), Cube({"b": 1})
        assert Cover([a, b]) == Cover([b, a])
        assert hash(Cover([a, b])) == hash(Cover([b, a]))
