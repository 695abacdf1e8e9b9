"""The packed signal space and the ``(mask, value)`` form of a cube.

`SignalSpace` packs a complete code into one int and `Cube.compiled`
gives a cube's ``(mask, value)`` pair against it -- the form every
layer's hot path tests a packed code against; these tests pin it to the
literal-dict semantics of `Cube`/`Cover` and `Cube.from_mask` back.
"""

import random

import pytest

from repro.boolean.compiled import SignalSpace, popcount
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube

pytestmark = pytest.mark.smoke

SIGNALS = ("a", "b", "c", "d", "e")


def random_cube(rng, signals=SIGNALS):
    return Cube(
        {
            signal: rng.randint(0, 1)
            for signal in signals
            if rng.random() < 0.6
        }
    )


def unpack(space, word):
    """A packed code back as a ``signal -> value`` dict."""
    return {
        signal: (word >> position) & 1
        for position, signal in enumerate(space.signals)
    }


class TestSignalSpace:
    def test_interned_identity(self):
        assert SignalSpace.of(SIGNALS) is SignalSpace.of(list(SIGNALS))

    def test_different_order_different_space(self):
        assert SignalSpace.of(("a", "b")) is not SignalSpace.of(("b", "a"))

    def test_duplicate_signals_rejected(self):
        with pytest.raises(ValueError):
            SignalSpace.of(("a", "a"))

    def test_pack_unpack_round_trip(self):
        space = SignalSpace.of(SIGNALS)
        for word in range(1 << len(SIGNALS)):
            assert space.pack(unpack(space, word)) == word

    def test_pack_bit_positions(self):
        space = SignalSpace.of(SIGNALS)
        assert space.pack({"a": 1, "b": 0, "c": 0, "d": 0, "e": 0}) == 1
        assert space.pack({"a": 0, "b": 0, "c": 0, "d": 0, "e": 1}) == 1 << 4

    def test_membership_and_index(self):
        space = SignalSpace.of(SIGNALS)
        assert "c" in space.position and "z" not in space.position
        assert space.position["c"] == 2
        assert space.width == 5
        assert space.full_mask == 0b11111


class TestCubeCompiled:
    space = SignalSpace.of(SIGNALS)

    def test_covers_agrees_with_literal_cube(self):
        rng = random.Random(7)
        for _ in range(200):
            cube = random_cube(rng)
            mask, value = cube.compiled(self.space)
            for word in range(1 << len(SIGNALS)):
                code = unpack(self.space, word)
                assert (word & mask == value) == cube.covers(code)

    def test_covers_agrees_with_literal_cover(self):
        rng = random.Random(23)
        for _ in range(60):
            cover = Cover(random_cube(rng) for _ in range(rng.randint(0, 4)))
            pairs = [cube.compiled(self.space) for cube in cover]
            for word in range(1 << len(SIGNALS)):
                code = unpack(self.space, word)
                packed = any(word & mask == value for mask, value in pairs)
                assert packed == cover.covers(code)

    def test_universal_and_minterm(self):
        assert Cube.universal().compiled(self.space) == (0, 0)
        minterm = Cube.minterm(unpack(self.space, 0b01100))
        assert minterm.compiled(self.space) == (self.space.full_mask, 0b01100)

    def test_validation(self):
        with pytest.raises(ValueError, match="outside the space"):
            Cube.from_mask(self.space, 1 << len(SIGNALS), 0)
        with pytest.raises(ValueError, match="outside the mask"):
            Cube.from_mask(self.space, 0b01, 0b10)

    def test_literal_views_round_trip(self):
        cube = Cube({"a": 1, "c": 0, "e": 1})
        assert cube.compiled(self.space) == (0b10101, 0b10001)
        assert Cube.from_mask(self.space, 0b10101, 0b10001) == cube
        rng = random.Random(5)
        for _ in range(200):
            cube = random_cube(rng)
            assert Cube.from_mask(self.space, *cube.compiled(self.space)) == cube

    def test_memoised_per_space(self):
        cube = Cube({"a": 1})
        assert cube.compiled(self.space) is cube.compiled(self.space)
        reordered = SignalSpace.of(tuple(reversed(SIGNALS)))
        assert cube.compiled(reordered) == (1 << 4, 1 << 4)

    def test_foreign_space_rejected(self):
        with pytest.raises(KeyError):
            Cube({"x": 1}).compiled(self.space)


class TestPopcount:
    def test_matches_bin_count(self):
        rng = random.Random(1)
        for _ in range(100):
            word = rng.getrandbits(80)
            assert popcount(word) == bin(word).count("1")
