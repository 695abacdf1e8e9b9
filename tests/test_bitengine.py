"""The bitmask analysis engine against the dict-based reference semantics.

Two layers of evidence that the packed/bitset fast path computes the
same thing the plain dictionaries did:

* a hypothesis property test that the ``(mask, value)`` pair of
  ``Cube.compiled`` agrees with ``Cube.covers`` on random cubes and codes,
* per-graph agreement of every engine primitive (packed codes, literal
  bitsets, cube bitsets, successor tables) with the graph's own
  accessors on the paper figures and the stress generators.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.figures import figure1_sg, figure3_sg
from repro.corpus import alternator, concurrent_fork, token_ring
from repro.boolean.compiled import SignalSpace
from repro.boolean.cube import Cube
from repro.sg.bitengine import bit_analysis
from repro.stg.reachability import stg_to_state_graph

SIGNALS = tuple(f"s{i}" for i in range(8))


def _pack(code, order):
    word = 0
    for position, signal in enumerate(order):
        if code[signal]:
            word |= 1 << position
    return word


@given(
    literals=st.dictionaries(
        st.sampled_from(SIGNALS), st.integers(0, 1), max_size=len(SIGNALS)
    ),
    vector=st.tuples(*([st.integers(0, 1)] * len(SIGNALS))),
)
@settings(max_examples=300, deadline=None)
def test_compiled_cube_matches_dict_covers(literals, vector):
    cube = Cube(literals)
    code = dict(zip(SIGNALS, vector))
    packed = _pack(code, SIGNALS)
    mask, value = cube.compiled(SignalSpace.of(SIGNALS))
    assert (packed & mask == value) == cube.covers(code)


@given(
    literals=st.dictionaries(
        st.sampled_from(SIGNALS), st.integers(0, 1), max_size=len(SIGNALS)
    )
)
@settings(max_examples=100, deadline=None)
def test_compile_is_stable_and_order_sensitive(literals):
    cube = Cube(literals)
    space = SignalSpace.of(SIGNALS)
    assert cube.compiled(space) is cube.compiled(space)  # memoised
    reordered = tuple(reversed(SIGNALS))
    mask, value = cube.compiled(SignalSpace.of(reordered))
    for position, signal in enumerate(reordered):
        expected = cube.value_of(signal)
        assert bool(mask & (1 << position)) == (expected is not None)
        if expected is not None:
            assert bool(value & (1 << position)) == bool(expected)


def _sample_graphs():
    yield figure1_sg()
    yield figure3_sg()
    yield stg_to_state_graph(concurrent_fork(3))
    yield stg_to_state_graph(token_ring(6))
    yield stg_to_state_graph(alternator(2))


@pytest.mark.parametrize("sg", _sample_graphs(), ids=lambda g: g.name)
def test_engine_primitives_match_graph(sg):
    engine = bit_analysis(sg)
    # packed codes encode exactly the graph's codes
    for state in sg.states:
        code = sg.code(state)
        for position, signal in enumerate(engine.signals):
            packed = engine.packed_list[engine.index[state]]
            bit = bool(packed & (1 << position))
            assert bit == bool(code[position]), (state, signal)
    # literal bitsets name exactly the satisfying states
    for position, signal in enumerate(engine.signals):
        for value in (0, 1):
            expected = {
                s for s in sg.states if sg.code(s)[position] == value
            }
            assert engine.states_of(engine.literal_bits(position, value)) == expected
    # cube bitsets agree with the dict evaluator on assorted cubes
    some = sorted(map(str, sg.states))[0]
    state_by_str = {str(s): s for s in sg.states}
    minterm = Cube.minterm(sg.code_dict(state_by_str[some]))
    cubes = [Cube(), minterm] + [
        Cube({signal: v})
        for signal in sg.signals[:3]
        for v in (0, 1)
    ]
    for cube in cubes:
        expected = {s for s in sg.states if cube.covers(sg.code_dict(s))}
        assert engine.states_of(engine.cube_bits(cube)) == expected
        for state in sg.states:
            assert engine.covers_state(cube, state) == cube.covers(
                sg.code_dict(state)
            )
    # successor/predecessor tables mirror the arc lists
    for i, state in enumerate(engine.states):
        succ = {t for _, t in sg.arcs_from(state)}
        pred = {p for _, p in sg.arcs_into(state)}
        assert engine.states_of(engine.succ_bits[i]) == succ
        assert engine.states_of(engine.pred_bits[i]) == pred
        assert engine.states_of(engine.adj_bits[i]) == succ | pred


def test_bits_roundtrip():
    sg = stg_to_state_graph(token_ring(4))
    engine = bit_analysis(sg)
    subset = frozenset(list(sg.states)[::2])
    assert engine.states_of(engine.bits_of(subset)) == subset
    assert engine.states_of(0) == frozenset()
    assert engine.states_of(engine.all_states_bits) == sg.states
