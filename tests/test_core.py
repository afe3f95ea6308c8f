import random
from math import comb

import pytest
from hypothesis import given, strategies as st

from prodtri.core import (
    Circuit,
    Dims,
    NotACycle,
    Simplex,
    _edge_blocks,
    alternating_path,
    col_neighbors,
    connecting_edges,
    is_forest,
    is_spanning_tree,
    noncrossing,
    row_neighbors,
    shape,
    tree_path,
)
from prodtri.flips import all_circuits
import reference


def edges(dims, *pairs):
    return Simplex.from_edges(dims, pairs)


def test_components_empty_simplex():
    assert _edge_blocks(Dims(2, 2), 0) == ([], [])


def test_components_spanning_tree():
    d = Dims(2, 2)
    t = edges(d, (0, 0), (1, 0), (1, 1))
    assert _edge_blocks(d, t.mask) == ([0b11], [0b11])


def test_components_partial():
    # e1 with f1 and e3 with f2; e2 and e4 are in no block with edges
    d = Dims(4, 2)
    s = edges(d, (0, 0), (2, 1))
    assert _edge_blocks(d, s.mask) == ([0b0001, 0b0100], [0b01, 0b10])


def test_neighborhood_basic():
    d = Dims(2, 3)
    s = edges(d, (0, 0), (1, 0), (1, 1))
    assert col_neighbors(s, 0) == {0, 1}


def test_neighborhood_four_rows():
    # a tree with N(f1) = {1,2,4}, N(f2) = {1,3} in 1-based labels
    d = Dims(4, 2)
    t = edges(d, (0, 0), (1, 0), (3, 0), (0, 1), (2, 1))
    assert col_neighbors(t, 0) == {0, 1, 3}
    assert shape(t) == frozenset({frozenset({0, 1, 3}), frozenset({0, 2})})


def test_shape_unmixed_and_matching():
    d = Dims(4, 3)
    star_col = edges(d, (0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (0, 2))
    assert shape(star_col) == frozenset({frozenset({0, 1, 2, 3})})
    matching = edges(d, (0, 0), (1, 1))
    assert shape(matching) == frozenset()


def test_circuit_of_six_cycle():
    d = Dims(3, 3)
    X = Circuit.from_edges(d, [(0, 0), (1, 1), (2, 2)], [(1, 0), (2, 1), (0, 2)])
    rows, cols = X.cycle_sequence()
    assert rows == (0, 1, 2) and cols == (0, 1, 2)


def test_circuit_rejects_non_cycles():
    d = Dims(3, 3)
    with pytest.raises(NotACycle):  # three edges at one row
        Circuit.from_edges(d, [(0, 0), (0, 2)], [(0, 1)])
    with pytest.raises(NotACycle):
        Circuit.from_edges(d, [(0, 0)], [(1, 1)])
    with pytest.raises(NotACycle):
        Circuit.from_edges(d, [(0, 0), (1, 1)], [(1, 0), (2, 2)])


@pytest.mark.parametrize("m, n", [(2, 2), (3, 3), (4, 3), (3, 4), (4, 4)])
def test_from_cycle_inverts_cycle_sequence(m, n):
    """Every circuit is the cycle through its row and column sequence,
    started at any row of the cycle; and the enumeration, which writes the
    masks of each sequence, gives the circuits that ``Circuit.from_edges``
    makes of every edge set walked as one cycle, in the same order."""
    d = Dims(m, n)
    circuits = all_circuits(d)
    assert list(circuits) == reference.all_circuits_from_edges(d)
    for X in circuits:
        rows, cols = X.cycle_sequence()
        for s in range(len(rows)):
            assert Circuit.from_cycle(d, rows[s:] + rows[:s], cols[s:] + cols[:s]) == X


def test_from_cycle_refusals():
    d = Dims(4, 4)
    with pytest.raises(ValueError, match="^2 rows but 1 columns$"):
        Circuit.from_cycle(d, (0, 1), (0,))
    with pytest.raises(ValueError, match="out of range"):
        Circuit.from_cycle(d, (0, 4), (0, 1))
    with pytest.raises(ValueError, match="out of range"):
        Circuit.from_cycle(d, (-1, 0), (0, 1))
    with pytest.raises(ValueError, match="out of range"):
        Circuit.from_cycle(d, (0, 1), (0, 4))
    with pytest.raises(NotACycle):  # row 0 twice: four edges at it
        Circuit.from_cycle(d, (0, 1, 0, 2), (0, 1, 2, 3))
    with pytest.raises(NotACycle):  # column 0 twice
        Circuit.from_cycle(d, (0, 1, 2, 3), (0, 1, 0, 2))
    with pytest.raises(NotACycle):  # one edge, on both sides
        Circuit.from_cycle(d, (0,), (0,))


def test_alternating_path_parity():
    d = Dims(2, 2)
    s = edges(d, (0, 0), (1, 0))
    xi = edges(d, (0, 0))
    assert alternating_path(s, xi, 0, 1, 1) == ((0, 0), (1, 0))
    assert alternating_path(s, xi, 0, 1, 2) is None


def test_alternating_path_on_circuit_side():
    # one plus-side tree of the six-cycle, walked from e1 to e3 along minus edges
    d = Dims(3, 3)
    sigma1 = edges(d, (0, 0), (1, 0), (1, 1), (2, 1), (2, 2))
    xi = edges(d, (0, 0), (1, 1), (2, 2))
    path = alternating_path(sigma1, xi, 0, 2, 1)
    assert path == ((0, 0), (1, 0), (1, 1), (2, 1))


def test_alternating_path_disconnected():
    d = Dims(2, 3)
    s = edges(d, (0, 0))
    assert alternating_path(s, Simplex(d), 0, 1, 1) is None


def test_noncrossing_single_edge_and_diagonals():
    d = Dims(2, 2)
    assert noncrossing(edges(d, (0, 0)), (0, 1), (0, 1))
    assert not noncrossing(edges(d, (0, 0), (1, 1)), (0, 1), (0, 1))
    assert noncrossing(edges(d, (0, 1), (1, 0)), (0, 1), (0, 1))


@pytest.mark.parametrize(
    "m,n", [(2, 2), (2, 3), (3, 2), (4, 2), (4, 3)]
)
def test_noncrossing_tree_count_is_binomial(m, n):
    from prodtri.oracle import spanning_trees

    d = Dims(m, n)
    row_order = tuple(range(m)) if m < 4 else (0, 2, 3, 1)
    col_order = tuple(range(n))
    hits = [t for t in spanning_trees(d) if noncrossing(t, row_order, col_order)]
    assert len(hits) == comb(m + n - 2, m - 1)


def test_tree_path_and_connecting_edges():
    d = Dims(3, 3)
    t = edges(d, (0, 0), (1, 0), (1, 1), (2, 1), (2, 2))
    assert tree_path(t, 0, 0) == ()
    assert tree_path(t, 0, 2) == ((0, 0), (1, 0), (1, 1), (2, 1))
    steiner = connecting_edges(t, [0, 1, 2])
    assert steiner == edges(d, (0, 0), (1, 0), (1, 1), (2, 1))


@st.composite
def random_forest(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    d = Dims(m, n)
    cells = [(i, j) for i in range(m) for j in range(n)]
    picked = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    mask = 0
    s = Simplex(d)
    for i, j in picked:
        cand = s.with_edge(i, j)
        if is_forest(cand):
            s = cand
    return s


@given(random_forest())
def test_forest_identity(simplex):
    m, n = simplex.dims
    assert len(simplex) + len(reference.components(simplex)) == m + n


@given(random_forest())
def test_row_col_neighbors_agree(simplex):
    m, n = simplex.dims
    for i in range(m):
        for j in range(n):
            assert ((i, j) in simplex) == (j in row_neighbors(simplex, i))
            assert ((i, j) in simplex) == (i in col_neighbors(simplex, j))


def test_spanning_tree_predicate():
    d = Dims(2, 2)
    assert is_spanning_tree(edges(d, (0, 0), (1, 0), (1, 1)))
    assert not is_spanning_tree(edges(d, (0, 0), (1, 1)))


def test_random_circuits_alternate(trees43):
    rng = random.Random(11)
    d = Dims(4, 3)
    for _ in range(50):
        t1, t2 = rng.sample(trees43, 2)
        union = t1.union(t2)
        # any cycle inside the union alternates at every vertex once signed
        from prodtri.flips import all_circuits

        for X in all_circuits(d):
            cyc = X.minus_mask | X.plus_mask
            if cyc & ~union.mask == 0:
                rows, cols = X.cycle_sequence()
                assert len(rows) == len(set(rows))
                assert len(cols) == len(set(cols))
                break
