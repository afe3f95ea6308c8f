import random

import pytest

from prodtri.core import Dims, Simplex, _bits
from prodtri.orders import (
    EQUIVALENT,
    GREATER,
    LESS,
    EmptyInput,
    MalformedLocal,
    NoMinimal,
    _move_masks,
    build_precedence,
    compare_columns,
    free_equivalent,
    restriction_order,
    segment_decompose,
    select_extremal,
    toward_row,
    toward_row_free,
    unique_minimal,
)
from prodtri.phases import staircase
from prodtri.triangulation import LocalTriangulation, Triangulation, star
import reference


def edges(d, *pairs):
    return Simplex.from_edges(d, pairs)


def test_segment_decompose_full_staircase(seg_staircase):
    L = LocalTriangulation(
        seg_staircase.dims, Simplex(seg_staircase.dims), seg_staircase.maximal
    )
    seg = segment_decompose(L)
    assert seg.labels == (0, 1, 2)
    assert seg.simplices[0] == edges(seg_staircase.dims, (0, 0), (0, 1), (0, 2), (1, 0))


def test_segment_decompose_single_simplex():
    d = Dims(2, 2)
    L = LocalTriangulation(d, edges(d, (0, 0)), [edges(d, (0, 0), (0, 1), (1, 1))])
    seg = segment_decompose(L)
    assert len(seg.simplices) == 1


def test_segment_decompose_local_at_both_corners():
    d = Dims(2, 2)
    base = edges(d, (0, 0), (1, 1))
    L = LocalTriangulation(
        d,
        base,
        [edges(d, (0, 0), (1, 1), (0, 1)), edges(d, (0, 0), (1, 1), (1, 0))],
    )
    seg = segment_decompose(L)
    assert seg.labels[0] == 1 and seg.labels[-1] == 0


def test_segment_decompose_rejects_wrong_m():
    d = Dims(3, 2)
    with pytest.raises(MalformedLocal):
        segment_decompose(
            LocalTriangulation(d, Simplex(d), [edges(d, (0, 0), (1, 0), (2, 0), (0, 1))])
        )


def test_restriction_order_of_staircase():
    T = staircase(3)
    assert restriction_order(T, 0, 1).as_total() == (0, 1, 2)
    assert restriction_order(T, 2, 3).as_total() == (0, 1, 2)


def test_restriction_order_single_column():
    T = staircase(1)
    order = restriction_order(T, 0, 1)
    assert order.strata == (frozenset({0}),)


def test_restriction_order_reverses_with_rows(corpus43):
    rng = random.Random(2)
    for T in rng.sample(corpus43.triangulations, 12):
        for i1 in range(4):
            for i2 in range(i1 + 1, 4):
                fwd = restriction_order(T, i1, i2)
                back = restriction_order(T, i2, i1)
                assert fwd.strata == tuple(reversed(back.strata))


def test_compare_columns_square_antidiagonal():
    d = Dims(2, 2)
    T = Triangulation(
        d,
        [edges(d, (1, 0), (0, 1), (0, 0)), edges(d, (1, 0), (0, 1), (1, 1))],
    )
    assert compare_columns(T, 0, 1, 0, 1) == LESS
    assert compare_columns(T, 1, 0, 0, 1) == GREATER
    with pytest.raises(ValueError):
        compare_columns(T, 0, 1, 1, 1)


def test_compare_columns_matches_restriction_order(corpus43):
    rng = random.Random(6)
    for T in rng.sample(corpus43.triangulations, 15):
        for i1 in range(4):
            for i2 in range(4):
                if i1 == i2:
                    continue
                order = restriction_order(T, i1, i2)
                for j in range(3):
                    for j2 in range(3):
                        if j == j2:
                            continue
                        cmp = compare_columns(T, i1, i2, j, j2)
                        assert cmp == order.compare(j, j2)


def test_compare_columns_equivalent_in_local_star(corpus43):
    # columns in a shared end class of a star's restriction are equivalent
    T = corpus43.triangulations[0]
    t0 = T.maximal[0]
    L = star(T, Simplex.from_edges(T.dims, [sorted(t0.edges)[0]]))
    found = False
    for i1 in range(4):
        for i2 in range(4):
            if i1 == i2 or any(i not in (i1, i2) for i, _ in L.base):
                continue
            order = restriction_order(L, i1, i2)
            for s in order.strata:
                if len(s) > 1:
                    a, b = sorted(s)[:2]
                    assert compare_columns(L, i1, i2, a, b) == EQUIVALENT
                    found = True
    assert found


def test_move_masks_square(square):
    d = square.dims
    lower = edges(d, (0, 0), (1, 0), (1, 1))
    upper = edges(d, (0, 0), (0, 1), (1, 1))
    # sides {row 0, column 0} and {row 1, column 1}, crossed by (0, 1) and (1, 0)
    assert _move_masks(d, upper.mask, lower.mask) == (0b01, 0b10, 0b01, 0b10, (0, 1), (1, 0))
    far = edges(d, (0, 1), (1, 0), (1, 1))  # the shared facet misses column 0
    assert _move_masks(d, upper.mask, far.mask) is None


def test_precedence_square(square):
    dg = build_precedence(square, toward_row(1))
    lower = edges(square.dims, (0, 0), (1, 0), (1, 1))
    upper = edges(square.dims, (0, 0), (0, 1), (1, 1))
    assert dg.strictly_below(upper, lower)
    assert dg.is_acyclic()
    none = build_precedence(square, lambda I1, I2: False)
    assert not none.arcs and not none.equivalent(lower, upper)


def test_filter_runs_once_per_split(corpus43):
    """build_precedence hands the filter each distinct (I1, I2) split of
    rows once, and its verdicts make the arcs of both directions."""
    T = corpus43.triangulations[7]
    seen = []

    def recording(I1, I2):
        seen.append((I1, I2))
        return True

    dg = build_precedence(T, recording)
    assert seen and len(seen) == len(set(seen))
    assert all(I1 & I2 == 0 and I1 | I2 == 0b1111 and I1 and I2 for I1, I2 in seen)
    assert {(I2, I1) for I1, I2 in seen} == set(seen)
    adjacent = sum(
        reference.adjacency_move(a, b) is not None
        for k, a in enumerate(T.maximal)
        for b in T.maximal[k + 1 :]
    )
    assert len(dg.arcs) == 2 * adjacent > 0


def test_precedence_toward_row_acyclic(corpus43, corpus42):
    rng = random.Random(10)
    sample = rng.sample(corpus43.triangulations, 12) + list(corpus42.triangulations[:6])
    for T in sample:
        for i in range(4):
            assert build_precedence(T, toward_row(i)).is_acyclic()


def test_free_classes_match_equivalence(corpus43):
    # equivalence classes of the free order coincide with the shared-face
    # criterion, for every row pair
    rng = random.Random(14)
    for T in rng.sample(corpus43.triangulations, 10):
        for i1 in range(4):
            for i2 in range(4):
                if i1 == i2:
                    continue
                dg = build_precedence(T, toward_row_free(i1, i2))
                for a in T.maximal:
                    for b in T.maximal:
                        assert dg.equivalent(a, b) == free_equivalent(a, b, i1)


def test_monotone_neighborhoods_along_arcs(corpus43):
    from prodtri.core import col_neighbors, row_neighbors

    rng = random.Random(18)
    for T in rng.sample(corpus43.triangulations, 10):
        nodes = T.maximal
        for a in nodes:
            for b in nodes:
                if (a.mask & b.mask).bit_count() != len(a) - 1:
                    continue
                move = _move_masks(T.dims, a.mask, b.mask)
                if move is None:
                    continue
                for i in _bits(move[1]):
                    assert row_neighbors(a, i) <= row_neighbors(b, i)
                    for j in row_neighbors(a, i):
                        assert col_neighbors(a, j) >= col_neighbors(b, j)


def test_unique_minimal_square(square):
    d = square.dims
    L = star(square, edges(d, (0, 0), (1, 1)))
    assert unique_minimal(L, 0) == edges(d, (0, 0), (1, 1), (1, 0))
    assert unique_minimal(L, 1) == edges(d, (0, 0), (1, 1), (0, 1))
    # star of the corner in the opposite square triangulation: one simplex
    single = LocalTriangulation(
        d, edges(d, (0, 0)), [edges(d, (0, 0), (0, 1), (1, 0))]
    )
    assert unique_minimal(single, 0) == single.maximal[0]
    with pytest.raises(ValueError):
        unique_minimal(L, 5)


def test_unique_minimal_is_digraph_source(corpus43):
    rng = random.Random(21)
    for T in rng.sample(corpus43.triangulations, 8):
        t0 = rng.choice(T.maximal)
        i0, j0 = sorted(t0.edges)[0]
        L = star(T, Simplex.from_edges(T.dims, [(i0, j0)]))
        tau = unique_minimal(L, i0)
        dg = build_precedence(L, toward_row(i0))
        for other in L.maximal:
            assert not dg.strictly_below(other, tau)
        sources = [
            t
            for t in L.maximal
            if not any(dg.strictly_below(o, t) for o in L.maximal)
        ]
        assert sources == [tau]


def test_unique_minimal_on_flip_star():
    T = staircase(3)
    d = T.dims
    xminus = Simplex.from_edges(d, [(3, 0), (2, 1)])  # consecutive lower pair
    L = star(T, xminus)
    tau = unique_minimal(L, 3)
    assert xminus.issubset(tau)


def test_no_minimal_raises():
    d = Dims(2, 2)
    # not actually a local triangulation at the corner (covering fails):
    # the criterion detects this because no member is all-alternating
    L = LocalTriangulation(
        d, edges(d, (0, 0)), [edges(d, (0, 0), (0, 1), (1, 1))]
    )
    with pytest.raises(NoMinimal):
        unique_minimal(L, 0)


def test_free_equivalent_reflexive(corpus42):
    for T in corpus42.triangulations[:4]:
        for t in T.maximal:
            for i1 in range(4):
                assert free_equivalent(t, t, i1)


def test_select_extremal(square):
    d = square.dims
    dg = build_precedence(square, toward_row(1))
    lower = edges(d, (0, 0), (1, 0), (1, 1))
    upper = edges(d, (0, 0), (0, 1), (1, 1))
    assert select_extremal([lower], dg) == lower
    assert select_extremal([lower, upper], dg) == lower
    arcless = build_precedence(square, lambda I1, I2: False)
    assert select_extremal([lower, upper], arcless) == min(lower, upper)
    with pytest.raises(EmptyInput):
        select_extremal([], dg)
