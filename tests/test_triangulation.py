import random
from math import comb

import pytest

from prodtri.core import Dims, Simplex
from prodtri.phases import staircase
from prodtri.triangulation import (
    LocalTriangulation,
    NotInComplex,
    Triangulation,
    contract,
    contraction_map,
    link_maximal,
    proper,
    restrict,
    star,
    validate,
)


def edges(d, *pairs):
    return Simplex.from_edges(d, pairs)


def test_contains_faces_and_nonfaces(square):
    d = square.dims
    assert square.contains(edges(d, (0, 0)))
    assert square.contains(Simplex(d))
    assert not square.contains(edges(d, (1, 0), (0, 1)))


def test_link_of_diagonal(square):
    d = square.dims
    diag = edges(d, (0, 0), (1, 1))
    assert link_maximal(square, diag) == {edges(d, (1, 0)), edges(d, (0, 1))}
    top = square.maximal[0]
    assert link_maximal(square, top) == {Simplex(d)}
    with pytest.raises(NotInComplex):
        link_maximal(square, edges(d, (1, 0), (0, 1)))


def test_proper_pairs():
    d = Dims(2, 2)
    t1 = edges(d, (0, 0), (1, 0), (1, 1))
    t2 = edges(d, (0, 0), (0, 1), (1, 1))
    assert proper(t1, t1)
    assert proper(t1, t2)
    assert not proper(edges(d, (0, 0), (1, 1)), edges(d, (1, 0), (0, 1)))


def test_proper_is_symmetric(trees43):
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.sample(trees43, 2)
        assert proper(a, b) == proper(b, a)


def test_validate_flags_improper_and_count(square):
    d = Dims(2, 2)
    diags = Triangulation(
        d, [edges(d, (0, 0), (1, 1)), edges(d, (1, 0), (0, 1))]
    )
    kinds = {k for k, _ in validate(diags).violations}
    assert "improper_pair" in kinds
    one = Triangulation(d, [square.maximal[0]])
    kinds = {k for k, _ in validate(one).violations}
    assert ("cardinality", (1, 2)) in validate(one).violations
    assert validate(square).ok


def test_validate_staircase_43():
    T = staircase(3)
    assert validate(T).ok
    assert len(T.maximal) == comb(5, 3)


def test_star(square):
    d = square.dims
    assert star(square, Simplex(d)).maximal == square.maximal
    diag = edges(d, (0, 0), (1, 1))
    assert len(star(square, diag)) == 2
    assert len(star(square, edges(d, (1, 0)))) == 1
    with pytest.raises(NotInComplex):
        star(square, edges(d, (1, 0), (0, 1)))


def test_restrict_identity_and_face():
    T = staircase(3)
    same = restrict(T, range(4), range(3))
    assert same == T
    seg = restrict(T, [0, 1], range(3))
    assert seg.dims == Dims(2, 3)
    assert validate(seg).ok
    single = restrict(T, [2], range(3))
    assert len(single.maximal) == 1
    assert single.maximal[0] == edges(Dims(1, 3), (0, 0), (0, 1), (0, 2))


def test_restrict_validates_on_faces(corpus33):
    for T in corpus33.triangulations[:20]:
        for rows in ([0, 1], [0, 2], [1, 2]):
            assert validate(restrict(T, rows, range(3))).ok


def _stars43(corpus43, seed):
    """(T, xi, star(T, xi)) for a seeded sample of 4x3 members, xi two
    edges of one of T's trees."""
    rng = random.Random(seed)
    for T in rng.sample(corpus43.triangulations, 12):
        xi = Simplex.from_edges(T.dims, rng.sample(rng.choice(T.maximal).edges, 2))
        yield T, xi, star(T, xi)


def test_restrict_local_is_star_of_restriction(corpus43):
    # a tree's image holds the image of a base inside the face exactly when
    # the tree holds the base, so restricting the star gives the star of the
    # restriction
    for T, xi, local in _stars43(corpus43, 11):
        rows = sorted({i for i, _ in xi} | {3})
        cols = sorted({j for _, j in xi})
        sub = restrict(local, rows, cols)
        assert isinstance(sub, LocalTriangulation)
        whole = restrict(T, rows, cols)
        image = Simplex.from_edges(
            whole.dims, [(rows.index(i), cols.index(j)) for i, j in xi]
        )
        assert sub.base == image
        assert sub == star(whole, image)
        with pytest.raises(ValueError, match="local base does not lie inside the face"):
            restrict(local, [i for i in range(4) if i != rows[0]], cols)


def test_contract_local_keeps_its_base(corpus43):
    # contracting a star adds the image of its base to the anchors; at the
    # star's own base that image is the anchors, as from the whole
    for T, xi, local in _stars43(corpus43, 12):
        assert contract(local, xi) == contract(T, xi)
        t = local.maximal[-1]
        eta = Simplex.from_edges(T.dims, [e for e in t if e not in xi][:1])
        img, bij = contract(local, eta)
        cmap = contraction_map(eta)
        assert img.base == Simplex.from_edges(cmap.image_dims, cmap.anchors).union(
            cmap.apply(xi)
        )
        assert sorted(bij) == sorted(star(local, eta).maximal)
        assert set(img.maximal) == {cmap.apply(u) for u in bij}


def test_contraction_map_partitions():
    d = Dims(4, 3)
    xi = edges(d, (0, 0), (1, 0))
    cmap = contraction_map(xi)
    assert set(cmap.row_blocks) == {
        frozenset({0, 1}),
        frozenset({2}),
        frozenset({3}),
    }
    assert set(cmap.col_blocks) == {frozenset({0}), frozenset({1}), frozenset({2})}
    assert len(cmap.anchors) == 1


def test_contract_identity(square):
    img, bij = contract(square, Simplex(square.dims))
    assert img.dims == square.dims
    assert set(bij) == set(square.maximal)
    assert all(bij[t] == t for t in square.maximal)


def test_contract_square_diagonal(square):
    d = square.dims
    diag = edges(d, (0, 0), (1, 1))
    img, bij = contract(square, diag)
    assert img.dims == Dims(2, 2)
    assert img.base == edges(Dims(2, 2), (0, 0), (1, 1))
    assert len(img.maximal) == 2


def test_contract_staircase_at_column_pair():
    T = staircase(3)
    xi = next(
        edges(T.dims, (0, 0), (1, 0))
        for t in T.maximal
        if (0, 0) in t and (1, 0) in t
    )
    assert T.contains(xi)
    img, bij = contract(T, xi)
    assert img.dims.m == 3  # rows {0,1} merged
    assert len(bij) == len(star(T, xi).maximal)


def test_contract_roundtrip_preserves_adjacency(corpus43):
    rng = random.Random(5)
    for T in rng.sample(corpus43.triangulations, 10):
        t0 = rng.choice(T.maximal)
        sub = sorted(t0.edges)[:2]
        xi = Simplex.from_edges(T.dims, sub)
        st_local = star(T, xi)
        img, bij = contract(T, xi)
        assert sorted(bij) == sorted(st_local.maximal)
        assert len(set(bij.values())) == len(bij)
        for a in st_local.maximal:
            for b in st_local.maximal:
                if a < b:
                    adjacent = len(a.intersection(b)) == len(a) - 1
                    ia, ib = bij[a], bij[b]
                    img_adjacent = (
                        ia != ib and len(ia.intersection(ib)) == len(ia) - 1
                    )
                    assert adjacent == img_adjacent


def test_contract_image_is_proper_local_collection(corpus42):
    # contraction images of stars keep the checkable local-validity pieces:
    # every member contains the anchor base and all pairs intersect properly
    rng = random.Random(9)
    for T in rng.sample(corpus42.triangulations, 6):
        t0 = rng.choice(T.maximal)
        i, j = sorted(t0.edges)[0]
        xi = Simplex.from_edges(T.dims, [(i, j)])
        img, bij = contract(T, xi)
        assert len(set(bij.values())) == len(bij)
        for a in img.maximal:
            assert img.base.issubset(a)
            for b in img.maximal:
                assert proper(a, b)


def test_digest_is_stable(square):
    again = Triangulation(square.dims, list(reversed(square.maximal)))
    assert square.digest() == again.digest()
    assert square == again
