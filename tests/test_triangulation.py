import random
from math import comb

import pytest

from prodtri.core import Dims, Simplex
from prodtri.phases import staircase
from prodtri.triangulation import (
    NotInComplex,
    Triangulation,
    proper,
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


def test_digest_is_stable(square):
    again = Triangulation(square.dims, list(reversed(square.maximal)))
    assert square.digest() == again.digest()
    assert square == again
