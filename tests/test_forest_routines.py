"""Cross-check of the row-slice forest routines of ``prodtri.core`` against
the depth-first references in ``reference.py``: the blocks of an edge mask
and the forest tests on every edge mask of 4x3 and 3x4 and on the trees of the 4x8 walk, tree paths
between every pair of vertices of each forest, and the verdict and message
of ``Circuit`` on every split of a 3x3 edge set and on seeded 4x4 splits."""

import json
import os
import random

import pytest

import reference
from prodtri.core import (
    Circuit,
    Dims,
    NotACycle,
    Simplex,
    _bits,
    _edge_blocks,
    is_forest,
    is_spanning_tree,
    tree_path,
)
from prodtri.flips import apply_flip, supports_flip
from prodtri.phases import connect
from prodtri.triangulation import Triangulation

WALK_PATH = os.path.join(os.path.dirname(__file__), "data", "walk_4x8.json")


def _walk_trees() -> list[Simplex]:
    """Every tree of every state connect passes through from the committed
    4x8 walk."""
    with open(WALK_PATH) as fh:
        doc = json.load(fh)
    dims = Dims(doc["m"], doc["n"])
    tri = Triangulation(dims, [Simplex(dims, int(x, 16)) for x in doc["trees"]])
    trees = set(tri.maximal)
    for step in connect(tri, check=False).steps:
        tri = apply_flip(tri, supports_flip(tri, step.circuit))
        trees.update(tri.maximal)
    return sorted(trees)


def _check_forest_routines(simplices) -> int:
    """Compare every routine on the simplices; returns how many are forests."""
    forests = 0
    for s in simplices:
        m = s.dims.m
        rows_of, cols_of = _edge_blocks(s.dims, s.mask)
        blocks = [_bits(r) | {m + j for j in _bits(c)} for r, c in zip(rows_of, cols_of)]
        assert sorted(blocks, key=min) == [c for c in reference.components(s) if len(c) > 1], s
        assert is_forest(s) == reference.is_forest(s), s
        assert is_spanning_tree(s) == reference.is_spanning_tree(s), s
        if not is_forest(s):
            continue
        forests += 1
        vertices = range(s.dims.m + s.dims.n)
        for u in vertices:
            paths = reference.tree_paths(s, u)
            for v in vertices:
                assert tree_path(s, u, v) == paths.get(v), (s, u, v)
    return forests


@pytest.mark.parametrize("m,n", [(4, 3), (3, 4)])
def test_every_edge_mask(m, n):
    dims = Dims(m, n)
    simplices = [Simplex(dims, mask) for mask in range(1 << (m * n))]
    assert 0 < _check_forest_routines(simplices) < len(simplices)


def test_walk_4x8_trees():
    trees = _walk_trees()
    assert _check_forest_routines(trees) == len(trees) > 100


def _verdict(fn, *args):
    try:
        fn(*args)
    except NotACycle as exc:
        return str(exc)
    return "ok"


def test_circuit_verdicts_on_every_3x3_split():
    """Every (minus, plus) pair of disjoint 3x3 edge masks: 3**9 splits."""
    dims = Dims(3, 3)
    cells = 1 << 9
    verdicts = set()
    for minus in range(cells):
        rest = (cells - 1) & ~minus
        plus = rest
        while True:
            want = _verdict(reference.validate_circuit, dims, minus, plus)
            assert _verdict(Circuit, dims, minus, plus) == want, (minus, plus)
            verdicts.add(want)
            if not plus:
                break
            plus = (plus - 1) & rest
    assert verdicts == {
        "ok",
        "edges do not form a single simple cycle",
        "cycle does not alternate between minus and plus",
    }


def test_circuit_verdicts_on_seeded_4x4_splits():
    """Random pairs, overlapping or not, and random splits of the union of
    one to three random cycles."""
    dims = Dims(4, 4)
    rng = random.Random("circuits:4x4")
    verdicts = set()
    for _ in range(4000):
        if rng.random() < 0.3:
            minus = rng.getrandbits(16)
            plus = rng.getrandbits(16)
        else:
            union = 0
            for _ in range(rng.randint(1, 3)):
                k = rng.randint(2, 4)
                rows, cols = rng.sample(range(4), k), rng.sample(range(4), k)
                for r in range(k):
                    union |= 1 << (rows[r] * 4 + cols[r])
                    union |= 1 << (rows[(r + 1) % k] * 4 + cols[r])
            minus = union & rng.getrandbits(16)
            plus = union & ~minus
        want = _verdict(reference.validate_circuit, dims, minus, plus)
        assert _verdict(Circuit, dims, minus, plus) == want, (minus, plus)
        verdicts.add(want)
    assert len(verdicts) == 4
