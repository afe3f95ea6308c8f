"""Cross-check of the row-slice predicates that ``connect`` evaluates per tree
and per flip against the column-by-column and component-based versions they
replaced, kept as references in ``reference.py``."""

import json
import os
import random
from itertools import combinations, permutations

import pytest

from prodtri.core import Dims, Simplex, _shape_cols
from prodtri.flips import all_circuits, apply_flip, supports_flip
from prodtri.oracle import spanning_trees
from prodtri.orders import (
    AdjacencyMove,
    _two_row_images,
    classify_adjacency,
    free_equivalent,
    restriction_order,
)
from prodtri.phases import (
    GoodnessContext,
    compute_TI,
    compute_TII,
    connect,
    goodness,
)
from prodtri.triangulation import LocalTriangulation, Triangulation, star
import reference
from reference import components, facet_pairs, split_circuit

WALK_PATH = os.path.join(os.path.dirname(__file__), "data", "walk_4x8.json")


# ------------------------------------------------------------ comparisons


def _outcome(fn, *args):
    """The value, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _check_state(tri, row_pairs=permutations) -> None:
    """Defect sets, shapes and the two-row orders of one collection, on
    every ordered pair of rows or on the pairs ``row_pairs`` gives."""
    assert compute_TI(tri) == reference.compute_TI(tri)
    assert compute_TII(tri) == reference.compute_TII(tri)
    for t in tri.maximal:
        assert _shape_cols(t) == reference.shape_cols(t)
    for i1, i2 in row_pairs(range(tri.dims.m), 2):
        if isinstance(tri, LocalTriangulation) and any(i not in (i1, i2) for i, _ in tri.base):
            continue
        image = [Simplex(Dims(2, tri.dims.n), x) for x in _two_row_images(tri, i1, i2)]
        assert image == reference.two_row_image(tri, i1, i2)
        assert _outcome(restriction_order, tri, i1, i2) == _outcome(
            reference.restriction_order, tri, i1, i2
        ), (tri, i1, i2)


def _check_pair(tau: Simplex, tau2: Simplex) -> AdjacencyMove:
    move = classify_adjacency(tau, tau2)
    assert move == reference.adjacency_move(tau, tau2), (tau, tau2)
    for i1 in range(tau.dims.m):
        assert free_equivalent(tau, tau2, i1) == reference.free_equivalent(tau, tau2, i1)
    return move


def _random_contexts(rng: random.Random, tri, count: int):
    """Goodness contexts on random circuits, anchors and faces of tri."""
    circuits = all_circuits(tri.dims)
    trees = tri.maximal
    n = tri.dims.n
    for _ in range(count):
        kind = rng.choice(("tauI", "tauII", "tau0"))
        X = rng.choice(circuits)
        hosts = [t for t in trees if not X.minus_mask & ~t.mask]
        anchor = rng.choice(hosts or trees)
        sigma = Simplex(tri.dims, anchor.mask & rng.getrandbits(tri.dims.m * n))
        cols = tuple(rng.sample(range(n), 2))
        second = rng.choice(circuits) if kind == "tau0" else None
        yield GoodnessContext(kind, anchor, sigma, X, second=second, cols=cols)


def _check_goodness(rng: random.Random, tri, count: int) -> set:
    verdicts = set()
    for ctx in _random_contexts(rng, tri, count):
        verdict = goodness(tri, ctx)
        assert verdict == reference.goodness(tri, ctx), (tri, ctx)
        verdicts.add((ctx.kind, verdict))
    return verdicts


# ------------------------------------------------------------------ inputs


@pytest.fixture(scope="module")
def walk_states():
    """Every state connect passes through from the committed 4x8 walk."""
    with open(WALK_PATH) as fh:
        doc = json.load(fh)
    dims = Dims(doc["m"], doc["n"])
    tri = Triangulation(dims, [Simplex(dims, int(x, 16)) for x in doc["trees"]])
    states = [tri]
    for step in connect(tri, check=False).steps:
        tri = apply_flip(tri, supports_flip(tri, step.circuit))
        states.append(tri)
    return states


@pytest.mark.slow
def test_every_4x3_member(corpus43):
    """Each row pair once (the ordered pairs run on the walk states below),
    and each pair of trees that share a facet."""
    assert len(corpus43) == 4488
    moves = 0
    for tri in corpus43.triangulations:
        _check_state(tri, combinations)
        for a, b in facet_pairs(tri):
            moves += _check_pair(Simplex(tri.dims, a), Simplex(tri.dims, b)) is not None
    assert moves > 0


def test_goodness_on_4x3_members(corpus43):
    rng = random.Random("goodness:4x3")
    verdicts = set()
    for tri in rng.sample(corpus43.triangulations, 600):
        verdicts |= _check_goodness(rng, tri, 6)
    assert verdicts == {(k, v) for k in ("tauI", "tauII", "tau0") for v in (True, False)}


def test_star_local_triangulations(corpus43, walk_states):
    rng = random.Random("stars")
    locals_ = []
    for tri in rng.sample(corpus43.triangulations, 300) + walk_states[::6]:
        tau = rng.choice(tri.maximal)
        edges = list(tau)
        for k in (1, 2, 3):
            xi = Simplex(tri.dims, 0)
            for e in rng.sample(edges, k):
                xi = xi.with_edge(*e)
            locals_.append(star(tri, xi))
    for loc in locals_:
        _check_state(loc)
        _check_goodness(rng, loc, 3)
        for a, b in combinations(loc.maximal, 2):
            _check_pair(a, b)


def test_every_state_of_the_committed_walk(walk_states):
    rng = random.Random("walk")
    moves = 0
    verdicts = set()
    for tri in walk_states:
        _check_state(tri)
        for a, b in facet_pairs(tri):
            for x, y in ((a, b), (b, a)):
                moves += _check_pair(Simplex(tri.dims, x), Simplex(tri.dims, y)) is not None
        for _ in range(100):
            _check_pair(*rng.sample(tri.maximal, 2))
        verdicts |= _check_goodness(rng, tri, 40)
    assert moves > 0
    assert {v for _, v in verdicts} == {True, False}


def _random_tree(rng: random.Random, dims: Dims) -> Simplex:
    """A spanning tree of K(m, n) from a random walk (Aldous-Broder)."""
    m, n = dims
    v = rng.randrange(m + n)
    seen = {v}
    tree = Simplex(dims, 0)
    while len(seen) < m + n:
        w = rng.randrange(m, m + n) if v < m else rng.randrange(m)
        if w not in seen:
            tree = tree.with_edge(*((v, w - m) if v < m else (w, v - m)))
            seen.add(w)
        v = w
    return tree


def _exchange(rng: random.Random, tau: Simplex, leaf: bool) -> Simplex:
    """tau with one edge swapped for another reconnecting it; with leaf, the
    dropped edge is a leaf edge, so one side of the shared facet is a
    single vertex."""
    m, n = tau.dims
    edges = list(tau)
    if leaf:
        degree = {}
        for i, j in edges:
            degree[i] = degree.get(i, 0) + 1
            degree[m + j] = degree.get(m + j, 0) + 1
        edges = [(i, j) for i, j in edges if degree[i] == 1 or degree[m + j] == 1]
    i, j = rng.choice(edges)
    rest = tau.without_edge(i, j)
    side = next(c for c in components(rest) if i in c)
    options = [
        (r, c)
        for r in range(m)
        for c in range(n)
        if (r in side) != (m + c in side) and (r, c) != (i, j)
    ]
    return rest.with_edge(*rng.choice(options)) if options else tau


@pytest.mark.parametrize("m,n", [(4, 3), (4, 8), (3, 5)])
def test_random_tree_pairs(m, n):
    """Non-adjacent pairs, leaf facets (the exchange of a leaf edge, always
    improper), other improper pairs, and proper adjacent pairs, which always
    give a move."""
    dims = Dims(m, n)
    rng = random.Random(f"pairs:{m}x{n}")
    kinds = set()
    for _ in range(1500):
        tau = _random_tree(rng, dims)
        for other in (
            _random_tree(rng, dims),
            _exchange(rng, tau, leaf=False),
            _exchange(rng, tau, leaf=True),
        ):
            move = _check_pair(tau, other)
            sigma = tau.intersection(other)
            if len(sigma) != m + n - 2:
                kinds.add("non-adjacent")
            elif any(len(c) == 1 for c in components(sigma)):
                kinds.add("leaf facet")
            elif split_circuit(dims, tau.mask, other.mask):
                kinds.add("improper")
            else:
                assert move is not None
                kinds.add("move")
    assert kinds == {"non-adjacent", "leaf facet", "improper", "move"}


def _pair_outcome(tau: Simplex, tau2: Simplex):
    """``classify_adjacency`` against the reference on members of any
    size: the same move or None, or a ValueError from both."""
    try:
        want = reference.adjacency_move(tau, tau2)
    except ValueError:  # more or fewer than one edge outside the shared face
        with pytest.raises(ValueError, match="one edge outside the shared face"):
            classify_adjacency(tau, tau2)
        return "error"
    assert classify_adjacency(tau, tau2) == want, (tau, tau2)
    return want


def _edge_outside(rng: random.Random, dims: Dims, mask: int, inside=None):
    """A random edge not in mask, with both ends in the vertex set
    ``inside`` when one is given, or None when there is none."""
    m, n = dims
    options = [
        (i, j)
        for i in range(m)
        for j in range(n)
        if not mask >> (i * n + j) & 1 and (inside is None or {i, m + j} <= inside)
    ]
    return rng.choice(options) if options else None


@pytest.mark.parametrize("m,n", [(4, 3), (4, 8), (3, 5)])
def test_adjacency_of_cyclic_and_oversized_members(m, n):
    """Pairs other than two trees: tree-sized members whose shared face
    holds a cycle, and members whose leaving edge lies inside one side of
    the face (both always None), and members with an extra edge or a
    missing one, which give None when the pair is improper and ValueError
    otherwise."""
    dims = Dims(m, n)
    rng = random.Random(f"cyclic:{m}x{n}")
    seen = {"cyclic face": set(), "inner edge": set(), "extra edge": set()}
    for _ in range(300):
        # a shared face of m + n - 2 edges holding a cycle
        while True:
            sigma = Simplex(dims, 0)
            for i, j in rng.sample([(i, j) for i in range(m) for j in range(n)], m + n - 2):
                sigma = sigma.with_edge(i, j)
            if len(sigma) + len(components(sigma)) != m + n:
                break
        e = _edge_outside(rng, dims, sigma.mask)
        f = _edge_outside(rng, dims, sigma.with_edge(*e).mask)
        tau, tau2 = sigma.with_edge(*e), sigma.with_edge(*f)
        seen["cyclic face"] |= {_pair_outcome(tau, tau2), _pair_outcome(tau2, tau)}
        # a spanning two-block face, and a leaving edge inside one block
        tree = _random_tree(rng, dims)
        near = _exchange(rng, tree, leaf=False)
        face = tree.intersection(near)
        sides = [c for c in components(face) if len(c) > 1]
        if len(sides) == 2:
            inner = _edge_outside(rng, dims, face.mask, rng.choice(sides))
            if inner is not None:
                cyclic = face.with_edge(*inner)
                for other in (near, tree, face.with_edge(*_edge_outside(rng, dims, cyclic.mask))):
                    seen["inner edge"] |= {_pair_outcome(cyclic, other), _pair_outcome(other, cyclic)}
        # an extra edge on one member or both, or one member the face itself
        x = _edge_outside(rng, dims, tree.mask | near.mask)
        if x is None:
            continue
        grown = tree.with_edge(*x)
        y = _edge_outside(rng, dims, grown.mask | near.mask)
        pairs = [(grown, near), (face, near), (face, tree)]
        if y is not None:
            pairs.append((grown, near.with_edge(*y)))
        for a, b in pairs:
            seen["extra edge"] |= {_pair_outcome(a, b), _pair_outcome(b, a)}
    assert seen["cyclic face"] == {None}
    assert seen["inner edge"] == {None}
    assert seen["extra edge"] == {None, "error"}


def test_adjacency_of_members_with_other_dims_is_refused():
    """Two trees of 2x3 and 3x2 whose masks share three edge bits."""
    tau = Simplex.from_edges(Dims(2, 3), [(0, 0), (0, 1), (0, 2), (1, 0)])
    tau2 = Simplex.from_edges(Dims(3, 2), [(0, 0), (0, 1), (1, 0), (2, 0)])
    assert bin(tau.mask & tau2.mask).count("1") == 3
    with pytest.raises(ValueError, match="dimension mismatch"):
        classify_adjacency(tau, tau2)


def test_contains_matches_the_edge_index(walk_states, trees43):
    rng = random.Random("contains")
    for tri in walk_states[::4]:
        for _ in range(300):
            tau = rng.choice(tri.maximal)
            face = Simplex(tri.dims, tau.mask & rng.getrandbits(tri.dims.m * tri.dims.n))
            other = Simplex(tri.dims, rng.getrandbits(tri.dims.m * tri.dims.n))
            for sigma in (face, other, Simplex(tri.dims, 0)):
                assert tri.contains(sigma) == reference.contains(tri, sigma)
    T = Triangulation(Dims(4, 3), trees43[:5])
    assert all(T.contains(t) == reference.contains(T, t) for t in trees43)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_row_collections_valid_or_malformed(n):
    """restriction_order on arbitrary two-row edge sets: the segment walk
    must accept the same ones and reject the rest with the same message.
    (No set that passes the chain test fails the reference's
    non-consecutive facet test, so that message is not expected here.)"""
    dims = Dims(2, n)
    rng = random.Random(f"segments:{n}")
    trees = [t.mask for t in spanning_trees(dims)]
    edge_sets = range(1, 1 << (2 * n))
    kinds = set()
    for _ in range(3000):
        pool = trees if rng.random() < 0.7 else edge_sets
        masks = rng.sample(pool, rng.randint(1, min(len(pool), n + 1)))
        tri = Triangulation(dims, [Simplex(dims, x) for x in masks])
        for i1, i2 in ((0, 1), (1, 0)):
            got = _outcome(restriction_order, tri, i1, i2)
            assert got == _outcome(reference.restriction_order, tri, i1, i2), (tri.maximal, i1, i2)
            kinds.add(got[1].split("] ")[-1] if isinstance(got, tuple) else "an order")
    assert kinds == {
        "an order",
        "is not a spanning tree of a segment product",
        "maximal simplices do not chain into a segment",
        "column classes do not partition the columns",
    }


def test_restriction_order_rejects_rows_out_of_range(walk_states):
    tri = walk_states[0]
    for i1, i2 in ((0, 4), (-1, 2), (5, 1)):
        with pytest.raises(ValueError):
            restriction_order(tri, i1, i2)
