"""Cross-check of the row-slice predicates that ``connect`` evaluates per tree
and per flip against the column-by-column and component-based versions they
replaced, kept here as references."""

import json
import os
import random
from itertools import combinations, permutations

import pytest

from prodtri.core import (
    Dims,
    Simplex,
    col_neighbors,
    components,
    row_neighbors,
)
from prodtri.flips import all_circuits, apply_flip, supports_flip
from prodtri.oracle import spanning_trees
from prodtri.orders import (
    AdjacencyMove,
    ColumnQuasiorder,
    MalformedLocal,
    _two_row_images,
    classify_adjacency,
    free_equivalent,
    restriction_order,
)
from prodtri.phases import (
    GoodnessContext,
    _shape_cols,
    compute_TI,
    compute_TII,
    connect,
    goodness,
)
from prodtri.triangulation import LocalTriangulation, Triangulation, proper, star

WALK_PATH = os.path.join(os.path.dirname(__file__), "data", "walk_4x8.json")


# ------------------------------------------------------------- references


def _ref_contains(tri, sigma: Simplex) -> bool:
    if isinstance(tri, LocalTriangulation):
        return any(sigma.issubset(t) for t in tri.maximal)
    if sigma.mask == 0:
        return True
    cands = tri.index.get(sigma.edges[0])
    return bool(cands) and any(sigma.issubset(tri.maximal[p]) for p in cands)


def _ref_compute_TI(tri):
    out = []
    for t in tri.maximal:
        for j in range(tri.dims.n):
            nb = col_neighbors(t, j)
            if 0 in nb and 1 in nb and 3 not in nb:
                out.append(t)
                break
    return tuple(out)


def _ref_compute_TII(tri):
    out = []
    for t in tri.maximal:
        for j in range(tri.dims.n):
            nb = col_neighbors(t, j)
            if 0 in nb and 1 in nb and not (2 in nb and 3 in nb):
                out.append(t)
                break
    return tuple(out)


def _ref_goodness(tri, ctx: GoodnessContext) -> bool:
    dims = tri.dims
    X = ctx.circuit
    xminus = Simplex(dims, X.minus_mask)
    if ctx.kind in ("tauI", "tauII"):
        if not _ref_contains(tri, xminus):
            return True
        members = [t for t in tri.maximal if xminus.issubset(t)]
        c1, c2 = ctx.cols
        for t in members:
            for j in range(dims.n):
                if j in (c1, c2):
                    continue
                nb = col_neighbors(t, j)
                if 0 in nb and 1 in nb:
                    return False
        if ctx.kind == "tauI":
            defect = set(_ref_compute_TI(tri))
            for t in members:
                if t in defect and not ctx.sigma.issubset(t):
                    return False
        else:
            defect = set(_ref_compute_TII(tri))
            for t in members:
                if t in defect and t != ctx.anchor:
                    return False
        return True
    Y = ctx.second
    yminus = Simplex(dims, Y.minus_mask)
    if not _ref_contains(tri, yminus):
        return True
    c1, _ = ctx.cols
    for t in tri.maximal:
        if not yminus.issubset(t):
            continue
        in_x1 = (
            xminus.issubset(t)
            and (1, c1) in t
            and (0, c1) not in t
            and t.mask & X.plus_mask == 0
        )
        if in_x1 and not ctx.sigma.issubset(t):
            return False
    return True


def _ref_shape_cols(tau: Simplex):
    out = {}
    for j in range(tau.dims.n):
        nb = col_neighbors(tau, j)
        if len(nb) > 1:
            out[j] = nb
    return out


def _ref_image(tri, i1: int, i2: int) -> list[Simplex]:
    """Maximal images of the trees on rows (i1, i2), built edge by edge."""
    sub = Dims(2, tri.dims.n)
    keep = {i1: 0, i2: 1}
    cuts = {
        Simplex.from_edges(sub, [(keep[i], j) for i, j in t if i in keep]).mask
        for t in tri.maximal
    }
    top: list[int] = []
    for x in sorted(cuts, key=lambda x: -bin(x).count("1")):
        if not any(x & ~y == 0 for y in top):
            top.append(x)
    return sorted(Simplex(sub, x) for x in top)


def _ref_label(tau: Simplex) -> int:
    full = [j for j in range(tau.dims.n) if len(col_neighbors(tau, j)) == 2]
    if len(full) != 1:
        raise MalformedLocal(f"{tau!r} is not a spanning tree of a segment product")
    return full[0]


def _ref_restriction_order(tri, i1: int, i2: int) -> ColumnQuasiorder:
    taus = sorted(_ref_image(tri, i1, i2), key=lambda t: -len(row_neighbors(t, 0)))
    labels = [_ref_label(t) for t in taus]
    for r in range(len(taus) - 1):
        expect = taus[r].without_edge(0, labels[r]).with_edge(1, labels[r + 1])
        if expect != taus[r + 1]:
            raise MalformedLocal("maximal simplices do not chain into a segment")
    for a in range(len(taus)):
        for b in range(a + 2, len(taus)):
            if len(taus[a].intersection(taus[b])) == len(taus[a]) - 1:
                raise MalformedLocal("non-consecutive simplices are adjacent")
    low = row_neighbors(taus[0], 1) - {labels[0]}
    high = row_neighbors(taus[-1], 0) - {labels[-1]}
    strata = []
    if low:
        strata.append(frozenset(low))
    strata.extend(frozenset((j,)) for j in labels)
    if high:
        strata.append(frozenset(high))
    if sorted(j for s in strata for j in s) != list(range(tri.dims.n)):
        raise MalformedLocal("column classes do not partition the columns")
    return ColumnQuasiorder(tuple(strata))


def _ref_classify_adjacency(tau: Simplex, tau2: Simplex):
    m, n = tau.dims
    sigma = tau.intersection(tau2)
    if tau == tau2 or len(sigma) != m + n - 2:
        return None
    if not proper(tau, tau2):
        return None
    with_edges = [
        c for c in components(sigma) if any(v < m for v in c) and any(v >= m for v in c)
    ]
    if len(with_edges) != 2:
        return None
    ((li, lj),) = tau.difference(sigma).edges
    ((ei, ej),) = tau2.difference(sigma).edges
    side1 = next(c for c in with_edges if li in c)
    side2 = next(c for c in with_edges if c is not side1)
    if m + lj not in side2 or ei not in side2 or m + ej not in side1:
        return None
    rows = lambda c: frozenset(v for v in c if v < m)
    cols = lambda c: frozenset(v - m for v in c if v >= m)
    return AdjacencyMove(rows(side1), rows(side2), cols(side1), cols(side2), (li, lj), (ei, ej))


def _ref_free_equivalent(tau: Simplex, tau2: Simplex, i1: int) -> bool:
    others = frozenset(range(tau.dims.m)) - {i1}
    return any(others <= comp for comp in components(tau.intersection(tau2)))


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
    assert compute_TI(tri) == _ref_compute_TI(tri)
    assert compute_TII(tri) == _ref_compute_TII(tri)
    for t in tri.maximal:
        assert _shape_cols(t) == _ref_shape_cols(t)
    for i1, i2 in row_pairs(range(tri.dims.m), 2):
        if isinstance(tri, LocalTriangulation) and any(i not in (i1, i2) for i, _ in tri.base):
            continue
        image = [Simplex(Dims(2, tri.dims.n), x) for x in _two_row_images(tri, i1, i2)]
        assert image == _ref_image(tri, i1, i2)
        assert _outcome(restriction_order, tri, i1, i2) == _outcome(
            _ref_restriction_order, tri, i1, i2
        ), (tri, i1, i2)


def _check_pair(tau: Simplex, tau2: Simplex) -> AdjacencyMove:
    move = classify_adjacency(tau, tau2)
    assert move == _ref_classify_adjacency(tau, tau2), (tau, tau2)
    for i1 in range(tau.dims.m):
        assert free_equivalent(tau, tau2, i1) == _ref_free_equivalent(tau, tau2, i1)
    return move


def _facet_pairs(trees):
    """Ordered pairs of trees that share a facet."""
    by_facet = {}
    for t in trees:
        for e in t:
            by_facet.setdefault(t.without_edge(*e).mask, []).append(t)
    for group in by_facet.values():
        for a, b in permutations(group, 2):
            yield a, b


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
        assert verdict == _ref_goodness(tri, ctx), (tri, ctx)
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
        for a, b in _facet_pairs(tri.maximal):
            if a.mask < b.mask:
                moves += _check_pair(a, b) is not None
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
        for a, b in _facet_pairs(tri.maximal):
            moves += _check_pair(a, b) is not None
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
            elif not proper(tau, other):
                kinds.add("improper")
            else:
                assert move is not None
                kinds.add("move")
    assert kinds == {"non-adjacent", "leaf facet", "improper", "move"}


def test_contains_matches_the_edge_index(walk_states, trees43):
    rng = random.Random("contains")
    for tri in walk_states[::4]:
        for _ in range(300):
            tau = rng.choice(tri.maximal)
            face = Simplex(tri.dims, tau.mask & rng.getrandbits(tri.dims.m * tri.dims.n))
            other = Simplex(tri.dims, rng.getrandbits(tri.dims.m * tri.dims.n))
            for sigma in (face, other, Simplex(tri.dims, 0)):
                assert tri.contains(sigma) == _ref_contains(tri, sigma)
    T = Triangulation(Dims(4, 3), trees43[:5])
    assert all(T.contains(t) == _ref_contains(T, t) for t in trees43)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_row_collections_valid_or_malformed(n):
    """restriction_order on arbitrary two-row edge sets: the segment walk
    must accept the same ones and reject the rest with the same message.
    (No set of at most four edge sets of 2x2 or 2x3 passes the chain test
    and then fails the non-consecutive facet test, so that message is not
    expected here.)"""
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
            assert got == _outcome(_ref_restriction_order, tri, i1, i2), (tri.maximal, i1, i2)
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
