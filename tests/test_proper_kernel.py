"""Cross-check of the circuit search that decides proper intersection
against the depth-first directed-cycle search of ``reference.py``.

Each check runs the search three ways: against a single member, as
``proper`` calls it; from one mask against a whole collection, whose
bitset must equal the reference pair by pair; and from a shuffled batch of
masks, as ``_check`` and the oracle call it, where every returned row must
equal the reference of its own mask."""

import random
from itertools import product

import pytest

from prodtri.core import Dims, Simplex
from prodtri.oracle import spanning_trees
from prodtri.triangulation import _edge_members, _improper_partners, proper
from reference import components, split_circuit


def _agree(dims: Dims, t: int, collection, rng: random.Random) -> list[bool]:
    """The search from t agrees with the reference against each member of
    the collection alone, against the whole collection, and against every
    other position of it, searched alone and inside a batch of 2 to 12
    masks; returns the reference verdicts."""
    want = [split_circuit(dims, t, s) for s in collection]
    for s, split in zip(collection, want):
        got = _improper_partners(dims, [t], _edge_members(dims, [s]), 1)
        assert got == [split], (dims, Simplex(dims, t), Simplex(dims, s))
    members = _edge_members(dims, collection)
    everyone = (1 << len(collection)) - 1
    odd = everyone // 3 << 1  # positions 1, 3, 5, ...
    rows = {t: sum(split << p for p, split in enumerate(want))}
    for cand in (everyone, odd):
        assert _improper_partners(dims, [t], members, cand) == [rows[t] & cand], (
            dims, Simplex(dims, t))
    # the batch repeats t or holds a mask with a cycle, beside random picks
    full = (1 << dims.m * dims.n) - 1
    grown = t | 1 << rng.randrange(dims.m * dims.n)
    batch = [t, rng.choice((t, full, grown))]
    batch += [rng.choice(collection) for _ in range(rng.randint(0, 10))]
    rng.shuffle(batch)
    for u in batch:
        if u not in rows:
            rows[u] = sum(split_circuit(dims, u, s) << p for p, s in enumerate(collection))
    for cand in (everyone, odd):
        got = _improper_partners(dims, batch, members, cand)
        assert got == [rows[u] & cand for u in batch], (dims, [Simplex(dims, u) for u in batch])
    return want


def test_an_empty_batch_finds_nothing():
    dims = Dims(4, 3)
    masks = [t.mask for t in spanning_trees(dims)[:5]]
    assert _improper_partners(dims, [], _edge_members(dims, masks), 31) == []
    assert _improper_partners(dims, masks, _edge_members(dims, masks), 0) == [0] * 5


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3)])
def test_every_mask_pair_small(m, n):
    """All ordered pairs of edge sets, cycles and the empty set included."""
    dims = Dims(m, n)
    masks = range(1 << (m * n))
    rng = random.Random(f"batch:{m}x{n}")
    for t in masks:
        _agree(dims, t, masks, rng)


def test_every_spanning_tree_pair_3x3():
    dims = Dims(3, 3)
    masks = [t.mask for t in spanning_trees(dims)]
    assert len(masks) == 81
    rng = random.Random(1)
    for t in masks:
        _agree(dims, t, masks, rng)


def test_random_masks_3x3_with_cycles():
    dims = Dims(3, 3)
    rng = random.Random(7)
    collection = [rng.getrandbits(9) for _ in range(50)]
    for _ in range(60):
        _agree(dims, rng.getrandbits(9), collection, rng)


@pytest.mark.parametrize("m,n,count", [(4, 3, 4000), (4, 8, 1500)])
def test_seeded_tree_pairs(m, n, count):
    """About count random tree pairs, 40 per tree, and half as many near
    pairs (one edge exchanged), which carry most of the improper cases."""
    dims = Dims(m, n)
    rng = random.Random(f"kernel:{m}x{n}")
    trees = [t.mask for t in spanning_trees(dims)] if m * n <= 12 else None
    draw = (lambda: rng.choice(trees)) if trees is not None else (lambda: _random_tree(rng, dims))
    verdicts = []
    for _ in range(count // 40):
        t = draw()
        collection = [draw() for _ in range(40)]
        collection += [_exchange(rng, dims, t) for _ in range(20)]
        verdicts += _agree(dims, t, collection, rng)
    assert 0 < sum(verdicts) < len(verdicts)


def test_split_circuits_are_symmetric_and_proper_agrees():
    """Reversing a circuit swaps its sides, so the order of the masks does
    not matter, and ``proper`` is the search's negation."""
    dims = Dims(4, 3)
    rng = random.Random(3)
    trees = spanning_trees(dims)
    for _ in range(25):
        s1 = rng.choice(trees)
        others = [rng.choice(trees) for _ in range(20)]
        split = _agree(dims, s1.mask, [s2.mask for s2 in others], rng)
        for s2, fwd in zip(others, split):
            assert _agree(dims, s2.mask, [s1.mask], rng) == [fwd]
            assert proper(s1, s2) == proper(s2, s1) == (not fwd)


def _random_tree(rng: random.Random, dims: Dims) -> int:
    """A spanning tree of K(m, n) from a random walk (Aldous-Broder)."""
    m, n = dims
    v = rng.randrange(m + n)
    seen = {v}
    mask = 0
    while len(seen) < m + n:
        w = rng.randrange(m, m + n) if v < m else rng.randrange(m)
        if w not in seen:
            i, j = (v, w - m) if v < m else (w, v - m)
            mask |= 1 << (i * n + j)
            seen.add(w)
        v = w
    return mask


def _exchange(rng: random.Random, dims: Dims, mask: int) -> int:
    """The tree with one random edge swapped for one reconnecting it."""
    m, n = dims
    edges = list(Simplex(dims, mask))
    i, j = rng.choice(edges)
    rest = Simplex(dims, mask & ~(1 << (i * n + j)))
    side = next(c for c in components(rest) if i in c)
    options = [
        (r, c)
        for r in range(m)
        for c in range(n)
        if (r in side) != (m + c in side) and (r, c) != (i, j)
    ]
    if not options:
        return mask
    r, c = rng.choice(options)
    return rest.mask | 1 << (r * n + c)
