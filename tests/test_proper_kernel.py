"""Cross-check of the strongly-connected-component proper-intersection kernel
against the depth-first cycle search it replaced."""

import random
from itertools import product

import pytest

from prodtri.core import Dims, Simplex, components
from prodtri.oracle import spanning_trees
from prodtri.triangulation import _has_split_circuit, proper


def _reference_split_circuit(dims: Dims, mask1: int, mask2: int) -> bool:
    """Directed cycle through at least two rows, searched depth first from
    its lowest row (mask1 oriented row-to-column, mask2 column-to-row)."""
    m, n = dims
    union = Simplex(dims, mask1 | mask2)
    if len(union) + len(components(union)) == m + n:
        return False  # union is a forest: no cycle at all
    out = [0] * (m + n)
    for i, j in Simplex(dims, mask1):
        out[i] |= 1 << (m + j)
    for i, j in Simplex(dims, mask2):
        out[m + j] |= 1 << i
    row_mask_above = [((1 << m) - 1) & ~((1 << (s + 1)) - 1) for s in range(m)]

    def dfs(v: int, visited: int, depth: int, start: int) -> bool:
        targets = out[v]
        if depth >= 3 and targets >> start & 1:
            return True
        allowed = targets & ~visited
        if v >= m:  # leaving a column: only rows above the start row
            allowed &= row_mask_above[start] | (1 << start)
        allowed &= ~(1 << start)
        while allowed:
            low = allowed & -allowed
            w = low.bit_length() - 1
            if dfs(w, visited | low, depth + 1, start):
                return True
            allowed ^= low
        return False

    return any(out[s] and dfs(s, 1 << s, 0, s) for s in range(m))


def _agree(dims: Dims, pairs) -> None:
    for a, b in pairs:
        assert _has_split_circuit(dims, a, b) == _reference_split_circuit(dims, a, b), (
            dims,
            Simplex(dims, a),
            Simplex(dims, b),
        )


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3)])
def test_every_mask_pair_small(m, n):
    """All ordered pairs of edge sets, cycles and the empty set included."""
    dims = Dims(m, n)
    masks = range(1 << (m * n))
    _agree(dims, product(masks, masks))


def test_every_spanning_tree_pair_3x3():
    dims = Dims(3, 3)
    masks = [t.mask for t in spanning_trees(dims)]
    assert len(masks) == 81
    _agree(dims, product(masks, masks))


def test_random_masks_3x3_with_cycles():
    dims = Dims(3, 3)
    rng = random.Random(7)
    pairs = [(rng.getrandbits(9), rng.getrandbits(9)) for _ in range(3000)]
    _agree(dims, pairs)


@pytest.mark.parametrize("m,n,count", [(4, 3, 4000), (4, 8, 1500)])
def test_seeded_tree_pairs(m, n, count):
    dims = Dims(m, n)
    rng = random.Random(f"kernel:{m}x{n}")
    trees = [t.mask for t in spanning_trees(dims)] if m * n <= 12 else None
    pairs = []
    for _ in range(count):
        if trees is not None:
            a, b = rng.choice(trees), rng.choice(trees)
        else:
            a, b = _random_tree(rng, dims), _random_tree(rng, dims)
        pairs.append((a, b))
    # near pairs (one edge exchanged) carry most of the improper cases
    for a, _ in pairs[: count // 2]:
        pairs.append((a, _exchange(rng, dims, a)))
    _agree(dims, pairs)
    split = sum(_has_split_circuit(dims, a, b) for a, b in pairs)
    assert 0 < split < len(pairs)


def test_split_circuits_are_symmetric_and_proper_agrees():
    """Reversing a circuit swaps its sides, so the order of the masks does
    not matter, and ``proper`` is the kernel's negation."""
    dims = Dims(4, 3)
    rng = random.Random(3)
    trees = spanning_trees(dims)
    for _ in range(500):
        s1, s2 = rng.choice(trees), rng.choice(trees)
        split = _reference_split_circuit(dims, s1.mask, s2.mask)
        assert _has_split_circuit(dims, s2.mask, s1.mask) == split
        assert proper(s1, s2) == proper(s2, s1) == (not split)


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
