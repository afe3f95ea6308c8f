"""Independent ground truth at desk scale.

Exhaustive enumeration of all triangulations of small products, an
exact-arithmetic geometric validity check, and the flip graph those
triangulations span.  Nothing here reuses the combinatorial validity
test, so agreement between the two is meaningful evidence.

The enumeration and the flip graph run on tree masks: the search picks
trees from bitsets of properly meeting partners, and the graph keys each
member by its ascending tree masks and applies the flips of the full
circuit scan to them, building no certificate or triangulation objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import Dims, Simplex, is_spanning_tree
from .flips import StaleCertificate, _flips, _star
from .geometry import improper_geometric, simplex_volume
from .triangulation import Triangulation, _edge_members, _improper_partners


class BudgetExceeded(RuntimeError):
    """Requested dimensions exceed an oracle budget."""


# The most maximal simplices, C(m+n-2, m-1), that the enumeration builds.
MAX_SIMPLICES = 12
# The most vertices, m + n, of the product that the exact geometry accepts.
MAX_GEOMETRIC_VERTICES = 16


@dataclass(frozen=True)
class Corpus:
    dims: Dims
    triangulations: tuple[Triangulation, ...]

    def __len__(self):
        return len(self.triangulations)

    def digests(self) -> tuple[str, ...]:
        return tuple(t.digest() for t in self.triangulations)


@dataclass(frozen=True)
class FlipGraph:
    corpus: Corpus
    edges: frozenset[frozenset[int]]

    def degree(self, node: int) -> int:
        return sum(1 for e in self.edges if node in e)


def spanning_trees(dims: Dims) -> tuple[Simplex, ...]:
    """All spanning trees of the bipartite graph, in canonical order."""
    dims = Dims(*dims).check()
    m, n = dims
    cells = [(i, j) for i in range(m) for j in range(n)]
    out = []
    for pick in combinations(cells, m + n - 1):
        t = Simplex.from_edges(dims, pick)
        if is_spanning_tree(t):
            out.append(t)
    return tuple(sorted(out))


def enumerate_triangulations(dims: Dims) -> Corpus:
    """Depth-first search over canonical pairwise-proper tree sets of the
    unimodular cardinality.  Exhaustive: every triangulation appears once."""
    dims = Dims(*dims).check()
    target = comb(dims.m + dims.n - 2, dims.m - 1)
    if target > MAX_SIMPLICES:
        raise BudgetExceeded(
            f"{dims} needs {target} maximal simplices > budget {MAX_SIMPLICES}"
        )
    trees = spanning_trees(dims)
    nt = len(trees)
    members = _edge_members(dims, [t.mask for t in trees])
    compat = []  # the trees after each tree that meet it properly
    for a, t in enumerate(trees):
        above = ((1 << nt) - 1) & ~((2 << a) - 1)
        compat.append(above & ~_improper_partners(dims, t.mask, members, above))
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def extend(cand: int, need: int):
        """Every way to pick ``need`` more trees from the bitset ``cand``;
        a branch ends once fewer candidates remain than it needs."""
        if not need:
            found.append(tuple(chosen))
            return
        left = cand.bit_count()
        while left >= need:
            low = cand & -cand
            t = low.bit_length() - 1
            sub = cand & compat[t]
            if sub.bit_count() >= need - 1:
                chosen.append(t)
                extend(sub, need - 1)
                chosen.pop()
            cand ^= low
            left -= 1

    extend((1 << nt) - 1, target)
    tris = tuple(
        Triangulation(dims, [trees[p] for p in picks]) for picks in sorted(found)
    )
    return Corpus(dims=dims, triangulations=tris)


def geometric_validate(tri: Triangulation) -> bool:
    """Exact-geometry triangulation test on the maximal simplices.

    Full-dimensional simplices, lattice volumes summing to the binomial,
    and pairwise proper intersection decided by a rational feasibility
    search for a splitting affine dependence.
    """
    dims = tri.dims
    if dims.m + dims.n > MAX_GEOMETRIC_VERTICES:
        raise BudgetExceeded(
            f"{dims} beyond exact-arithmetic budget {MAX_GEOMETRIC_VERTICES}"
        )
    d = dims.m + dims.n - 2
    total = 0
    for t in tri.maximal:
        if len(t) != d + 1:
            return False
        vol = simplex_volume(t)
        if vol == 0:
            return False
        total += vol
    if total != comb(dims.m + dims.n - 2, dims.m - 1):
        return False
    trees = tri.maximal
    for a in range(len(trees)):
        for b in range(a + 1, len(trees)):
            if improper_geometric(trees[a], trees[b]):
                return False
    return True


def build_flip_graph(corpus: Corpus) -> FlipGraph:
    """Edges between corpus members one flip apart; raises if a flip ever
    leaves the corpus (which would mean the enumeration missed something).

    Members are keyed by their ascending tree masks, and each flip found by
    the full circuit scan of ``enumerate_flips`` is applied to those masks.
    """
    dims = corpus.dims
    members = [tuple(t.mask for t in tri.maximal) for tri in corpus.triangulations]
    position = {trees: p for p, trees in enumerate(members)}
    edges: set[frozenset[int]] = set()
    for p, trees in enumerate(members):
        for _, _, link, plus_faces, minus_faces in _flips(dims, trees):
            removed = set(_star(link, plus_faces))
            kept = [t for t in trees if t not in removed]
            if len(kept) + len(removed) != len(trees):
                raise StaleCertificate("certificate's removed simplices are not all present")
            q = position.get(tuple(sorted(kept + _star(link, minus_faces))))
            if q is None:
                raise RuntimeError("flip left the enumerated corpus")
            if q != p:
                edges.add(frozenset((p, q)))
    return FlipGraph(corpus=corpus, edges=frozenset(edges))


def is_connected(graph: FlipGraph) -> bool:
    nodes = len(graph.corpus)
    if nodes <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(nodes)]
    for e in graph.edges:
        a, b = tuple(e)
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == nodes
