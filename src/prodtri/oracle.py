"""Independent ground truth at desk scale.

Exhaustive enumeration of all triangulations of small products, an
exact-arithmetic geometric validity check, and the flip graph those
triangulations span.  Nothing here reuses the combinatorial validity
test, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import Dims, Simplex, is_spanning_tree
from .flips import apply_flip, enumerate_flips
from .geometry import improper_geometric, simplex_volume
from .triangulation import Triangulation, proper


class BudgetExceeded(RuntimeError):
    """Requested dimensions exceed the configured enumeration budget."""


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


def enumerate_triangulations(dims: Dims, max_simplices: int = 12) -> Corpus:
    """Depth-first search over canonical pairwise-proper tree sets of the
    unimodular cardinality.  Exhaustive: every triangulation appears once."""
    dims = Dims(*dims).check()
    target = comb(dims.m + dims.n - 2, dims.m - 1)
    if target > max_simplices:
        raise BudgetExceeded(
            f"{dims} needs {target} maximal simplices > budget {max_simplices}"
        )
    trees = spanning_trees(dims)
    nt = len(trees)
    compat = [0] * nt
    for a in range(nt):
        for b in range(a + 1, nt):
            if proper(trees[a], trees[b]):
                compat[a] |= 1 << b
                compat[b] |= 1 << a
    above = [(~((1 << (a + 1)) - 1)) & ((1 << nt) - 1) for a in range(nt)]
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def extend(cand: int):
        if len(chosen) == target:
            found.append(tuple(chosen))
            return
        need = target - len(chosen)
        rest = cand
        while rest:
            low = rest & -rest
            if bin(rest).count("1") < need:
                return
            t = low.bit_length() - 1
            chosen.append(t)
            extend(cand & compat[t] & above[t])
            chosen.pop()
            rest ^= low
            cand ^= low

    extend((1 << nt) - 1)
    tris = tuple(
        Triangulation(dims, [trees[p] for p in picks]) for picks in sorted(found)
    )
    return Corpus(dims=dims, triangulations=tris)


def geometric_validate(tri: Triangulation, budget: int = 16) -> bool:
    """Exact-geometry triangulation test on the maximal simplices.

    Full-dimensional simplices, lattice volumes summing to the binomial,
    and pairwise proper intersection decided by a rational feasibility
    search for a splitting affine dependence.
    """
    dims = tri.dims
    if dims.m + dims.n > budget:
        raise BudgetExceeded(f"{dims} beyond exact-arithmetic budget {budget}")
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
    leaves the corpus (which would mean the enumeration missed something)."""
    position = {t.digest(): p for p, t in enumerate(corpus.triangulations)}
    edges: set[frozenset[int]] = set()
    for p, tri in enumerate(corpus.triangulations):
        for cert in enumerate_flips(tri):
            other = apply_flip(tri, cert)
            q = position.get(other.digest())
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
