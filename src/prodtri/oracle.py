"""Independent ground truth at desk scale.

Exhaustive enumeration of all triangulations of small products, an
exact-arithmetic geometric validity check, and the flip graph those
triangulations span.  The geometric check shares no code with the
combinatorial validity test, so agreement between the two is meaningful
evidence.  The enumeration does share its compatibility test: one
``_improper_partners`` search from all spanning trees, the search
``validate`` runs, gives the trees that meet each tree properly.

The enumeration and the flip graph run on tree masks: the search matches
the open interior facets of the chosen trees against bitsets of properly
meeting partners, and the graph keys each member by the bitset of its
trees over the corpus's distinct trees.  One batched circuit scan gives
each distinct flip once with the members it flips.  A flip and its inverse
join the same members, so the graph applies the flips of one orientation to
each member they flip and checks that the members reached are those the
inverse flips, building no certificate or triangulation objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import Dims, Simplex, is_spanning_tree
from .flips import StaleCertificate, _flips
from .geometry import improper_geometric, simplex_volume
from .triangulation import Triangulation, _edge_members, _improper_partners


class BudgetExceeded(RuntimeError):
    """Requested dimensions exceed an oracle budget."""


# The most spanning trees, m^(n-1) * n^(m-1), that the enumeration searches;
# the products it admits need at most 10 maximal simplices (3x4 and 4x3).
MAX_SPANNING_TREES = 1024
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


def _interior(dims: Dims, face: int) -> bool:
    """Does the edge mask leave no row or column bare?"""
    m, n = dims
    full = (1 << n) - 1
    cols = 0
    for i in range(m):
        row = face >> (i * n) & full
        if not row:
            return False
        cols |= row
    return cols == full


def enumerate_triangulations(dims: Dims) -> Corpus:
    """Every triangulation once: the pairwise-proper tree sets of the
    unimodular cardinality, found by facet matching.

    Each search starts from the set's minimal tree.  An interior facet (a
    tree minus one edge that leaves no row or column bare) lies in exactly
    two trees of a triangulation, so while a facet of the chosen trees is
    held by only one of them, the set's next tree is one of the compatible
    trees that hold it, and the search branches on those alone.  This
    pseudomanifold property only prunes: a set is accepted when its trees
    are pairwise proper and their count is right.
    """
    dims = Dims(*dims).check()
    m, n = dims
    count = m ** (n - 1) * n ** (m - 1)
    if count > MAX_SPANNING_TREES:
        raise BudgetExceeded(
            f"{dims} has {count} spanning trees > budget {MAX_SPANNING_TREES}"
        )
    target = comb(m + n - 2, m - 1)
    trees = spanning_trees(dims)
    masks = [t.mask for t in trees]
    everyone = (1 << len(masks)) - 1
    improper = _improper_partners(dims, masks, _edge_members(dims, masks), everyone)
    # the other trees that meet each tree properly
    compat = [everyone & ~(1 << a) & ~bad for a, bad in enumerate(improper)]
    holders: dict[int, int] = {}  # interior facet -> the trees holding it
    facets = []  # each tree's interior facets
    for a, t in enumerate(masks):
        own = []
        x = t
        while x:
            low = x & -x
            x ^= low
            f = t ^ low
            if _interior(dims, f):
                own.append(f)
                holders[f] = holders.get(f, 0) | 1 << a
        facets.append(frozenset(own))
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def extend(cand: int, open_: frozenset, need: int):
        """Every way to add ``need`` trees from the bitset ``cand`` to the
        chosen ones, whose facets held once are ``open_``.  The branch is
        over the candidates holding the open facet with the fewest of them;
        an open facet with none, or no open facet while trees are still
        needed, ends the branch."""
        if not need:
            found.append(tuple(sorted(chosen)))
            return
        branch = None
        for f in open_:
            opts = cand & holders[f]
            if not opts:
                return
            if branch is None or opts.bit_count() < branch.bit_count():
                branch = opts
        while branch:
            low = branch & -branch
            branch ^= low
            b = low.bit_length() - 1
            chosen.append(b)
            extend(cand & compat[b], open_ ^ facets[b], need - 1)
            chosen.pop()

    for a in range(len(masks)):
        chosen.append(a)
        extend(compat[a] & ~((2 << a) - 1), facets[a], target - 1)
        chosen.pop()
    # picks ascend and the trees are in mask order, so members need no sort
    tris = tuple(
        Triangulation._trusted(dims, tuple(trees[p] for p in picks)) for picks in sorted(found)
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


def _tree_bits(index: dict[int, int], link, faces) -> int:
    """The bitset of the trees ``r | f`` over the link and the faces, or 0
    when one of them is unknown or two coincide."""
    bits = 0
    for r in link:
        for f in faces:
            bit = index.get(r | f, 0)
            if not bit or bits & bit:
                return 0
            bits |= bit
    return bits


def build_flip_graph(corpus: Corpus) -> FlipGraph:
    """Edges between corpus members one flip apart; raises if a flip ever
    leaves the corpus (which would mean the enumeration missed something)
    and refuses a corpus that repeats a member.

    One batched scan of ``_flips`` finds each distinct flip once with the
    bitset of the members it flips (the 4x3 members have 28,368 flips in
    1,584 records).  The flip (X, link) is undone by (-X, link), so only the
    records of one orientation form edges, each edge once (14,184 lookups at
    4x3).  A record's removed and added trees are formed once, as bitsets
    over the distinct trees of the corpus (432 at 4x3), and applied to each
    member it flips: the neighbour is the kept trees joined with the added
    ones, looked up by its bitset.  The neighbours reached must be exactly
    the members of the inverse record, which checks the records that form
    no edge.
    """
    dims = corpus.dims
    members = [[t.mask for t in tri.maximal] for tri in corpus.triangulations]
    index = {t: 1 << i for i, t in enumerate({t for trees in members for t in trees})}
    keys = [sum(map(index.__getitem__, trees)) for trees in members]
    position: dict[int, int] = {}
    for p, key in enumerate(keys):
        if position.setdefault(key, p) != p:
            raise ValueError(f"corpus member {p} repeats member {position[key]}")
    records = _flips(dims, members)
    # the records that form no edge, keyed as their inverse names them
    inverse = {
        (minus_faces, link): flipped
        for _, X, link, _, minus_faces, flipped in records
        if X.minus_mask > X.plus_mask
    }
    edges: set[frozenset[int]] = set()
    for _, X, link, plus_faces, minus_faces, flipped in records:
        if X.minus_mask > X.plus_mask:
            continue
        removed = _tree_bits(index, link, plus_faces)
        added = _tree_bits(index, link, minus_faces)
        targets = 0
        each = bin(flipped)[:1:-1]  # member p at index p
        p = each.find("1")
        while p >= 0:
            if not removed or removed & keys[p] != removed:
                raise StaleCertificate("certificate's removed simplices are not all present")
            kept = keys[p] ^ removed
            q = None if not added or added & kept else position.get(kept | added)
            if q is None:
                raise RuntimeError("flip left the enumerated corpus")
            targets |= 1 << q
            edges.add(frozenset((p, q)))  # q != p: no added tree is kept or removed
            p = each.find("1", p + 1)
        if inverse.pop((plus_faces, link), 0) != targets:
            raise RuntimeError(
                f"flip left the enumerated corpus: {X!r} at link {link} reaches "
                f"other members than {X.reverse()!r} flips"
            )
    if inverse:
        raise RuntimeError(f"flip left the enumerated corpus: {len(inverse)} flips undo no flip")
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
