"""Independent references for the package's mask routines.

The forest routines here build vertex adjacency lists and walk them depth
first; the package reads the same answers off row slices, and the tests
compare the two.  Only ``Simplex`` and ``NotACycle`` are taken from the
package for them.  ``split_circuit`` decides proper intersection by a
depth-first search for a directed cycle, where the package runs one
circuit search against a whole collection.  The all-pairs precedence scan
classifies every pair of members with ``adjacency_move``, which reads the
shared face's components and decides proper intersection with
``split_circuit``, and builds the ``PrecedenceDigraph`` of the moves a
filter accepts, so it shares no code with the facet index and the mask core
``_move_masks`` of ``build_precedence``; ``Move`` is its own record of a
crossing.  ``reachability`` closes a digraph's arcs over sets
by Warshall's method, where the digraph searches from a node on demand.
``all_circuits_from_edges`` keeps every edge set that ``circuit_of_cycle``
walks as one cycle and signs it both ways with ``Circuit.from_edges``, where
the package writes the masks of each row and column sequence.
``swap_edges`` exchanges two rows edge by edge, where the package exchanges
row slices of the mask.  ``facet_pairs`` compares every pair of masks,
where the package indexes members by their facets.
The flip references work on ``Simplex`` values: ``supports_flip`` compares
the links of the circuit's faces host by host, ``apply_flip`` edits the
member set, and ``flip_graph`` builds the flip graph from these alone,
where the package's flip kernel works on ascending tree masks.
``enumerate_triangulations`` is the search the oracle ran before it matched
facets: it picks any compatible tree, lowest first, and keeps every
pairwise-proper set of the unimodular cardinality.
``feasible_fraction`` is the phase-one simplex with Bland's rule on
``Fraction`` entries, dividing the pivot row by its pivot; the package
pivots the same tableau on integers over one common denominator.
``improper_split_columns`` builds the improper-intersection system with
each shared vertex's free weight split into two nonnegative columns, where
the package solves for those weights in closed form before its simplex
runs.  ``eliminated_system`` eliminates them one integer pivot at a time,
as the package once did, and ``rank`` compares row spaces by ``Fraction``
elimination.  ``dependence_system`` writes the closed-form system densely
from the blocks ``components`` finds, where the package builds each row as
sign bitsets from one labelling pass.  ``presolve`` drops one-signed zero
rows with sign lists, where the package keeps column bitsets, and
``witness_verdict`` rechecks a kernel witness by integer arithmetic alone.
``staircase_masks`` walks each monotone path of the display grid step by
step, one choice of its three row steps at a time, where the package
extends the paths of each grid cell from its neighbours.
The predicates ``connect`` evaluates per tree and per flip (``contains``,
the defect sets, ``goodness``, ``shape_cols``, ``two_row_image``,
``restriction_order``, ``adjacency_move`` and ``free_equivalent``) are read
column by column with ``col_neighbors`` or off ``components``, where the
package reads row slices of the mask.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import NamedTuple

from prodtri.core import Circuit, Dims, NotACycle, Simplex, col_neighbors, row_neighbors
from prodtri.flips import FlipCertificate, Obstruction, StaleCertificate, all_circuits
from prodtri.geometry import Farkas, Solution
from prodtri.oracle import Corpus, spanning_trees
from prodtri.orders import ColumnQuasiorder, MalformedLocal, PrecedenceDigraph
from prodtri.triangulation import (
    LocalTriangulation,
    Triangulation,
    _edge_members,
    _improper_partners,
)


def _vertex_adjacency(simplex: Simplex) -> list[list[int]]:
    m, n = simplex.dims
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for i, j in simplex:
        adj[i].append(m + j)
        adj[m + j].append(i)
    return adj


def components(simplex: Simplex) -> tuple[frozenset[int], ...]:
    """Connected components as sets of graph vertices (row i is vertex i,
    column j is vertex m + j), singletons included, sorted by smallest
    member."""
    m, n = simplex.dims
    adj = _vertex_adjacency(simplex)
    seen = [False] * (m + n)
    comps = []
    for s in range(m + n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(frozenset(comp))
    return tuple(comps)


def is_forest(simplex: Simplex) -> bool:
    m, n = simplex.dims
    return len(simplex) + len(components(simplex)) == m + n


def is_spanning_tree(simplex: Simplex) -> bool:
    return len(components(simplex)) == 1 and len(simplex) == simplex.dims.m + simplex.dims.n - 1


def tree_paths(simplex: Simplex, u: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """The path of the forest from u to each vertex of its component, as
    an edge sequence; () to u itself."""
    m = simplex.dims.m
    adj = _vertex_adjacency(simplex)
    paths = {u: ()}
    stack = [u]
    while stack:
        x = stack.pop()
        for w in adj[x]:
            if w not in paths:
                paths[w] = paths[x] + (((x, w - m) if x < m else (w, x - m)),)
                stack.append(w)
    return paths


def validate_circuit(dims, minus_mask: int, plus_mask: int) -> None:
    """Raise ``NotACycle`` with ``Circuit``'s message unless the two masks
    split one simple cycle into alternating sides."""
    if minus_mask & plus_mask:
        raise NotACycle("minus and plus overlap")
    cyc = Simplex(dims, minus_mask | plus_mask)
    deg: dict[int, list[int]] = {}
    m, n = dims
    for i, j in cyc:
        deg.setdefault(i, []).append(i * n + j)
        deg.setdefault(m + j, []).append(i * n + j)
    if not deg or any(len(bits) != 2 for bits in deg.values()):
        raise NotACycle("edges do not form a single simple cycle")
    if len(components(cyc)) != m + n - len(deg) + 1:
        raise NotACycle("edges do not form a single simple cycle")
    for bits in deg.values():
        if len({bool(minus_mask >> b & 1) for b in bits}) != 2:
            raise NotACycle("cycle does not alternate between minus and plus")


def circuit_of_cycle(dims, edges) -> tuple[int, int]:
    """The (minus, plus) masks of a simple cycle's alternating sides, the
    smallest edge in minus, found by walking the cycle edge by edge; raise
    ``NotACycle`` for anything else."""
    m, n = dims
    edge_list = Simplex.from_edges(dims, edges).edges
    if not edge_list:
        raise NotACycle("empty edge set")
    adj: dict[int, list[tuple[int, int]]] = {}
    for i, j in edge_list:
        adj.setdefault(i, []).append((i, j))
        adj.setdefault(m + j, []).append((i, j))
    if any(len(v) != 2 for v in adj.values()):
        raise NotACycle("some vertex does not have degree 2")
    start = edge_list[0]
    side = {start: 0}
    v, e = m + start[1], start
    while True:
        e2 = next(x for x in adj[v] if x != e)
        if e2 == start:
            break
        side[e2] = side[e] ^ 1
        v = m + e2[1] if v == e2[0] else e2[0]
        e = e2
    if len(side) != len(edge_list):
        raise NotACycle("edges are not a single connected cycle")
    masks = [0, 0]
    for (i, j), s in side.items():
        masks[s] |= 1 << (i * n + j)
    return masks[0], masks[1]


def all_circuits_from_edges(dims) -> list:
    """Every signed simple cycle of the bipartite graph, both orientations,
    sorted: each edge set of even size that ``circuit_of_cycle`` accepts,
    with its two sides either way round."""
    m, n = dims
    out = []
    for mask in range(1, 1 << (m * n)):
        if mask.bit_count() % 2:
            continue
        try:
            minus, plus = circuit_of_cycle(dims, Simplex(dims, mask).edges)
        except NotACycle:
            continue
        sides = [Simplex(dims, minus).edges, Simplex(dims, plus).edges]
        out += [Circuit.from_edges(dims, *sides), Circuit.from_edges(dims, *sides[::-1])]
    return sorted(out)


def split_circuit(dims, mask1: int, mask2: int) -> bool:
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


def all_pairs_moves(tri) -> list:
    """(a, b, move) for every adjacent pair of member positions a < b."""
    nodes = tri.maximal
    out = []
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            move = adjacency_move(nodes[a], nodes[b])
            if move is not None:
                out.append((a, b, move))
    return out


def row_mask(rows) -> int:
    return sum(1 << i for i in rows)


def swap_edges(s: Simplex, a: int, b: int) -> Simplex:
    """The simplex with rows a and b exchanged, edge by edge."""
    swap = {a: b, b: a}
    return Simplex.from_edges(s.dims, [(swap.get(i, i), j) for i, j in s])


def facet_pairs(tri) -> set:
    """Mask pairs a < b of members sharing a facet, the tree minus one edge."""
    size = tri.dims.m + tri.dims.n - 1
    masks = sorted(t.mask for t in tri.maximal)
    return {
        (a, b)
        for k, a in enumerate(masks)
        for b in masks[k + 1 :]
        if (a & b).bit_count() == size - 1
    }


def all_pairs_precedence(tri, move_filter, moves) -> PrecedenceDigraph:
    """The digraph of the ``all_pairs_moves(tri)`` moves, and of their
    reverses, that the filter accepts on their row masks (I1, I2)."""
    arcs = []
    for a, b, move in moves:
        I1, I2 = row_mask(move.I1), row_mask(move.I2)
        if move_filter(I1, I2):
            arcs.append((a, b))
        if move_filter(I2, I1):
            arcs.append((b, a))
    return PrecedenceDigraph(tri.maximal, arcs)


def reachability(count: int, arcs) -> list[set[int]]:
    """Warshall's closure: for each of count positions, the set of
    positions a chain of arcs leads to from it, itself included."""
    reach = [{p} for p in range(count)]
    for a, b in arcs:
        reach[a].add(b)
    for k in range(count):
        for row in reach:
            if k in row:
                row |= reach[k]
    return reach


@functools.lru_cache(maxsize=16)
def _edge_index(tri) -> dict[tuple[int, int], list[int]]:
    """Edge -> positions of the maximal simplices holding it."""
    index: dict[tuple[int, int], list[int]] = {}
    for pos, t in enumerate(tri.maximal):
        for e in t:
            index.setdefault(e, []).append(pos)
    return index


def contains(tri, sigma: Simplex) -> bool:
    if isinstance(tri, LocalTriangulation):
        return any(sigma.issubset(t) for t in tri.maximal)
    if sigma.mask == 0:
        return True
    cands = _edge_index(tri).get(sigma.edges[0])
    return bool(cands) and any(sigma.issubset(tri.maximal[p]) for p in cands)


def compute_TI(tri):
    out = []
    for t in tri.maximal:
        for j in range(tri.dims.n):
            nb = col_neighbors(t, j)
            if 0 in nb and 1 in nb and 3 not in nb:
                out.append(t)
                break
    return tuple(out)


def compute_TII(tri):
    out = []
    for t in tri.maximal:
        for j in range(tri.dims.n):
            nb = col_neighbors(t, j)
            if 0 in nb and 1 in nb and not (2 in nb and 3 in nb):
                out.append(t)
                break
    return tuple(out)


def goodness(tri, ctx) -> bool:
    dims = tri.dims
    X = ctx.circuit
    xminus = Simplex(dims, X.minus_mask)
    if ctx.kind in ("tauI", "tauII"):
        if not contains(tri, xminus):
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
            defect = set(compute_TI(tri))
            for t in members:
                if t in defect and not ctx.sigma.issubset(t):
                    return False
        else:
            defect = set(compute_TII(tri))
            for t in members:
                if t in defect and t != ctx.anchor:
                    return False
        return True
    Y = ctx.second
    yminus = Simplex(dims, Y.minus_mask)
    if not contains(tri, yminus):
        return True
    c1, _ = ctx.cols
    r0, r1 = ctx.rows
    for t in tri.maximal:
        if not yminus.issubset(t):
            continue
        in_x1 = (
            xminus.issubset(t)
            and (r1, c1) in t
            and (r0, c1) not in t
            and t.mask & X.plus_mask == 0
        )
        if in_x1 and not ctx.sigma.issubset(t):
            return False
    return True


def shape_cols(tau: Simplex):
    out = {}
    for j in range(tau.dims.n):
        nb = col_neighbors(tau, j)
        if len(nb) > 1:
            out[j] = nb
    return out


def two_row_image(tri, i1: int, i2: int) -> list[Simplex]:
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


def _segment_label(tau: Simplex) -> int:
    full = [j for j in range(tau.dims.n) if len(col_neighbors(tau, j)) == 2]
    if len(full) != 1:
        raise MalformedLocal(f"{tau!r} is not a spanning tree of a segment product")
    return full[0]


def restriction_order(tri, i1: int, i2: int) -> ColumnQuasiorder:
    taus = sorted(two_row_image(tri, i1, i2), key=lambda t: -len(row_neighbors(t, 0)))
    labels = [_segment_label(t) for t in taus]
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


def staircase_masks(n: int) -> tuple[int, ...]:
    """Ascending tree masks of ``staircase(n)``: one per choice of the three
    row steps among the 3 + n - 1 steps of a monotone path in the 4 x n
    display grid, display row p being row (0, 2, 3, 1)[p] and display
    column q column n - 1 - q."""
    rowmap = (0, 2, 3, 1)
    masks = []
    for rowsteps in combinations(range(3 + n - 1), 3):
        p = q = 0
        mask = 1 << (n - 1)
        for step in range(3 + n - 1):
            if step in rowsteps:
                p += 1
            else:
                q += 1
            mask |= 1 << (rowmap[p] * n + n - 1 - q)
        masks.append(mask)
    return tuple(sorted(masks))


class Move(NamedTuple):
    """A facet crossing between adjacent trees: the leaving edge joins the
    rows I1 of side 1 to the columns J2 of side 2, the entering edge joins
    I2 to J1."""

    I1: frozenset
    I2: frozenset
    J1: frozenset
    J2: frozenset
    leaving: tuple
    entering: tuple

    def masks(self) -> tuple:
        """The crossing as ``_move_masks`` gives it, sides as bitmasks."""
        I1, I2, J1, J2 = (row_mask(side) for side in self[:4])
        return I1, I2, J1, J2, self.leaving, self.entering


def adjacency_move(tau: Simplex, tau2: Simplex):
    """The crossing from tau to tau2, or None unless they share all but one
    edge each and cross that facet properly."""
    m, n = tau.dims
    sigma = tau.intersection(tau2)
    if tau == tau2 or len(sigma) != m + n - 2:
        return None
    if split_circuit(tau.dims, tau.mask, tau2.mask):
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
    return Move(rows(side1), rows(side2), cols(side1), cols(side2), (li, lj), (ei, ej))


def free_equivalent(tau: Simplex, tau2: Simplex, i1: int) -> bool:
    others = frozenset(range(tau.dims.m)) - {i1}
    return any(others <= comp for comp in components(tau.intersection(tau2)))


def circuit_triangulations(X):
    full = X.minus_mask | X.plus_mask
    n = X.dims.n
    plus_side = tuple(
        sorted(Simplex(X.dims, full & ~(1 << (i * n + j))) for i, j in X.plus)
    )
    minus_side = tuple(
        sorted(Simplex(X.dims, full & ~(1 << (i * n + j))) for i, j in X.minus)
    )
    return plus_side, minus_side


def supports_flip(tri, X, sides=None):
    """The face-by-face host search; ``sides`` may pass the circuit's two
    triangulations in, to spare rebuilding them for every member."""
    plus_side, minus_side = sides or circuit_triangulations(X)
    links = []
    for sigma in plus_side:
        hosts = [t for t in tri.maximal if sigma.issubset(t)]
        if not hosts:
            return None
        links.append(frozenset(t.difference(sigma) for t in hosts))
    if all(lk == links[0] for lk in links[1:]):
        link = tuple(sorted(links[0]))
        removed = tuple(sorted(rho.union(s) for rho in link for s in plus_side))
        added = tuple(sorted(rho.union(s) for rho in link for s in minus_side))
        return FlipCertificate(circuit=X, link=link, removed=removed, added=added)
    xminus = Simplex(X.dims, X.minus_mask)
    size = len(X)
    best = None
    for t in tri.maximal:
        if xminus.issubset(t):
            inter = bin(t.mask & (X.minus_mask | X.plus_mask)).count("1")
            if inter <= size - 2 and (best is None or t < best[0]):
                best = (t, size - inter)
    if best is None:
        raise ValueError("links differ but no obstruction witness: invalid input")
    return Obstruction(witness=best[0], deficiency=best[1])


def enumerate_flips(results):
    """``enumerate_flips`` from the reference results over ``all_circuits``."""
    certs = [res for res in results if isinstance(res, FlipCertificate)]
    certs.sort(key=lambda c: (c.circuit.minus_mask, c.circuit.plus_mask))
    return tuple(certs)


def apply_flip(tri, cert):
    current = set(tri.maximal)
    removed = set(cert.removed)
    if not removed.issubset(current):
        raise StaleCertificate("certificate's removed simplices are not all present")
    return Triangulation(tri.dims, (current - removed) | set(cert.added))


def flip_neighbours(tri, results, position):
    """Positions of the flipped triangulations, from the reference results
    over ``all_circuits``, found by digest in ``position``."""
    return {
        position[apply_flip(tri, res).digest()]
        for res in results
        if isinstance(res, FlipCertificate)
    }


def flip_graph(corpus):
    """The edge set of the flip graph, built from the references alone."""
    circuits = all_circuits(corpus.dims)
    sides = [circuit_triangulations(X) for X in circuits]
    position = {T.digest(): p for p, T in enumerate(corpus.triangulations)}
    edges = set()
    for p, T in enumerate(corpus.triangulations):
        results = [supports_flip(T, X, s) for X, s in zip(circuits, sides)]
        edges.update(frozenset((p, q)) for q in flip_neighbours(T, results, position) - {p})
    return edges


def enumerate_triangulations(dims) -> Corpus:
    """Depth-first search over canonical pairwise-proper tree sets of the
    unimodular cardinality.  Exhaustive: every triangulation appears once."""
    target = comb(dims.m + dims.n - 2, dims.m - 1)
    trees = spanning_trees(dims)
    nt = len(trees)
    members = _edge_members(dims, [t.mask for t in trees])
    compat = []  # the trees after each tree that meet it properly
    for a, t in enumerate(trees):
        above = ((1 << nt) - 1) & ~((2 << a) - 1)
        compat.append(above & ~_improper_partners(dims, [t.mask], members, above)[0])
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


def feasible_fraction(A: list[list[Fraction]], b: list[Fraction]) -> bool:
    """Is there x >= 0 with Ax = b?  Phase-one simplex with Bland's rule."""
    m = len(A)
    if m == 0:
        return True
    n = len(A[0])
    tab = []
    for r in range(m):
        row = list(A[r]) + [Fraction(0)] * m + [b[r]]
        if b[r] < 0:
            row = [-x for x in row]
        row[n + r] = Fraction(1)
        tab.append(row)
    width = n + m + 1
    # reduced costs for min(sum of artificials): column sum minus the unit
    # cost of the artificial columns themselves
    obj = [
        sum(tab[r][c] for r in range(m)) - (1 if n <= c < n + m else 0)
        for c in range(width)
    ]
    basis = [n + r for r in range(m)]
    while True:
        enter = next((c for c in range(n + m) if obj[c] > 0), None)
        if enter is None:
            break
        best = None
        for r in range(m):
            if tab[r][enter] > 0:
                ratio = tab[r][width - 1] / tab[r][enter]
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[r] < basis[best[1]]
                ):
                    best = (ratio, r)
        if best is None:
            # phase-one objective is bounded; unbounded column means a bug
            raise ArithmeticError("unbounded phase-one simplex")
        _, leave = best
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for r in range(m):
            if r != leave and tab[r][enter] != 0:
                f = tab[r][enter]
                tab[r] = [x - f * y for x, y in zip(tab[r], tab[leave])]
        f = obj[enter]
        obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter
    return obj[width - 1] == 0


def improper_split_columns(s1: Simplex, s2: Simplex) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The system ``Ax = b, x >= 0`` that is feasible exactly when the hulls
    of ``s1`` and ``s2`` meet outside their shared face: an affine
    dependence with weight on +point for each vertex only ``s1`` holds,
    -point for each vertex only ``s2`` holds and a split pair (+point,
    -point) for each shared vertex, whose last row puts total weight 1 on
    the vertices only ``s2`` holds.  A point is the 0/1 vector of its row
    and column with the last of each dropped, and a homogenising 1."""
    m, n = s1.dims
    e1, e2 = set(s1.edges), set(s2.edges)

    def point(i: int, j: int) -> list[int]:
        return [int(r == i) for r in range(m - 1)] + [int(c == j) for c in range(n - 1)] + [1]

    cols = [(v, 1) for v in sorted(e1 - e2)] + [(v, -1) for v in sorted(e2 - e1)]
    cols += [(v, sgn) for v in sorted(e1 & e2) for sgn in (1, -1)]
    pts = [point(*v) for v, _ in cols]
    A = [[Fraction(sgn * p[r]) for (_, sgn), p in zip(cols, pts)] for r in range(m + n - 1)]
    A.append([Fraction(int(v not in e1)) for v, _ in cols])
    return A, [Fraction(0)] * (m + n - 1) + [Fraction(1)]


def eliminated_system(s1: Simplex, s2: Simplex) -> tuple[list[list[int]], list[int]]:
    """The improper-intersection system with each shared vertex's free
    weight eliminated by an integer pivot over every row, then dropped with
    the pivot row; a free column already zero in every row (the shared
    vertices hold a cycle) is skipped, and zero rows are dropped.  Its
    columns are the vertices only ``s1`` holds and then those only ``s2``
    holds, each in ascending order, and its last row puts total weight 1 on
    the latter."""
    m, n = s1.dims
    d = m + n - 2
    e1, e2 = set(s1.edges), set(s2.edges)
    free = sorted(e1 & e2)
    cols = [(v, 1) for v in free] + [(v, 1) for v in sorted(e1 - e2)]
    cols += [(v, -1) for v in sorted(e2 - e1)]
    # coordinates of (i, j) with the homogenising 1: rows i, m - 1 + j and d
    rows = [[0] * len(cols) for _ in range(d + 1)]
    for c, ((i, j), sgn) in enumerate(cols):
        rows[d][c] = sgn
        if i < m - 1:
            rows[i][c] = sgn
        if j < n - 1:
            rows[m - 1 + j][c] = sgn
    for c in range(len(free)):
        r = next((r for r, row in enumerate(rows) if row[c]), None)
        if r is None:
            continue
        prow = rows.pop(r)
        piv = prow[c]
        for q, row in enumerate(rows):
            f = row[c]
            if f:
                rows[q] = [x * piv - f * y for x, y in zip(row, prow)]
    k = len(free)
    A = [row[k:] for row in rows if any(row[k:])]
    A.append([int(sgn < 0) for _, sgn in cols[k:]])
    return A, [0] * (len(A) - 1) + [1]


def dependence_system(s1: Simplex, s2: Simplex) -> tuple[list[list[int]], list[int]]:
    """The closed-form improper-intersection system, written densely: one
    row per block of the shared edges (``components`` of their simplex),
    +1 at the block of a vertex's row end and -1 at that of its column end
    for a vertex only ``s1`` holds, the reverse for one only ``s2`` holds.
    Only rows with a nonzero entry are kept, in the order of their first
    one, the last of them is dropped, and the normalising row is appended.
    The columns are ordered as in ``eliminated_system``."""
    m, _ = s1.dims
    block = {v: comp for comp in components(s1.intersection(s2)) for v in comp}
    e1, e2 = set(s1.edges), set(s2.edges)
    cols = [(v, 1) for v in sorted(e1 - e2)] + [(v, -1) for v in sorted(e2 - e1)]
    rows: dict[frozenset, list[int]] = {}
    for c, ((i, j), sgn) in enumerate(cols):
        if block[i] != block[m + j]:
            rows.setdefault(block[i], [0] * len(cols))[c] = sgn
            rows.setdefault(block[m + j], [0] * len(cols))[c] = -sgn
    A = list(rows.values())[:-1]
    A.append([int(sgn < 0) for _, sgn in cols])
    return A, [0] * (len(A) - 1) + [1]


def rank(rows) -> int:
    """Rank of a list of rows, by ``Fraction`` Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        p = next((q for q in range(r, len(a)) if a[q][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for q in range(len(a)):
            if q != r and a[q][c]:
                f = a[q][c] / a[r][c]
                a[q] = [x - f * y for x, y in zip(a[q], a[r])]
        r += 1
    return r


def presolve(A, b) -> tuple[list[int], list[int]]:
    """The rows and the columns that remain after dropping, until none is
    left, every row with right-hand side 0 whose nonzero entries on the
    remaining columns share one sign, with the columns where it is
    nonzero: those are 0 in every solution x >= 0."""
    rows = list(range(len(A)))
    cols = list(range(len(A[0]) if A else 0))
    while True:
        for r in rows:
            signs = {x > 0 for x in (A[r][c] for c in cols) if x}
            if not b[r] and len(signs) < 2:
                rows.remove(r)
                cols = [c for c in cols if not A[r][c]]
                break
        else:
            return rows, cols


def witness_verdict(A, b, witness) -> bool:
    """The verdict a witness of ``feasible_eq_nonneg`` certifies, after
    checking it by integer arithmetic: True for x >= 0 and a scale D > 0
    with Ax = Db, False for y with yA <= 0 and yb > 0.  Anything else fails
    an assertion."""
    cols = range(len(A[0]) if A else 0)
    if isinstance(witness, Solution):
        x, scale = witness
        assert type(scale) is int and scale > 0, witness
        assert len(x) == len(cols) and all(type(v) is int and v >= 0 for v in x), witness
        assert all(sum(a * v for a, v in zip(row, x)) == scale * rhs for row, rhs in zip(A, b))
        return True
    assert isinstance(witness, Farkas), witness
    (y,) = witness
    assert len(y) == len(A) and all(type(v) is int for v in y), witness
    assert all(sum(v * row[c] for v, row in zip(y, A)) <= 0 for c in cols), witness
    assert sum(v * rhs for v, rhs in zip(y, b)) > 0, witness
    return False
