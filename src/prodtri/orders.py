"""Order structures read off a triangulation.

Three kinds of order drive the connectivity algorithm:

* the segment order on maximal simplices of a (local) triangulation of a
  segment times a simplex, and the induced column quasiorder;
* the partial order on maximal simplices generated by facet crossings whose
  entering side contains a chosen row;
* the quasiorder that additionally allows free crossings across the
  partition ({one row}, {the rest}).

Precedence digraphs are built over the maximal simplices of the given
collection; chains never leave it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from .core import Dims, Simplex, _popcount, alternating_path, row_neighbors
from .triangulation import LocalTriangulation, _maximal_members, proper

LESS, EQUIVALENT, GREATER = -1, 0, 1


class MalformedLocal(ValueError):
    """Collection does not have the segment structure it should have."""


class NoMinimal(LookupError):
    """No (or no unique) all-alternating minimal simplex exists."""


class EmptyInput(ValueError):
    pass


@dataclass(frozen=True)
class SegmentDecomposition:
    """The unique walk through the maximal cells of a segment product."""

    simplices: tuple[Simplex, ...]
    labels: tuple[int, ...]


@dataclass(frozen=True)
class ColumnQuasiorder:
    """Disjoint column classes listed from low to high."""

    strata: tuple[frozenset[int], ...]

    def rank(self, j: int) -> int:
        for r, stratum in enumerate(self.strata):
            if j in stratum:
                return r
        raise KeyError(j)

    def compare(self, j: int, j2: int) -> int:
        a, b = self.rank(j), self.rank(j2)
        return LESS if a < b else GREATER if a > b else EQUIVALENT

    def as_total(self) -> tuple[int, ...]:
        if any(len(s) != 1 for s in self.strata):
            raise MalformedLocal("quasiorder is not a total order")
        return tuple(next(iter(s)) for s in self.strata)

    def reversed_(self) -> "ColumnQuasiorder":
        return ColumnQuasiorder(tuple(reversed(self.strata)))


def _bits(x: int) -> frozenset[int]:
    """Positions of the set bits of x."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return frozenset(out)


def _segment_walk(dims, masks: Sequence[int]) -> tuple[list[int], list[int]]:
    """Order the edge masks of a segment product's trees (two rows, given
    in canonical order) by shrinking first-row degree, verify the
    single-swap chain between consecutive ones, and return the ordered
    masks with each one's label: the column joined to both rows."""
    n = dims.n
    full = (1 << n) - 1
    taus = sorted(masks, key=lambda x: -_popcount(x & full))
    labels = []
    for x in taus:
        both = x & (x >> n) & full
        if not both or both & (both - 1):
            tau = Simplex(dims, x)
            raise MalformedLocal(f"{tau!r} is not a spanning tree of a segment product")
        labels.append(both.bit_length() - 1)
    for r in range(len(taus) - 1):
        expect = taus[r] & ~(1 << labels[r]) | 1 << (n + labels[r + 1])
        if expect != taus[r + 1]:
            raise MalformedLocal("maximal simplices do not chain into a segment")
    for a in range(len(taus)):
        facet = _popcount(taus[a]) - 1
        for b in range(a + 2, len(taus)):
            if _popcount(taus[a] & taus[b]) == facet:
                raise MalformedLocal("non-consecutive simplices are adjacent")
    return taus, labels


def segment_decompose(local: LocalTriangulation) -> SegmentDecomposition:
    """The ordered walk for a local triangulation of a segment product
    based at a subset of {first row x first column, second row x second column}."""
    if local.dims.m != 2:
        raise MalformedLocal("segment decomposition needs a two-row product")
    allowed = Simplex.from_edges(local.dims, [(0, 0), (1, 1)] if local.dims.n > 1 else [(0, 0)])
    if not local.base.issubset(allowed):
        raise MalformedLocal(f"base {local.base!r} is not of the required form")
    taus, labels = _segment_walk(local.dims, [t.mask for t in local.maximal])
    seg = SegmentDecomposition(tuple(Simplex(local.dims, x) for x in taus), tuple(labels))
    if len(seg.simplices) > 1:
        if (0, 0) in local.base:
            if seg.labels[-1] != 0:
                raise MalformedLocal("last label must be the based column")
        elif row_neighbors(seg.simplices[-1], 1) != frozenset(range(local.dims.n)):
            raise MalformedLocal("unbased walk must end at the full second-row cell")
        if (1, 1) in local.base:
            if seg.labels[0] != 1:
                raise MalformedLocal("first label must be the based column")
        elif row_neighbors(seg.simplices[0], 0) != frozenset(range(local.dims.n)):
            raise MalformedLocal("unbased walk must start at the full first-row cell")
    return seg


def _two_row_images(tri, i1: int, i2: int) -> list[int]:
    """Maximal images of the trees on rows (i1, i2), ascending, as masks of
    the two-row product: a tree's row-i1 slice below its row-i2 slice."""
    n = tri.dims.n
    full = (1 << n) - 1
    s1, s2 = i1 * n, i2 * n
    masks = (t.mask for t in tri.maximal)
    return _maximal_members({(x >> s1) & full | ((x >> s2) & full) << n for x in masks})


def restriction_order(tri, i1: int, i2: int) -> ColumnQuasiorder:
    """Column quasiorder read off the restriction to rows {i1, i2},
    with i1 playing the first-row role and i2 the second: the maximal
    two-row images are the trees of a segment product."""
    if i1 == i2:
        raise ValueError("rows must be distinct")
    m, n = tri.dims
    if not (0 <= i1 < m and 0 <= i2 < m):
        raise ValueError(f"rows {i1}, {i2} out of range for {m} rows")
    if isinstance(tri, LocalTriangulation):
        if any(i not in (i1, i2) for i, _ in tri.base):
            raise ValueError("local base must lie inside the two rows")
    full = (1 << n) - 1
    taus, labels = _segment_walk(Dims(2, n), _two_row_images(tri, i1, i2))
    first, last = taus[0], taus[-1]
    low = (first >> n) & full & ~(1 << labels[0])
    high = last & full & ~(1 << labels[-1])
    strata: list[frozenset[int]] = []
    if low:
        strata.append(_bits(low))
    strata.extend(frozenset((j,)) for j in labels)
    if high:
        strata.append(_bits(high))
    if sorted(j for s in strata for j in s) != list(range(n)):
        raise MalformedLocal("column classes do not partition the columns")
    return ColumnQuasiorder(tuple(strata))


def compare_columns(tri, i1: int, i2: int, j: int, j2: int) -> int:
    """LESS/GREATER/EQUIVALENT for columns j, j2 in the (i1, i2) order,
    decided by a pure membership test."""
    if j == j2:
        raise ValueError("columns must be distinct")
    dims = tri.dims
    less = tri.contains(Simplex.from_edges(dims, [(i2, j), (i1, j2)]))
    greater = tri.contains(Simplex.from_edges(dims, [(i2, j2), (i1, j)]))
    if less and greater:
        raise ValueError("order test inconsistent: collection is not proper")
    return LESS if less else GREATER if greater else EQUIVALENT


@dataclass(frozen=True)
class AdjacencyMove:
    """Facet crossing between adjacent maximal simplices.

    The leaving edge joins row side I1 to column side J2; the entering edge
    joins I2 to J1."""

    I1: frozenset[int]
    I2: frozenset[int]
    J1: frozenset[int]
    J2: frozenset[int]
    leaving: tuple[int, int]
    entering: tuple[int, int]

    def reversed_(self) -> "AdjacencyMove":
        return AdjacencyMove(
            self.I2, self.I1, self.J2, self.J1, self.entering, self.leaving
        )


def _edge_blocks(dims, mask: int) -> tuple[list[int], list[int]]:
    """The connected components of an edge mask that have edges, as a list
    of row bits and the matching list of column bits, read off the row
    slices: a row joins every block whose columns meet its slice.  Blocks
    keep pairwise disjoint columns, so one pass over the rows closes them."""
    m, n = dims
    full = (1 << n) - 1
    rows_of: list[int] = []
    cols_of: list[int] = []
    for i in range(m):
        cols = (mask >> (i * n)) & full
        if not cols:
            continue
        rows = 1 << i
        k = len(cols_of)
        while k:
            k -= 1
            if cols_of[k] & cols:
                rows |= rows_of.pop(k)
                cols |= cols_of.pop(k)
        rows_of.append(rows)
        cols_of.append(cols)
    return rows_of, cols_of


def classify_adjacency(tau: Simplex, tau2: Simplex) -> Optional[AdjacencyMove]:
    """Labelled partition of the shared facet of two adjacent trees, or None."""
    m, n = tau.dims
    a, b = tau.mask, tau2.mask
    sigma = a & b
    if (a == b and tau.dims == tau2.dims) or _popcount(sigma) != m + n - 2:
        return None
    if not proper(tau, tau2):
        return None
    rows_of, cols_of = _edge_blocks(tau.dims, sigma)
    if len(rows_of) != 2:
        return None
    leaving, entering = a & ~sigma, b & ~sigma
    if leaving & (leaving - 1) or entering & (entering - 1) or not leaving or not entering:
        raise ValueError("each simplex must have one edge outside the shared face")
    li, lj = divmod(leaving.bit_length() - 1, n)
    ei, ej = divmod(entering.bit_length() - 1, n)
    # side 1 holds the leaving row (it lies in neither only if tau has a cycle)
    r1, r2 = rows_of
    c1, c2 = cols_of
    if not r1 >> li & 1:
        r1, r2, c1, c2 = r2, r1, c2, c1
    if not (r1 >> li & 1 and c2 >> lj & 1 and r2 >> ei & 1 and c1 >> ej & 1):
        return None
    return AdjacencyMove(_bits(r1), _bits(r2), _bits(c1), _bits(c2), (li, lj), (ei, ej))


MoveFilter = Callable[[AdjacencyMove], bool]


def toward_row(i: int) -> MoveFilter:
    """Moves whose entering side contains row i."""

    def accept(move: AdjacencyMove) -> bool:
        return i in move.I2

    return accept


def toward_row_free(i1: int, i2: int) -> MoveFilter:
    """Moves toward row i2, plus free moves across ({i1}, the rest)."""

    alone = frozenset((i1,))

    def accept(move: AdjacencyMove) -> bool:
        return i2 in move.I2 or move.I1 == alone or move.I2 == alone

    return accept


class PrecedenceDigraph:
    """Digraph of accepted facet crossings with condensation and reachability."""

    __slots__ = ("nodes", "node_index", "arcs", "scc_of", "scc_count", "_reach")

    def __init__(self, nodes: Sequence[Simplex], arcs: Iterable[tuple[int, int]]):
        self.nodes = tuple(nodes)
        self.node_index = {t: p for p, t in enumerate(self.nodes)}
        self.arcs = frozenset(arcs)
        self.scc_of, self.scc_count = self._tarjan()
        self._reach = self._reachability()

    def _tarjan(self):
        nn = len(self.nodes)
        out = [[] for _ in range(nn)]
        for a, b in self.arcs:
            out[a].append(b)
        index = [-1] * nn
        low = [0] * nn
        on_stack = [False] * nn
        stack: list[int] = []
        scc_of = [-1] * nn
        counter = 0
        comp = 0
        for root in range(nn):
            if index[root] != -1:
                continue
            work = [(root, 0)]
            while work:
                v, pi = work[-1]
                if pi == 0:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                advanced = False
                for k in range(pi, len(out[v])):
                    w = out[v][k]
                    if index[w] == -1:
                        work[-1] = (v, k + 1)
                        work.append((w, 0))
                        advanced = True
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], index[w])
                if advanced:
                    continue
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        scc_of[w] = comp
                        if w == v:
                            break
                    comp += 1
                if work:
                    u, _ = work[-1]
                    low[u] = min(low[u], low[v])
        return scc_of, comp

    def _reachability(self) -> list[int]:
        # Tarjan emits components in reverse topological order, so a single
        # pass over components in emission order sees successors first.
        members = [0] * self.scc_count
        succ = [0] * self.scc_count
        for p, c in enumerate(self.scc_of):
            members[c] |= 1 << p
        for a, b in self.arcs:
            ca, cb = self.scc_of[a], self.scc_of[b]
            if ca != cb:
                succ[ca] |= 1 << cb
        reach_scc = [0] * self.scc_count
        for c in range(self.scc_count):
            r = members[c]
            rest = succ[c]
            while rest:
                lowb = rest & -rest
                r |= reach_scc[lowb.bit_length() - 1]
                rest ^= lowb
            reach_scc[c] = r
        return [reach_scc[self.scc_of[p]] for p in range(len(self.nodes))]

    def reaches(self, tau: Simplex, tau2: Simplex) -> bool:
        """tau is below-or-equivalent-to tau2 in the generated quasiorder."""
        a, b = self.node_index[tau], self.node_index[tau2]
        return bool(self._reach[a] >> b & 1)

    def strictly_below(self, tau: Simplex, tau2: Simplex) -> bool:
        return self.reaches(tau, tau2) and not self.reaches(tau2, tau)

    def equivalent(self, tau: Simplex, tau2: Simplex) -> bool:
        return self.scc_of[self.node_index[tau]] == self.scc_of[self.node_index[tau2]]

    def is_acyclic(self) -> bool:
        return self.scc_count == len(self.nodes)


def build_precedence(tri, move_filter: MoveFilter) -> PrecedenceDigraph:
    """Digraph over the collection's maximal simplices with the accepted moves.

    The members must be tree-sized (m+n-1 edges each); ValueError otherwise.
    Two such trees are adjacent only if they share a facet, the tree minus
    one edge, so a facet index hands ``classify_adjacency`` just the pairs
    that share one, in the (a, b) order of the all-pairs scan: O(T(m+n))
    instead of O(T^2), with the same arcs.
    """
    nodes = tri.maximal
    size = tri.dims.m + tri.dims.n - 1
    facets: dict[int, list[int]] = {}
    for p, t in enumerate(nodes):
        mask = rest = t.mask
        if bin(mask).count("1") != size:
            raise ValueError(f"{t!r} is not tree-sized: {size} edges expected")
        while rest:
            low = rest & -rest
            facets.setdefault(mask ^ low, []).append(p)
            rest ^= low
    pairs = sorted(pair for ps in facets.values() for pair in combinations(ps, 2))
    arcs = []
    for a, b in pairs:
        move = classify_adjacency(nodes[a], nodes[b])
        if move is None:
            continue
        if move_filter(move):
            arcs.append((a, b))
        if move_filter(move.reversed_()):
            arcs.append((b, a))
    return PrecedenceDigraph(nodes, arcs)


def unique_minimal(local: LocalTriangulation, i0: int) -> Simplex:
    """The one maximal simplex whose tree paths from row i0 to every row are
    1-alternating with respect to the base."""
    if not any(i == i0 for i, _ in local.base):
        raise ValueError(f"base has no edge in row {i0}")
    hits = []
    for tau in local.maximal:
        if all(
            alternating_path(tau, local.base, i0, i, 1) is not None
            for i in range(local.dims.m)
        ):
            hits.append(tau)
    if len(hits) != 1:
        raise NoMinimal(
            f"{len(hits)} minimal candidates at base {local.base!r} (expected 1)"
        )
    return hits[0]


def free_equivalent(tau: Simplex, tau2: Simplex, i1: int) -> bool:
    """Whether the shared face keeps all rows but i1 in one component,
    which characterises equivalence under the order with row i1 free."""
    others = ((1 << tau.dims.m) - 1) & ~(1 << i1)
    if others & (others - 1) == 0:
        return True  # at most one row, which lies in some component
    return any(others & ~rows == 0 for rows in _edge_blocks(tau.dims, tau.mask & tau2.mask)[0])


def select_extremal(
    candidates: Iterable[Simplex],
    digraph: PrecedenceDigraph,
    direction: str,
) -> Simplex:
    """Canonical extremal member of the candidates in the digraph's quasiorder.

    direction is "min" or "max"; ties inside or across incomparable classes
    break by the canonical simplex order."""
    cands = sorted(set(candidates))
    if not cands:
        raise EmptyInput("no candidates")
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    for tau in cands:
        if direction == "max":
            dominated = any(
                digraph.strictly_below(tau, other) for other in cands if other != tau
            )
        else:
            dominated = any(
                digraph.strictly_below(other, tau) for other in cands if other != tau
            )
        if not dominated:
            return tau
    raise RuntimeError("quasiorder has no extremal element")  # pragma: no cover
