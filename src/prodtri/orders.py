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
from typing import Callable, Iterable, Optional, Sequence

from .core import Dims, Simplex, _bits, _edge_blocks, alternating_path, row_neighbors
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


def _segment_walk(dims, masks: Sequence[int]) -> tuple[list[int], list[int]]:
    """Order the edge masks of a segment product's trees (two rows, given
    in canonical order) by shrinking first-row degree, verify the
    single-swap chain between consecutive ones, and return the ordered
    masks with each one's label: the column joined to both rows.

    The chain leaves no two other masks adjacent: each step drops one
    first-row edge and adds one second-row edge, so masks k steps apart
    share all but k of their edges."""
    n = dims.n
    full = (1 << n) - 1
    taus = sorted(masks, key=lambda x: -(x & full).bit_count())
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


def classify_adjacency(tau: Simplex, tau2: Simplex) -> Optional[AdjacencyMove]:
    """Labelled partition of the shared facet of two adjacent trees, or None.

    Two tree-sized members need no circuit search.  If the two blocks of
    their shared face of m + n - 2 edges miss a row or column, the face holds
    a cycle, and so do both members; otherwise it is a spanning forest, and
    the members meet properly exactly when the leaving edge runs from side 1
    to side 2 and the entering edge back.  ``_move_masks`` decides it on the
    masks; this wrapper turns its row and column masks into sets.
    """
    m, n = tau.dims
    a, b = tau.mask, tau2.mask
    if (a == b and tau.dims == tau2.dims) or (a & b).bit_count() != m + n - 2:
        return None
    tree_sized = a.bit_count() == b.bit_count() == m + n - 1
    if not (tree_sized and tau.dims == tau2.dims) and not proper(tau, tau2):
        return None
    move = _move_masks(tau.dims, a, b)
    if move is None:
        return None
    r1, r2, c1, c2, leaving, entering = move
    return AdjacencyMove(_bits(r1), _bits(r2), _bits(c1), _bits(c2), leaving, entering)


def _move_masks(dims, a: int, b: int):
    """The crossing from tree mask a to tree mask b, two members that share
    m + n - 2 edges, as (I1, I2, J1, J2, leaving, entering) with row and
    column masks, or None; ValueError if the shared face is a spanning
    forest but a member has not exactly one edge outside it.  I1 and I2
    partition the rows."""
    m, n = dims
    sigma = a & b
    rows_of, cols_of = _edge_blocks(dims, sigma)
    if len(rows_of) != 2:
        return None
    r1, r2 = rows_of
    c1, c2 = cols_of
    if r1 | r2 != (1 << m) - 1 or c1 | c2 != (1 << n) - 1:
        return None  # the shared face holds a cycle
    out_a, out_b = a ^ sigma, b ^ sigma
    if out_a.bit_count() != 1 or out_b.bit_count() != 1:
        raise ValueError("each simplex must have one edge outside the shared face")
    li, lj = divmod(out_a.bit_length() - 1, n)
    ei, ej = divmod(out_b.bit_length() - 1, n)
    if not r1 >> li & 1:  # side 1 holds the leaving row
        r1, r2, c1, c2 = r2, r1, c2, c1
    if not (c2 >> lj & 1 and r2 >> ei & 1 and c1 >> ej & 1):
        return None
    return r1, r2, c1, c2, (li, lj), (ei, ej)


MoveFilter = Callable[[int, int], bool]
"""Accepts or refuses a facet crossing by its row split: the row masks I1
of the leaving side and I2 of the entering side.  Every order the
reduction uses is defined by the split alone."""


def toward_row(i: int) -> MoveFilter:
    """Moves whose entering side contains row i: bit i of I2."""

    def accept(I1: int, I2: int) -> bool:
        return bool(I2 >> i & 1)

    return accept


def toward_row_free(i1: int, i2: int) -> MoveFilter:
    """Moves toward row i2, plus free moves across ({i1}, the rest): bit
    i2 of I2 is set, or I1 or I2 is row i1 alone."""

    alone = 1 << i1

    def accept(I1: int, I2: int) -> bool:
        return bool(I2 >> i2 & 1) or I1 == alone or I2 == alone

    return accept


class PrecedenceDigraph:
    """Digraph of accepted facet crossings over a collection's trees.

    Its quasiorder is reachability: tau lies below-or-equivalent-to tau2
    when a chain of arcs leads from tau to tau2, and the two are equivalent
    when chains lead both ways.  The positions a node reaches are searched
    the first time a query asks about it and kept on the digraph, so
    ``select_extremal`` searches from its few candidates alone, not from
    every tree.
    """

    __slots__ = ("nodes", "node_index", "arcs", "_succ", "_reach")

    def __init__(self, nodes: Sequence[Simplex], arcs: Iterable[tuple[int, int]]):
        self.nodes = tuple(nodes)
        self.node_index = {t: p for p, t in enumerate(self.nodes)}
        self.arcs = frozenset(arcs)
        self._succ = [0] * len(self.nodes)
        for a, b in self.arcs:
            self._succ[a] |= 1 << b
        self._reach: dict[int, int] = {}

    def _reach_of(self, p: int) -> int:
        """Bitset of the positions reachable from position p, p included."""
        reach = self._reach.get(p)
        if reach is None:
            succ = self._succ
            reach = todo = 1 << p
            while todo:
                low = todo & -todo
                todo ^= low
                new = succ[low.bit_length() - 1] & ~reach
                reach |= new
                todo |= new
            self._reach[p] = reach
        return reach

    def reaches(self, tau: Simplex, tau2: Simplex) -> bool:
        """tau is below-or-equivalent-to tau2 in the generated quasiorder."""
        return bool(self._reach_of(self.node_index[tau]) >> self.node_index[tau2] & 1)

    def strictly_below(self, tau: Simplex, tau2: Simplex) -> bool:
        a, b = self.node_index[tau], self.node_index[tau2]
        return bool(self._reach_of(a) >> b & 1) and not self._reach_of(b) >> a & 1

    def equivalent(self, tau: Simplex, tau2: Simplex) -> bool:
        a, b = self.node_index[tau], self.node_index[tau2]
        return bool(self._reach_of(a) >> b & 1 and self._reach_of(b) >> a & 1)

    def is_acyclic(self) -> bool:
        """No arc (a, b) closes a cycle, one where b reaches a."""
        return not any(self._reach_of(b) >> a & 1 for a, b in self.arcs)


class _Adjacency:
    """What the precedence digraphs of one run share, for one dims.

    ``moves`` maps each adjacent pair of tree masks a < b met so far to the
    entering-side row mask I2 of the crossing from a to b, or to 0 when the
    two do not meet properly (an entering side is never empty); the leaving
    side is the other rows.  A classification depends only on the two masks
    and the dims, so entries of trees that have left stay valid, and
    ``update`` refuses collections of other dims.  Each state owns its
    moves.  ``facets`` maps each facet of a member of the last collection,
    the tree minus one edge, to the masks of the members holding it, and
    ``pairs`` holds the pairs a < b of members that share one; ``update``
    carries both over to a new collection by its members that left and
    those that came in.
    """

    __slots__ = ("dims", "members", "facets", "pairs", "moves")

    def __init__(self, dims):
        self.dims = dims
        self.members: set[int] = set()
        self.facets: dict[int, list[int]] = {}
        self.pairs: set[tuple[int, int]] = set()
        self.moves: dict[tuple[int, int], int] = {}

    def update(self, dims, masks: set[int]) -> None:
        if dims != self.dims:
            raise ValueError(f"run state of {self.dims} given a collection of {dims}")
        facets, pairs = self.facets, self.pairs
        for x in self.members - masks:
            rest = x
            while rest:
                low = rest & -rest
                rest ^= low
                holders = facets[x ^ low]
                holders.remove(x)
                for y in holders:
                    pairs.discard((x, y) if x < y else (y, x))
                if not holders:
                    del facets[x ^ low]
        for x in masks - self.members:
            rest = x
            while rest:
                low = rest & -rest
                rest ^= low
                holders = facets.setdefault(x ^ low, [])
                for y in holders:
                    pairs.add((x, y) if x < y else (y, x))
                holders.append(x)
        self.members = masks


def build_precedence(
    tri, move_filter: MoveFilter, adjacency: Optional[_Adjacency] = None
) -> PrecedenceDigraph:
    """Digraph over the collection's maximal simplices with the accepted moves.

    The members must be tree-sized (m+n-1 edges each); ValueError otherwise.
    Two such trees are adjacent only if they share a facet, the tree minus
    one edge, so a facet index hands ``_move_masks`` just the pairs that
    share one: O(T(m+n)) instead of O(T^2), with the same arcs.
    ``move_filter`` is called once per call for each distinct row split
    (I1, I2) among the crossings, both directions of every adjacent pair
    included.

    ``adjacency`` is the state of a run on the collection's dims (each
    ``connect`` keeps its own): its facet index follows the collection from
    the previous call, and only pairs not yet in its moves are classified.
    Both depend on nothing but the masks, so the arcs are those a fresh
    state gives; without one, a fresh state is used.
    """
    nodes = tri.maximal
    dims = tri.dims
    size = dims.m + dims.n - 1
    for t in nodes:
        if t.mask.bit_count() != size:
            raise ValueError(f"{t!r} is not tree-sized: {size} edges expected")
    run = _Adjacency(dims) if adjacency is None else adjacency
    run.update(dims, {t.mask for t in nodes})
    position = {t.mask: p for p, t in enumerate(nodes)}
    moves = run.moves
    full = (1 << dims.m) - 1
    accepts: dict[int, bool] = {}  # the filter's verdict by entering side
    arcs = []
    for pair in run.pairs:
        I2 = moves.get(pair)
        if I2 is None:
            move = _move_masks(dims, *pair)
            I2 = moves[pair] = 0 if move is None else move[1]
        if not I2:
            continue
        I1 = full ^ I2
        forward = accepts.get(I2)
        if forward is None:
            forward = accepts[I2] = move_filter(I1, I2)
        backward = accepts.get(I1)
        if backward is None:
            backward = accepts[I1] = move_filter(I2, I1)
        a, b = position[pair[0]], position[pair[1]]
        if forward:
            arcs.append((a, b))
        if backward:
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


def select_extremal(candidates: Iterable[Simplex], digraph: PrecedenceDigraph) -> Simplex:
    """Canonical maximal member of the candidates in the digraph's
    quasiorder: the first in canonical simplex order that lies strictly
    below no other candidate, which breaks ties inside or across
    incomparable classes."""
    cands = sorted(set(candidates))
    if not cands:
        raise EmptyInput("no candidates")
    for tau in cands:
        if not any(digraph.strictly_below(tau, other) for other in cands if other != tau):
            return tau
    raise RuntimeError("quasiorder has no extremal element")  # pragma: no cover
