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

from .core import Dims, Simplex, _bits, _edge_blocks, row_neighbors
from .triangulation import LocalTriangulation, _holders, _maximal_members

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


def _order_holds(tri, i1: int, i2: int, order: Sequence[int]) -> bool:
    """Whether rows (i1, i2) of tri have the total order ``order``, a
    permutation of the columns, decided by face queries (``_holders``)
    with no pass over the trees: 2n single-edge ones, whose holder bitsets
    a cell ANDs and an inverted pair meets.  It holds when

    * each cell of the order's staircase is held: cell k has row i2 on
      ``order[:k+1]`` and row i1 on ``order[k:]``; and
    * no tree holds an inverted pair {(i1, a), (i2, b)}, a before b.

    Lemma: when both hold, for any collection of trees,
    ``restriction_order(tri, i1, i2).as_total() == order``, so a true
    answer never differs from a read.  A two-row image with row-i1
    columns A and row-i2 columns B holds no inverted pair, so every b of B
    comes no later than every a of A, and the image lies in cell k for any
    k between the last b and the first a (cell 0 or n-1 when B or A is
    empty).  Each cell is held, so it is itself an image, and the cells,
    all of n+1 edges, contain one another only when equal.  So the maximal
    images are exactly the cells, and the segment walk of the cells labels
    them ``order``.  On a triangulation the converse holds too: it
    restricts to a triangulation of the two-row face, the staircase of one
    column order (De Loera, Rambau and Santos, *Triangulations*, 2010).
    On other collections a false answer says nothing, and the caller
    reads."""
    n = tri.dims.n
    s1, s2 = i1 * n, i2 * n
    one = [_holders(tri, 1 << (s1 + j)) for j in order]  # holders of (i1, j)
    two = [_holders(tri, 1 << (s2 + j)) for j in order]
    tails = []  # from the last column: the holders of row i1 on order[k:]
    held, later = -1, 0  # later: the holders of (i2, b), b after column k
    for a, b in zip(reversed(one), reversed(two)):
        if a & later:  # an inverted pair
            return False
        later |= b
        held &= a
        tails.append(held)
    held = -1
    for b, tail in zip(two, reversed(tails)):
        held &= b  # the holders of row i2 on order[:k+1]
        if not held & tail:  # cell k
            return False
    return True


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


def _move_masks(dims, a: int, b: int):
    """The crossing from tree mask a to tree mask b, two members that share
    m + n - 2 edges, as (I1, I2, J1, J2, leaving, entering) with row and
    column masks, or None; ValueError if the shared face is a spanning
    forest but a member has not exactly one edge outside it.  I1 and I2
    partition the rows.  No circuit search is needed: two trees meet
    properly exactly when the leaving edge runs from side 1 to side 2 and
    the entering edge back."""
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
    when chains lead both ways.  A node's successor bitset is made the
    first time a reach search expands the node, and the positions a node
    reaches the first time a query asks about it; both are kept on the
    digraph.  ``PrecedenceDigraph(nodes, arcs)`` takes its arcs as given;
    ``build_precedence`` gives a digraph whose successors come from a run
    state's neighbour lists, so ``select_extremal`` expands only the trees
    its candidates reach.  ``node_index`` and ``arcs`` are made on first
    read, and reading ``arcs`` expands every node.
    """

    __slots__ = ("nodes", "_position", "_succ", "_expand", "_reach", "_node_index", "_arcs")

    def __init__(self, nodes: Sequence[Simplex], arcs: Iterable[tuple[int, int]]):
        nodes = tuple(nodes)
        arcs = frozenset(arcs)
        succ: list[Optional[int]] = [0] * len(nodes)
        for a, b in arcs:
            succ[a] |= 1 << b
        self._start(nodes, {t.mask: p for p, t in enumerate(nodes)}, succ, None)
        self._arcs = arcs

    @classmethod
    def _lazy(
        cls, nodes: tuple, position: dict[int, int], expand: Callable[[int], int]
    ) -> "PrecedenceDigraph":
        """The digraph whose node at each position gets its successor
        bitset from ``expand`` when first expanded; ``position`` maps each
        node's mask to its position."""
        dg = cls.__new__(cls)
        dg._start(nodes, position, [None] * len(nodes), expand)
        return dg

    def _start(self, nodes, position, succ, expand) -> None:
        self.nodes = nodes
        self._position = position
        self._succ = succ
        self._expand = expand
        self._reach: dict[int, int] = {}
        self._node_index = self._arcs = None

    @property
    def node_index(self) -> dict[Simplex, int]:
        if self._node_index is None:
            self._node_index = {t: p for p, t in enumerate(self.nodes)}
        return self._node_index

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The position pairs (a, b) of the arcs a -> b."""
        if self._arcs is None:
            succ, arcs = self._succ, []
            for a in range(len(self.nodes)):
                if succ[a] is None:
                    succ[a] = self._expand(a)
                rest = succ[a]
                while rest:
                    low = rest & -rest
                    rest ^= low
                    arcs.append((a, low.bit_length() - 1))
            self._arcs = frozenset(arcs)
        return self._arcs

    def _reach_of(self, p: int) -> int:
        """Bitset of the positions reachable from position p, p included."""
        reach = self._reach.get(p)
        if reach is None:
            succ, expand = self._succ, self._expand
            reach = todo = 1 << p
            while todo:
                low = todo & -todo
                todo ^= low
                q = low.bit_length() - 1
                out = succ[q]
                if out is None:
                    out = succ[q] = expand(q)
                new = out & ~reach
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

    ``links`` maps each member of the last collection, a tree mask, to its
    neighbour list: each member that meets it properly, mapped to the
    entering-side row mask of the crossing from it to that member; the
    leaving side is the other rows.  ``facets`` maps each facet of a
    member, the tree minus one edge, to the masks of the members holding
    it.  Both depend only on the masks and the dims, so ``update`` refuses
    collections of other dims.

    ``update`` carries both over to a new collection by the members that
    left and those that came in, changing the neighbour lists in place: a
    digraph built on the state is read before the state's next update.  It
    checks that each arriving member is tree-sized (m+n-1 edges),
    ValueError otherwise, and classifies a pair with ``_move_masks`` when
    the two first share a facet in the collection.  Two trees share at most
    one facet, so each pair is classified once while both stay.  A run
    keeps one state: its mirrored cases name their rows and work on the
    same collection.
    """

    __slots__ = ("dims", "facets", "links")

    def __init__(self, dims):
        self.dims = dims
        self.facets: dict[int, list[int]] = {}
        self.links: dict[int, dict[int, int]] = {}

    def update(self, dims, masks: set[int]) -> None:
        if dims != self.dims:
            raise ValueError(f"run state of {self.dims} given a collection of {dims}")
        facets, links = self.facets, self.links
        arriving = masks.difference(links)
        size = dims.m + dims.n - 1
        for x in arriving:
            if x.bit_count() != size:
                tau = Simplex(dims, x)
                raise ValueError(f"{tau!r} is not tree-sized: {size} edges expected")
        leaving = links.keys() - masks
        for x in leaving:
            for y in links.pop(x):
                if y not in leaving:
                    del links[y][x]
            rest = x
            while rest:
                low = rest & -rest
                rest ^= low
                holders = facets[x ^ low]
                if len(holders) == 1:
                    del facets[x ^ low]
                else:
                    holders.remove(x)
        full = (1 << dims.m) - 1
        for x in arriving:
            mine = {}
            rest = x
            while rest:
                low = rest & -rest
                rest ^= low
                holders = facets.get(x ^ low)
                if holders is None:
                    facets[x ^ low] = [x]
                    continue
                for y in holders:
                    move = _move_masks(dims, x, y) if x < y else _move_masks(dims, y, x)
                    if move is not None:
                        entering = mine[y] = move[1] if x < y else full ^ move[1]
                        links[y][x] = full ^ entering
                holders.append(x)
            links[x] = mine


def build_precedence(
    tri, move_filter: MoveFilter, adjacency: Optional[_Adjacency] = None
) -> PrecedenceDigraph:
    """Digraph over the collection's maximal simplices with the accepted moves.

    The members must be tree-sized (m+n-1 edges each); the run state raises
    ValueError when one that is not arrives.  Two such trees are adjacent
    only if they share a facet, the tree minus one edge, so the run state's
    facet index hands ``_move_masks`` just the pairs that share one:
    O(T(m+n)) instead of O(T^2).  The digraph makes a node's successors from
    its neighbour list when a reach search first expands it, so a call costs
    O(T) until its digraph is queried.  ``move_filter`` is called at most
    once per call for each distinct row split (I1, I2) among the crossings;
    reading ``arcs`` expands every node, which hands it all of them, both
    directions of every adjacent pair included.

    ``adjacency`` is the state of a run on the collection's dims (each
    ``connect`` keeps one): its facet index and neighbour lists follow the
    collection from the previous call, and only pairs that come to share a
    facet are classified.  All of it depends on nothing but the masks, so
    the arcs are those a fresh state gives; without one, a fresh state is
    used.  The digraph reads the state's neighbour lists, which the next
    update changes in place, so it is read before the state's next update.
    """
    nodes = tri.maximal
    dims = tri.dims
    masks = [t.mask for t in nodes]
    run = _Adjacency(dims) if adjacency is None else adjacency
    run.update(dims, set(masks))
    position = dict(zip(masks, range(len(masks))))
    links = run.links
    neighbours = [links[x] for x in masks]
    full = (1 << dims.m) - 1
    accepts: dict[int, bool] = {}  # the filter's verdict by entering side

    def expand(p: int) -> int:
        succ = 0
        for y, entering in neighbours[p].items():
            accept = accepts.get(entering)
            if accept is None:
                accept = accepts[entering] = move_filter(full ^ entering, entering)
            if accept:
                succ |= 1 << position[y]
        return succ

    return PrecedenceDigraph._lazy(tuple(nodes), position, expand)


def _alternating_from(dims, mask: int, base: int, i0: int) -> bool:
    """Whether the tree paths of the tree mask from row i0 to every row
    are 1-alternating with respect to the base mask: their first, third,
    ... edges, each from a row to a column, lie in the base.

    One search from row i0 reaches every row.  A row-to-column edge is an
    odd edge of the path to each row that its column leads on to, so it
    must lie in the base exactly when the column has a row beyond it; a
    leaf column lies on no row-to-row path.  The search meets rows and
    columns in the order ``tree_path`` does, so each row's path is the one
    ``alternating_path`` tests."""
    m, n = dims
    full = (1 << n) - 1
    slices = [(mask >> (i * n)) & full for i in range(m)]
    rows = 1 << i0
    cols = 0
    todo = [i0]
    for r in todo:
        fresh = slices[r] & ~cols
        cols |= fresh
        based = (base >> (r * n)) & full
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            for i in range(m):
                if slices[i] & low and not rows >> i & 1:
                    if not based & low:
                        return False
                    rows |= 1 << i
                    todo.append(i)
    return rows == (1 << m) - 1


def unique_minimal(local: LocalTriangulation, i0: int) -> Simplex:
    """The one maximal simplex whose tree paths from row i0 to every row are
    1-alternating with respect to the base, found by one search from row
    i0 per tree (``_alternating_from``)."""
    if not any(i == i0 for i, _ in local.base):
        raise ValueError(f"base has no edge in row {i0}")
    dims, base = local.dims, local.base.mask
    hits = [tau for tau in local.maximal if _alternating_from(dims, tau.mask, base, i0)]
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
    incomparable classes.

    Candidates are tried in that order, each by bit operations over the
    candidates' positions: one reach search from the candidate, and one
    from each other candidate it reaches, to see whether that one reaches
    it back.  So only the trees those searches reach are expanded."""
    cands = sorted(set(candidates))
    if not cands:
        raise EmptyInput("no candidates")
    position = digraph._position
    spots = [position[t.mask] for t in cands]
    among = sum(1 << p for p in spots)
    for tau, p in zip(cands, spots):
        above = digraph._reach_of(p) & among & ~(1 << p)
        while above:
            low = above & -above
            above ^= low
            if not digraph._reach_of(low.bit_length() - 1) >> p & 1:
                break  # tau lies strictly below that candidate
        else:
            return tau
    raise RuntimeError("quasiorder has no extremal element")  # pragma: no cover
