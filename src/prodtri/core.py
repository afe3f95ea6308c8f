"""Vertices, simplices and circuits of a product of two simplices.

A vertex of the product of an (m-1)-simplex and an (n-1)-simplex is a pair
(row, col) and doubles as an edge of the complete bipartite graph on
m row-vertices and n column-vertices.  A set of such pairs is affinely
independent exactly when it is cycle-free as an edge set, so simplices are
forests and maximal simplices are spanning trees.

Conventions used throughout the package:

* rows are 0..m-1 and columns 0..n-1 (human-facing I/O is 1-based,
  see ``prodtri.io``);
* an edge (i, j) occupies bit  i*n + j  of a fixed-width bitmask;
* graph vertices are encoded as integers: row i is vertex i, column j is
  vertex m + j.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional


class NotACycle(ValueError):
    """Edge set handed to circuit construction is not one simple cycle."""


class Dims(NamedTuple):
    m: int
    n: int

    def check(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"dims must be positive, got {self}")
        return self


def _edge_bit(n: int, i: int, j: int) -> int:
    return 1 << (i * n + j)


def _edges_of(n: int, mask: int):
    while mask:
        low = mask & -mask
        p = low.bit_length() - 1
        yield divmod(p, n)
        mask ^= low


class Simplex:
    """An affinely independent vertex set, stored as an edge bitmask.

    Instances are immutable values: all set operations return new objects.
    Ordering and hashing use the bitmask, which gives the canonical order
    used everywhere (lexicographic by (row, col) of the edge list).
    """

    __slots__ = ("dims", "mask")

    def __init__(self, dims: Dims, mask: int = 0):
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, *a):
        raise AttributeError("Simplex is immutable")

    @classmethod
    def from_edges(cls, dims: Dims, edges: Iterable[tuple[int, int]]) -> "Simplex":
        dims = Dims(*dims).check()
        mask = 0
        for i, j in edges:
            if not (0 <= i < dims.m and 0 <= j < dims.n):
                raise ValueError(f"edge ({i},{j}) out of range for {dims}")
            mask |= _edge_bit(dims.n, i, j)
        return cls(dims, mask)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(_edges_of(self.dims.n, self.mask))

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, edge) -> bool:
        i, j = edge
        return bool(self.mask & _edge_bit(self.dims.n, i, j))

    def __iter__(self):
        return _edges_of(self.dims.n, self.mask)

    def issubset(self, other: "Simplex") -> bool:
        return self.mask & ~other.mask == 0

    def union(self, other: "Simplex") -> "Simplex":
        return Simplex(self.dims, self.mask | other.mask)

    def intersection(self, other: "Simplex") -> "Simplex":
        return Simplex(self.dims, self.mask & other.mask)

    def difference(self, other: "Simplex") -> "Simplex":
        return Simplex(self.dims, self.mask & ~other.mask)

    def with_edge(self, i: int, j: int) -> "Simplex":
        return Simplex(self.dims, self.mask | _edge_bit(self.dims.n, i, j))

    def without_edge(self, i: int, j: int) -> "Simplex":
        return Simplex(self.dims, self.mask & ~_edge_bit(self.dims.n, i, j))

    def __eq__(self, other):
        return (
            isinstance(other, Simplex)
            and self.dims == other.dims
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash(self.mask)

    def __lt__(self, other: "Simplex"):
        return self.mask < other.mask

    def __repr__(self):
        pts = ",".join(f"{i + 1}x{j + 1}" for i, j in self.edges)
        return f"Simplex[{pts or 'empty'}]"


def row_neighbors(simplex: Simplex, i: int) -> frozenset[int]:
    """Columns adjacent to row i in the forest of the simplex."""
    n = simplex.dims.n
    row = (simplex.mask >> (i * n)) & ((1 << n) - 1)
    return frozenset(j for j in range(n) if row >> j & 1)


def col_neighbors(simplex: Simplex, j: int) -> frozenset[int]:
    """Rows adjacent to column j in the forest of the simplex."""
    return frozenset(
        i for i in range(simplex.dims.m) if simplex.mask >> (i * simplex.dims.n + j) & 1
    )


def _bits(x: int) -> frozenset[int]:
    """Positions of the set bits of x."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return frozenset(out)


def _edge_blocks(dims, mask: int) -> tuple[list[int], list[int]]:
    """The connected components of an edge mask that have edges, as a list
    of row bits and the matching list of column bits, read off the row
    slices: a row joins every block whose columns meet its slice.  Blocks
    keep pairwise disjoint columns, so one pass over the rows closes them;
    being disjoint, the masks of either list sum to their union."""
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


def _regular(dims, mask: int, k: int) -> Optional[tuple[int, int]]:
    """The row bits and column bits that the edges of mask meet, when each
    of those rows and columns meets exactly k (1 or 2) of them; else None."""
    m, n = dims
    full = (1 << n) - 1
    rows = once = twice = more = 0  # columns meeting at least 1, 2, 3 edges
    for i in range(m):
        row = (mask >> (i * n)) & full
        if row:
            if row.bit_count() != k:
                return None
            rows |= 1 << i
            more |= twice & row
            twice |= once & row
            once |= row
    exact = once & ~twice if k == 1 else twice & ~more
    return (rows, once) if exact == once else None


def components(simplex: Simplex) -> tuple[frozenset[int], ...]:
    """Connected components of the forest, as sets of graph vertices.

    Isolated vertices form singleton components; the result covers all
    m + n vertices and is sorted by smallest member.
    """
    m, n = simplex.dims
    rows_of, cols_of = _edge_blocks(simplex.dims, simplex.mask)
    comps = [_bits(r | c << m) for r, c in zip(rows_of, cols_of)]
    covered = sum(rows_of) | sum(cols_of) << m
    comps += [frozenset((v,)) for v in range(m + n) if not covered >> v & 1]
    return tuple(sorted(comps, key=min))


def is_forest(simplex: Simplex) -> bool:
    """Each block of the edges has one edge fewer than it has vertices."""
    rows_of, cols_of = _edge_blocks(simplex.dims, simplex.mask)
    spanned = sum(rows_of).bit_count() + sum(cols_of).bit_count()
    return len(simplex) == spanned - len(rows_of)


def is_spanning_tree(simplex: Simplex) -> bool:
    m, n = simplex.dims
    if len(simplex) != m + n - 1:
        return False
    rows_of, cols_of = _edge_blocks(simplex.dims, simplex.mask)
    return len(rows_of) == 1 and rows_of[0] == (1 << m) - 1 and cols_of[0] == (1 << n) - 1


def _shape_cols(simplex: Simplex) -> dict[int, frozenset[int]]:
    """Columns joined to two rows or more, with those rows."""
    m, n = simplex.dims
    full = (1 << n) - 1
    rows = [(simplex.mask >> (i * n)) & full for i in range(m)]
    out = {}
    for j in range(n):
        nb = frozenset(i for i in range(m) if rows[i] >> j & 1)
        if len(nb) > 1:
            out[j] = nb
    return out


def shape(simplex: Simplex) -> frozenset[frozenset[int]]:
    """Column neighborhoods of size > 1 (the cell type of the simplex)."""
    return frozenset(_shape_cols(simplex).values())


def tree_path(simplex: Simplex, u: int, v: int) -> Optional[tuple[tuple[int, int], ...]]:
    """The unique u-v path in the forest as an edge sequence, or None.

    Vertices are in graph encoding; an empty tuple is returned when u == v.
    The search from u reads the row slices: a row's columns are the bits of
    its slice, and a column's rows are the slices holding its bit.
    """
    if u == v:
        return ()
    m, n = simplex.dims
    full = (1 << n) - 1
    slices = [(simplex.mask >> (i * n)) & full for i in range(m)]
    prev = {u: u}
    todo = [u]
    for x in todo:
        if x < m:
            cols = slices[x]
            while cols:
                low = cols & -cols
                cols ^= low
                w = m + low.bit_length() - 1
                if w not in prev:
                    prev[w] = x
                    todo.append(w)
        else:
            bit = 1 << (x - m)
            for i in range(m):
                if slices[i] & bit and i not in prev:
                    prev[i] = x
                    todo.append(i)
        if v in prev:
            break
    else:
        return None
    path = []
    while v != u:
        x = prev[v]
        path.append((x, v - m) if x < m else (v, x - m))
        v = x
    path.reverse()
    return tuple(path)


def connecting_edges(simplex: Simplex, vertices: Iterable[int]) -> Simplex:
    """Smallest sub-forest whose single component contains all given vertices.

    The vertices must lie in one component of the forest.
    """
    verts = list(vertices)
    mask = 0
    n = simplex.dims.n
    for v in verts[1:]:
        path = tree_path(simplex, verts[0], v)
        if path is None:
            raise ValueError("vertices lie in different components")
        for i, j in path:
            mask |= _edge_bit(n, i, j)
    return Simplex(simplex.dims, mask)


class Circuit:
    """A signed cycle of the bipartite graph: a minimal affine dependence.

    ``minus`` and ``plus`` partition the edges of one simple cycle so that
    consecutive edges around the cycle fall on opposite sides.
    """

    __slots__ = ("dims", "minus_mask", "plus_mask")

    def __init__(self, dims: Dims, minus_mask: int, plus_mask: int):
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "minus_mask", minus_mask)
        object.__setattr__(self, "plus_mask", plus_mask)
        self._validate()

    def __setattr__(self, *a):
        raise AttributeError("Circuit is immutable")

    @classmethod
    def from_edges(cls, dims, minus, plus) -> "Circuit":
        dims = Dims(*dims).check()
        mm = Simplex.from_edges(dims, minus).mask
        pm = Simplex.from_edges(dims, plus).mask
        return cls(dims, mm, pm)

    def _validate(self):
        """One simple cycle whose edges alternate, read off the row slices:
        its edges form one block, every row and column it meets holds two of
        them, and minus meets the same rows and columns once each."""
        minus, plus = self.minus_mask, self.plus_mask
        if minus & plus:
            raise NotACycle("minus and plus overlap")
        lines = _regular(self.dims, minus | plus, 2)
        if lines is None or len(_edge_blocks(self.dims, minus | plus)[0]) != 1:
            raise NotACycle("edges do not form a single simple cycle")
        if _regular(self.dims, minus, 1) != lines:
            raise NotACycle("cycle does not alternate between minus and plus")

    @property
    def minus(self) -> frozenset[tuple[int, int]]:
        return frozenset(_edges_of(self.dims.n, self.minus_mask))

    @property
    def plus(self) -> frozenset[tuple[int, int]]:
        return frozenset(_edges_of(self.dims.n, self.plus_mask))

    def __len__(self):
        return (self.minus_mask | self.plus_mask).bit_count()

    @property
    def size(self) -> int:
        """Number k of minus edges (= number of plus edges)."""
        return self.minus_mask.bit_count()

    def reverse(self) -> "Circuit":
        return Circuit(self.dims, self.plus_mask, self.minus_mask)

    def rows(self) -> frozenset[int]:
        return frozenset(i for i, _ in _edges_of(self.dims.n, self.minus_mask | self.plus_mask))

    def cols(self) -> frozenset[int]:
        return frozenset(j for _, j in _edges_of(self.dims.n, self.minus_mask | self.plus_mask))

    def cycle_sequence(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Rows (i_1..i_k) and columns (j_1..j_k) of the cycle, aligned so
        that minus edges are (i_r, j_r) and plus edges are (i_{r+1}, j_r).

        Starts from the lexicographically smallest minus edge.
        """
        minus = sorted(self.minus)
        plus_by_col = {j: i for i, j in self.plus}
        minus_by_row = {i: j for i, j in self.minus}
        i1, j1 = minus[0]
        rows, cols = [i1], [j1]
        while True:
            nxt_row = plus_by_col[cols[-1]]
            if nxt_row == i1:
                break
            rows.append(nxt_row)
            cols.append(minus_by_row[nxt_row])
        return tuple(rows), tuple(cols)

    def __eq__(self, other):
        return (
            isinstance(other, Circuit)
            and self.dims == other.dims
            and self.minus_mask == other.minus_mask
            and self.plus_mask == other.plus_mask
        )

    def __hash__(self):
        return hash((self.dims, self.minus_mask, self.plus_mask))

    def __lt__(self, other: "Circuit"):
        return (self.minus_mask, self.plus_mask) < (other.minus_mask, other.plus_mask)

    def __repr__(self):
        f = lambda s: "{" + ",".join(f"{i + 1}x{j + 1}" for i, j in sorted(s)) + "}"
        return f"Circuit(minus={f(self.minus)}, plus={f(self.plus)})"


def circuit_of_cycle(dims: Dims, edges: Iterable[tuple[int, int]]) -> Circuit:
    """Sign a simple cycle, normalised so its smallest edge sits in minus.

    Without its smallest edge (i, j) the cycle is a path from column j to
    row i, whose edges are plus, minus, plus, ... in turn."""
    dims = Dims(*dims).check()
    cyc = Simplex.from_edges(dims, edges)
    if not cyc.mask:
        raise NotACycle("empty edge set")
    if _regular(dims, cyc.mask, 2) is None:
        raise NotACycle("some vertex does not have degree 2")
    i, j = cyc.edges[0]
    path = tree_path(cyc.without_edge(i, j), dims.m + j, i)
    if len(path) + 1 != len(cyc):
        raise NotACycle("edges are not a single connected cycle")
    return Circuit.from_edges(dims, ((i, j),) + path[1::2], path[::2])


def alternating_path(
    simplex: Simplex, xi: Simplex, u: int, v: int, b: int
) -> Optional[tuple[tuple[int, int], ...]]:
    """The u-v path of the forest if its b-th, (b+2)-th, ... edges lie in xi.

    b is 1 or 2; returns None when u and v are disconnected or the parity
    condition fails.  The empty path (u == v) always qualifies.
    """
    if b not in (1, 2):
        raise ValueError("b must be 1 or 2")
    path = tree_path(simplex, u, v)
    if path is None:
        return None
    for pos, edge in enumerate(path, start=1):
        if pos % 2 == b % 2 and edge not in xi:
            return None
    return path


def noncrossing(simplex: Simplex, row_order, col_order) -> bool:
    """No two edges cross when rows are drawn along one line in row_order
    and columns along a parallel line in reversed col_order."""
    m, n = simplex.dims
    if sorted(row_order) != list(range(m)) or sorted(col_order) != list(range(n)):
        raise ValueError("orders must be permutations of the rows/columns")
    rpos = {i: p for p, i in enumerate(row_order)}
    cpos = {j: p for p, j in enumerate(col_order)}
    edges = simplex.edges
    for a in range(len(edges)):
        ia, ja = edges[a]
        for b in range(a + 1, len(edges)):
            ib, jb = edges[b]
            if ia != ib and ja != jb:
                if (rpos[ia] - rpos[ib]) * (cpos[ja] - cpos[jb]) > 0:
                    return False
    return True
