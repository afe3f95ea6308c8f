"""Exact rational geometry for the oracle.

Vertices embed as 0/1 vectors: (i, j) maps to the concatenation of the
i-th row unit vector and the j-th column unit vector, with the last row
and column coordinates dropped so the product polytope is full-dimensional
over the integer lattice.  Everything here is integer arithmetic:
determinants by Bareiss elimination and feasibility by Edmonds' integer
pivoting, both fraction-free with exact divisions; no floats anywhere.
``simplex_volume`` writes each difference row straight from the edge bits.

``improper_geometric`` builds its system in closed form.  Kept whole, the
coordinates of (i, j) are row node i and column node m + j, so an affine
dependence is a weighting of the edges whose sums vanish at every node.
The weights of the shared vertices are free, and solving for them leaves
one condition per block of the shared edges over all m + n nodes: the
left kernel of a connected bipartite block's incidence matrix is spanned
by +1 on its rows and -1 on its columns.  Every entry is -1, 0 or 1, so
``_sign_rows`` writes each row as a pair of column bitsets, its +1 and its
-1 columns.  ``_presolve`` drops, on such rows, the columns that a
one-signed row with right-hand side 0 forces to 0 (the LP presolve step).
That alone decides every proper pair of spanning trees tried, and only a
system it leaves undecided is written densely, for ``_simplex``: a
phase-one simplex on what is left, which returns a witness of its verdict
that integer arithmetic rechecks.  ``feasible_eq_nonneg``, the public
kernel, reads a dense system into the same bitsets and runs the same two
steps, so no system is presolved twice.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import NamedTuple, Sequence, Union

from .core import Dims, Simplex, _edges_of


def det_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Integer determinant by fraction-free Gaussian elimination."""
    a = [list(r) for r in rows]
    k = len(a)
    if k == 0:
        return 1
    sign = 1
    prev = 1
    for c in range(k - 1):
        if a[c][c] == 0:
            for r in range(c + 1, k):
                if a[r][c] != 0:
                    a[c], a[r] = a[r], a[c]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(c + 1, k):
            for x in range(c + 1, k):
                a[r][x] = (a[r][x] * a[c][c] - a[r][c] * a[c][x]) // prev
            a[r][c] = 0
        prev = a[c][c]
    return sign * a[-1][-1]


def simplex_volume(simplex: Simplex) -> int:
    """Normalized lattice volume of the simplex; 0 if degenerate or small.

    The point of (i, j) is 1 at coordinate i and at m - 1 + j, each where
    it is kept, so the difference of (i, j) and the first vertex (i0, j0)
    adds 1 at those coordinates of (i, j) to -1 at those of (i0, j0)."""
    m, n = simplex.dims
    d = m + n - 2
    if simplex.mask.bit_count() != d + 1:
        return 0
    (i0, j0), *rest = _edges_of(n, simplex.mask)
    base = [0] * d
    if i0 < m - 1:
        base[i0] = -1
    if j0 < n - 1:
        base[m - 1 + j0] = -1
    rows = []
    for i, j in rest:
        row = base.copy()
        if i < m - 1:
            row[i] += 1
        if j < n - 1:
            row[m - 1 + j] += 1
        rows.append(row)
    return abs(det_bareiss(rows))


class Solution(NamedTuple):
    """Witness that ``Ax = b`` has a solution ``x >= 0``: integers with
    every ``x[c] >= 0`` and ``scale > 0`` such that ``Ax = scale * b``."""

    x: tuple[int, ...]
    scale: int


class Farkas(NamedTuple):
    """Witness that ``Ax = b`` has no solution ``x >= 0``: integers with
    ``yA <= 0`` in every column and ``yb > 0``, since then every ``x >= 0``
    has ``yAx <= 0 < yb`` (Farkas' lemma).  It is false, and a
    ``Solution`` true, so a witness's truth value is its verdict."""

    y: tuple[int, ...]

    def __bool__(self):
        return False


def feasible_eq_nonneg(A: Sequence[Sequence[int]], b: Sequence[int]) -> Union[Solution, Farkas]:
    """Is there x >= 0 with Ax = b?  A ``Solution`` if so, else a ``Farkas``.

    The entries must be ``int`` (``TypeError`` otherwise; a rational system
    is scaled to integers row by row first, which keeps its solutions), and
    every row of A as long as the first, with one entry of b per row
    (``ValueError`` naming the first row that breaks this otherwise).

    Each row is read into the bitsets of its positive and its negative
    columns for ``_presolve``.  With no row left x = 0 solves the system;
    a row left with no column has right-hand side nonzero, or it would
    have been dropped, so nothing solves it, and y starts as the sign of
    b_r on the first such row r, which ``_farkas`` completes.  Otherwise
    ``_simplex`` decides the rows and columns left.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if len(b) != m or any(len(row) != n for row in A):
        r = next((r for r in range(m) if len(A[r]) != n), min(m, len(b)))
        if r == len(b):
            raise ValueError(f"row {r} of the system has no right-hand side")
        if r == m:
            raise ValueError(f"row {r} of the system has a right-hand side and no entries")
        raise ValueError(f"row {r} of the system is {len(A[r])} long, row 0 is {n}")
    if not all(map(isinstance, chain(b, *A), repeat(int))):
        r = next(r for r in range(m) if not all(isinstance(x, int) for x in (*A[r], b[r])))
        raise TypeError(f"row {r} of the system has an entry that is not an int")
    rows = []
    for row in A:
        p = q = 0
        for c, x in enumerate(row):
            if x:
                if x > 0:
                    p |= 1 << c
                else:
                    q |= 1 << c
        rows.append([p, q])
    left, live, dropped = _presolve(rows, b, n)
    if not left:
        return Solution((0,) * n, 1)
    if live:
        return _simplex(A, b, left, live, dropped)
    y = [0] * m
    r = left[0]
    y[r] = 1 if b[r] > 0 else -1
    return _farkas(A, y, dropped)


def _presolve(
    rows: Sequence[Sequence[int]], b: Sequence[int], n: int
) -> tuple[list[int], int, list]:
    """The presolve of ``Ax = b, x >= 0`` on the sign bitsets of its rows.

    ``rows[r]`` is the pair (plus, minus) of the bitsets of the columns
    where row r of A is positive and negative, over n columns.  A row with
    right-hand side 0 whose nonzero entries on the remaining columns all
    have one sign forces those columns to 0, since x >= 0.  Such a row and
    its columns are dropped, pass after pass over the rows with right-hand
    side 0, until a pass drops none (Andersen and Andersen, *Math.
    Programming* 71, 1995).  A dropped row is 0 on every column left after
    it, so the rows and columns left decide the system.

    Returns the rows left in ascending order, the bitset of the columns
    left, and (row, the columns it forced to 0) for each dropped row in
    the order dropped, which is what ``_simplex`` and ``_farkas`` take.
    """
    zero = []  # the rows with right-hand side 0, with their signs
    left = []  # the rows with right-hand side nonzero, which stay
    for r, (p, q) in enumerate(rows):
        if b[r]:
            left.append(r)
        else:
            zero.append((r, p, q))
    live = (1 << n) - 1
    dropped = []
    while zero:
        rest = []
        for r, p, q in zero:
            p &= live
            q &= live
            if p and q:
                rest.append((r, p, q))
            else:
                dropped.append((r, p | q))
                live &= ~(p | q)
        if len(rest) == len(zero):
            break
        zero = rest
    left += [r for r, _, _ in zero]
    left.sort()
    return left, live, dropped


def _simplex(
    A: Sequence[Sequence[int]], b: Sequence[int], left: list[int], live: int, dropped: list
) -> Union[Solution, Farkas]:
    """The verdict and witness of ``Ax = b, x >= 0`` from the rows ``left``
    and the columns ``live`` that ``_presolve`` left, both nonempty.

    A phase-one simplex with Bland's rule, with one artificial column per
    row left.  The tableau is pivoted on integers (Edmonds, *J. Res. NBS*
    71B, 1967): every entry, the objective row's included, is ``det``
    times the entry of the rational tableau, where ``det`` is the last
    pivot (1 at the start).  A pivot on (leave, enter) keeps its row and
    maps each other row x to ``(x * piv - x[enter] * prow) // det``, then
    sets ``det = piv``.  The division is exact: each entry is, up to sign,
    a minor of the starting tableau, as in ``det_bareiss``.  Pivots are
    positive, so every sign and ratio, and so every pivot, is that of the
    rational tableau.

    A solution reads x off the basic rows of the final tableau, 0 on every
    dropped column, with ``scale = det``.  For infeasibility the simplex's
    optimal duals give y: with s_r the sign row r was multiplied by on
    entry, y_r = s_r (obj[artificial of r] + det), for which the objective
    row's signs are exactly yA <= 0 and yb > 0; ``_farkas`` completes it
    on the dropped rows.
    """
    n = len(A[0])
    cols = [c for c in range(n) if live >> c & 1]
    w, k = len(cols), len(left)
    tab = []
    for q, r in enumerate(left):
        row = A[r]
        unit = [0] * k
        unit[q] = 1
        if b[r] < 0:
            tab.append([-row[c] for c in cols] + unit + [-b[r]])
        else:
            tab.append([row[c] for c in cols] + unit + [b[r]])
    # reduced costs for min(sum of artificials): column sums minus the
    # unit cost of the artificial columns, which leaves those columns 0
    obj = [sum(col) for col in zip(*tab)]
    obj[w : w + k] = [0] * k
    basis = [w + q for q in range(k)]
    det = 1
    while True:
        enter = next((c for c in range(w + k) if obj[c] > 0), None)
        if enter is None:
            break
        # least ratio rhs / entry, compared across rows by cross-multiplying
        leave = None
        for q in range(k):
            a = tab[q][enter]
            if a > 0:
                if leave is None:
                    leave = q
                    continue
                lhs = tab[q][-1] * tab[leave][enter]
                rhs = tab[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[q] < basis[leave]):
                    leave = q
        if leave is None:
            # phase-one objective is bounded; unbounded column means a bug
            raise ArithmeticError("unbounded phase-one simplex")
        prow = tab[leave]
        piv = prow[enter]
        for q in range(k):
            f = tab[q][enter]
            # a row with f = 0 only rescales by piv / det
            if q != leave and (f or piv != det):
                tab[q] = [(x * piv - f * z) // det for x, z in zip(tab[q], prow)]
        f = obj[enter]
        obj = [(x * piv - f * z) // det for x, z in zip(obj, prow)]
        det = piv
        basis[leave] = enter
    if obj[-1] == 0:
        x = [0] * n
        for q in range(k):
            if basis[q] < w:
                x[cols[basis[q]]] = tab[q][-1]
        return Solution(tuple(x), det)
    y = [0] * len(A)
    for q, r in enumerate(left):
        y[r] = (obj[w + q] + det) if b[r] >= 0 else -(obj[w + q] + det)
    return _farkas(A, y, dropped)


def _farkas(A: Sequence[Sequence[int]], y: list[int], dropped: list) -> Farkas:
    """The ``Farkas`` witness made from y, which has yA <= 0 on the columns
    left and yb > 0, and is 0 on the dropped rows.

    The dropped rows are visited in reverse order, each given a multiplier
    of the sign opposite to its entries, just large enough to make yA <= 0
    on its own columns.  Its right-hand side is 0, so yb does not move, and
    it is 0 on the columns of every row dropped after it, so no column
    fixed before is undone.
    """
    ya = [0] * len(A[0])
    for yr, row in zip(y, A):
        if yr:
            ya = [u + yr * x for u, x in zip(ya, row)]
    for r, forced in reversed(dropped):
        row = A[r]
        need = 0
        while forced:
            low = forced & -forced
            c = low.bit_length() - 1
            if ya[c] > 0:
                need = max(need, -(-ya[c] // abs(row[c])))
            forced ^= low
        if need:
            # c is one of the row's own columns, so row[c] carries its sign
            y[r] = yr = -need if row[c] > 0 else need
            ya = [u + yr * x for u, x in zip(ya, row)]
    return Farkas(tuple(y))


def _sign_rows(dims: Dims, a: int, b: int) -> tuple[list[list[int]], int]:
    """The rows of the system ``improper_geometric`` decides, each as the
    pair (plus, minus) of its +1 and its -1 column bitsets, and the number
    of columns.  The last row has right-hand side 1, every other row 0.

    The unknown of a column is the weight of a vertex only one simplex
    holds, those only ``a`` holds first, and the last row puts total weight
    1 on those only ``b`` holds.

    Kept whole, the point of vertex (i, j) is e_i + f_j over the m row
    nodes and n column nodes, so an affine dependence is a weighting of the
    edges whose sums vanish at every node (the homogenising coordinate is
    the sum of the row coordinates, and the dropped coordinates follow from
    it).  The shared vertices' weights are free, so the other weights admit
    them exactly when the node sums those weights leave lie in the column
    space of the shared edges' incidence matrix, that is, are orthogonal to
    its left kernel.  Take the blocks of the shared edges over all m + n
    nodes, a node no shared edge meets being a block of its own.  A block K
    is connected and bipartite, so a y with y_u + y_v = 0 on each of its
    edges takes one value on K's rows and its negative on K's columns, and
    the left kernel is spanned by one vector per block, +1 on K's rows and
    -1 on K's columns.  A cycle among the shared edges changes nothing.  So
    there is one row per block: a vertex (i, j) only ``a`` holds is +1 on
    the row of i's block and -1 on that of j's, one only ``b`` holds the
    reverse, and a vertex with both ends in one block is 0 on every block
    row.

    Only the rows with a nonzero entry are made, in the order of their
    first one.  They sum to 0, so the last one made is dropped.  For a
    shared forest of k edges there are m + n - k blocks, so at most
    m + n - 1 - k rows come before the normalising one, as many as
    eliminating the shared weights one pivot at a time left, with the same
    solutions.

    The blocks come from one pass over the row slices of the shared mask:
    each row takes over the label of every column its slice meets, together
    with every node that label named.
    """
    m, n = dims
    shared = a & b
    full = (1 << n) - 1
    # label[i] names the block of row node i, label[m + j] of column node j
    label = list(range(m + n))
    for i in range(m):
        s = (shared >> (i * n)) & full
        while s:
            low = s & -s
            j = m + low.bit_length() - 1
            old = label[j]
            if old == j:
                label[j] = i  # a column no row met yet
            elif old != i:
                label = [i if k == old else k for k in label]
            s ^= low
    only_a, only_b = a & ~b, b & ~a
    rows = {}  # block -> [plus, minus], made at its first nonzero entry
    col = 1
    # a vertex only a holds is +1 at its row's block, one only b holds -1
    for mask, at_row in ((only_a, 0), (only_b, 1)):
        for i, j in _edges_of(n, mask):
            ki, kj = label[i], label[m + j]
            if ki != kj:
                row = rows.get(ki)
                if row is None:
                    row = rows[ki] = [0, 0]
                row[at_row] |= col
                row = rows.get(kj)
                if row is None:
                    row = rows[kj] = [0, 0]
                row[1 - at_row] |= col
            col <<= 1
    # the block rows sum to 0, so the last one made is redundant
    signs = list(rows.values())[:-1]
    wa = only_a.bit_count()
    w = wa + only_b.bit_count()
    signs.append([(1 << w) - (1 << wa), 0])
    return signs, w


def _dense(rows: Sequence[Sequence[int]], w: int) -> list[list[int]]:
    """The rows of A whose (plus, minus) column bitsets are ``rows``."""
    return [[(p >> c & 1) - (q >> c & 1) for c in range(w)] for p, q in rows]


def _dependence_system(dims: Dims, a: int, b: int) -> tuple[list[list[int]], list[int]]:
    """The dense view ``(A, b)`` of ``_sign_rows``: the system that
    ``improper_geometric`` decides, every entry -1, 0 or 1."""
    rows, w = _sign_rows(dims, a, b)
    return _dense(rows, w), [0] * (len(rows) - 1) + [1]


def improper_geometric(s1: Simplex, s2: Simplex) -> bool:
    """Exact test for a common point of the hulls outside the shared face.

    Searches for an affine dependence whose positive support lies in s1 and
    negative support in s2, normalised to put total weight -1 on the
    vertices only s2 has.  Feasibility of that system is exactly improper
    intersection.

    A shared vertex's weight has no sign constraint.  Rather than split it
    into two nonnegative columns, ``_sign_rows`` solves for the shared
    weights in closed form: the other weights admit them exactly when, for
    each block of the shared edges over the m + n row and column nodes, the
    weights of the vertices only s1 holds with one end in the block,
    counted +1 at a row end and -1 at a column end, balance those of the
    vertices only s2 holds.  So the system has one nonnegative column per
    vertex only one simplex holds, every entry in {-1, 0, 1}, and the
    verdict is the split-column system's.

    ``_presolve`` reads those rows as built.  A block row is one-signed
    when, say, every vertex only s1 holds with one end in the block has
    that end at a row, and every vertex only s2 holds has it at a column.
    Then all those weights are 0, and the columns left may give another
    such row.  On every proper pair of spanning trees at 3x3, 2x5, 4x3 and
    3x4 this leaves no column, and the pair is proper, since the
    normalising row is left.  Only a system with a column left is written
    densely for ``_simplex``, with the presolve's result.
    """
    if s1.dims != s2.dims:
        raise ValueError("dimension mismatch")
    a, b = s1.mask, s2.mask
    if not b & ~a:
        return False
    rows, w = _sign_rows(s1.dims, a, b)
    rhs = [0] * (len(rows) - 1) + [1]
    left, live, dropped = _presolve(rows, rhs, w)
    return bool(live) and isinstance(_simplex(_dense(rows, w), rhs, left, live, dropped), Solution)
