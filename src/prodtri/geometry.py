"""Exact rational geometry for the oracle.

Vertices embed as 0/1 vectors: (i, j) maps to the concatenation of the
i-th row unit vector and the j-th column unit vector, with the last row
and column coordinates dropped so the product polytope is full-dimensional
over the integer lattice.  Everything here is integer arithmetic:
determinants by Bareiss elimination and feasibility by Edmonds' integer
pivoting, both fraction-free with exact divisions; no floats anywhere.
Before the feasibility search, ``improper_geometric`` eliminates the
weights of the vertices two simplices share, which are free, one integer
pivot each; on these points every such pivot is +1 or -1.
"""

from __future__ import annotations

from typing import Sequence

from .core import Dims, Simplex, _edges_of


def point(dims: Dims, i: int, j: int) -> tuple[int, ...]:
    m, n = dims
    row = [0] * (m - 1)
    col = [0] * (n - 1)
    if i < m - 1:
        row[i] = 1
    if j < n - 1:
        col[j] = 1
    return tuple(row + col)


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
    """Normalized lattice volume of the simplex; 0 if degenerate or small."""
    dims = simplex.dims
    d = dims.m + dims.n - 2
    pts = [point(dims, i, j) for i, j in simplex]
    if len(pts) != d + 1:
        return 0
    rows = [[pts[r][c] - pts[0][c] for c in range(d)] for r in range(1, d + 1)]
    return abs(det_bareiss(rows))


def feasible_eq_nonneg(A: Sequence[Sequence[int]], b: Sequence[int]) -> bool:
    """Is there x >= 0 with Ax = b?  Phase-one simplex with Bland's rule.

    The entries must be ``int`` (``TypeError`` otherwise; a rational system
    is scaled to integers row by row first, which keeps its solutions), and
    the tableau is pivoted on integers (Edmonds, *J. Res. NBS* 71B, 1967).
    Every entry, the objective row's included, is ``det`` times the entry of
    the rational tableau, where ``det`` is the last pivot (1 at the start).
    A pivot on (leave, enter) keeps its row and maps each other row x to
    ``(x * piv - x[enter] * prow) // det``, then sets ``det = piv``.  The
    division is exact: each entry is, up to sign, a minor of the starting
    tableau, as in ``det_bareiss``.  Pivots are positive, so every sign and
    ratio, and so every pivot, is that of the rational tableau.
    """
    m = len(A)
    if m == 0:
        return True
    n = len(A[0])
    tab = []
    for r in range(m):
        row = [*A[r], b[r]]
        if not all(isinstance(x, int) for x in row):
            raise TypeError(f"row {r} of the system has an entry that is not an int")
        if row[-1] < 0:
            row = [-x for x in row]
        tab.append(row[:n] + [int(k == r) for k in range(m)] + row[n:])
    # reduced costs for min(sum of artificials): column sums minus the unit
    # cost of the artificial columns, which leaves those columns 0
    obj = [sum(col) for col in zip(*tab)]
    obj[n : n + m] = [0] * m
    basis = [n + r for r in range(m)]
    det = 1
    while True:
        enter = next((c for c in range(n + m) if obj[c] > 0), None)
        if enter is None:
            break
        # least ratio rhs / entry, compared across rows by cross-multiplying
        leave = None
        for r in range(m):
            a = tab[r][enter]
            if a > 0:
                if leave is None:
                    leave = r
                    continue
                lhs = tab[r][-1] * tab[leave][enter]
                rhs = tab[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
        if leave is None:
            # phase-one objective is bounded; unbounded column means a bug
            raise ArithmeticError("unbounded phase-one simplex")
        prow = tab[leave]
        piv = prow[enter]
        for r in range(m):
            f = tab[r][enter]
            # a row with f = 0 only rescales by piv / det
            if r != leave and (f or piv != det):
                tab[r] = [(x * piv - f * y) // det for x, y in zip(tab[r], prow)]
        f = obj[enter]
        obj = [(x * piv - f * y) // det for x, y in zip(obj, prow)]
        det = piv
        basis[leave] = enter
    return obj[-1] == 0


def _dependence_system(dims: Dims, a: int, b: int) -> tuple[list[list[int]], list[int]]:
    """The rows ``(A, b)`` that ``improper_geometric`` hands the simplex.

    The unknown of a column is a vertex's weight, and the column is the
    vertex's homogenised point, negated for a vertex only ``b`` holds; the
    last row puts total weight 1 on those vertices.  Each shared vertex
    starts as a free column and is eliminated first: a row where it is
    nonzero is pivoted into every other row and dropped with it.
    """
    m, n = dims
    d = m + n - 2
    free = list(_edges_of(n, a & b))
    cols = [(v, 1) for v in free]
    cols += [(v, 1) for v in _edges_of(n, a & ~b)]
    cols += [(v, -1) for v in _edges_of(n, b & ~a)]
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
            continue  # zero in every row: the shared vertices hold a cycle
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


def improper_geometric(s1: Simplex, s2: Simplex) -> bool:
    """Exact test for a common point of the hulls outside the shared face.

    Searches for an affine dependence whose positive support lies in s1 and
    negative support in s2, normalised to put total weight -1 on the
    vertices only s2 has.  Feasibility of that system is exactly improper
    intersection.

    A shared vertex's weight has no sign constraint.  Rather than split it
    into two nonnegative columns, ``_dependence_system`` eliminates it: in
    the row it pivots on, the free weight is fixed by the others, so putting
    that value into every other row (``x * piv - f * prow``, an invertible
    integer combination) and dropping the row leaves a system in the other
    weights with the same solutions.  A column that is zero in every
    remaining row constrains nothing and is skipped.  So the simplex sees
    one nonnegative column per vertex only one simplex holds, and the verdict
    is the split-column system's.

    Every pivot is +1 or -1, so no entry grows.  The coordinate rows are the
    incidence vectors of the row classes i < m - 1, the column classes
    j < n - 1 and the whole vertex set: two laminar families (the row classes
    with the whole set, and the column classes), whose incidence matrix is
    totally unimodular, and column signs keep it so.  A pivot on a +-1 entry
    of a totally unimodular matrix leaves one, with every entry in
    {-1, 0, 1}.  The normalising row is 0 on the shared columns, so no
    elimination pivots on it or changes it.
    """
    if s1.dims != s2.dims:
        raise ValueError("dimension mismatch")
    a, b = s1.mask, s2.mask
    return bool(b & ~a) and feasible_eq_nonneg(*_dependence_system(s1.dims, a, b))
