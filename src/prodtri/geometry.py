"""Exact rational geometry for the oracle.

Vertices embed as 0/1 vectors: (i, j) maps to the concatenation of the
i-th row unit vector and the j-th column unit vector, with the last row
and column coordinates dropped so the product polytope is full-dimensional
over the integer lattice.  Everything here is integer arithmetic:
determinants by Bareiss elimination and feasibility by Edmonds' integer
pivoting, both fraction-free with exact divisions; no floats anywhere.
"""

from __future__ import annotations

from math import lcm
from numbers import Rational
from typing import Sequence

from .core import Dims, Simplex


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


def feasible_eq_nonneg(A: Sequence[Sequence[Rational]], b: Sequence[Rational]) -> bool:
    """Is there x >= 0 with Ax = b?  Phase-one simplex with Bland's rule.

    Each row (A_r, b_r) is scaled by the lcm of its entries' denominators,
    so ``int`` and ``Fraction`` data are both accepted, and the tableau is
    then pivoted on integers (Edmonds, *J. Res. NBS* 71B, 1967).  Every
    entry, the objective row's included, is ``det`` times the entry of the
    rational tableau, where ``det`` is the last pivot (1 at the start).  A
    pivot on (leave, enter) keeps its row and maps each other row x to
    ``(x * piv - x[enter] * prow) // det``, then sets ``det = piv``.  The
    division is exact: each entry is, up to sign, a minor of the starting
    tableau, as in ``det_bareiss``.  Pivots are positive, so every sign and
    ratio, and so every pivot, is that of the rational tableau on the scaled
    rows.
    """
    m = len(A)
    if m == 0:
        return True
    n = len(A[0])
    tab = []
    for r in range(m):
        row = [*A[r], b[r]]
        scale = lcm(*(x.denominator for x in row))
        row = [x.numerator * (scale // x.denominator) for x in row]
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


# Verdicts of improper_geometric, shared by every call in the process: the
# oracle checks the same simplex pairs over and over across corpus members.
# The cache is emptied when it reaches the bound, which lies above the
# 13,152 pairs that the oracle-agreement acceptance test leaves: every
# corpus member up to 4x3 and 10,000 small random collections.
_IMPROPER_CACHE_MAX = 1 << 15
_improper_cache: dict[tuple[int, int, int], bool] = {}


def improper_geometric(s1: Simplex, s2: Simplex) -> bool:
    """Exact test for a common point of the hulls outside the shared face.

    Searches for an affine dependence whose positive support lies in s1 and
    negative support in s2, normalised to put total weight -1 on the
    vertices only s2 has.  Feasibility of that system is exactly improper
    intersection.
    """
    if s1.dims != s2.dims:
        raise ValueError("dimension mismatch")
    a, b = s1.mask, s2.mask
    if a > b:
        a, b = b, a
    key = (s1.dims.n, a, b)
    hit = _improper_cache.get(key)
    if hit is not None:
        return hit
    dims = s1.dims
    e1, e2 = set(s1.edges), set(s2.edges)
    only1, only2, common = sorted(e1 - e2), sorted(e2 - e1), sorted(e1 & e2)
    # columns: lambda_v for only1, minus lambda_v for only2, split pair for common
    cols = [(v, +1) for v in only1] + [(v, -1) for v in only2]
    for v in common:
        cols += [(v, +1), (v, -1)]
    pts = {v: point(dims, *v) + (1,) for v in e1 | e2}
    rows = dims.m + dims.n - 1
    A = [[sgn * pts[v][r] for v, sgn in cols] for r in range(rows)]
    A.append([0] * len(only1) + [1] * len(only2) + [0] * (2 * len(common)))
    bvec = [0] * rows + [1]
    res = bool(only2) and feasible_eq_nonneg(A, bvec)
    if len(_improper_cache) >= _IMPROPER_CACHE_MAX:
        _improper_cache.clear()
    _improper_cache[key] = res
    return res
