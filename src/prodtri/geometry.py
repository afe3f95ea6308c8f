"""Exact rational geometry for the oracle.

Vertices embed as 0/1 vectors: (i, j) maps to the concatenation of the
i-th row unit vector and the j-th column unit vector, with the last row
and column coordinates dropped so the product polytope is full-dimensional
over the integer lattice.  Everything here is integer or Fraction
arithmetic; no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
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


def feasible_eq_nonneg(A: list[list[Fraction]], b: list[Fraction]) -> bool:
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
    only1 = sorted(set(s1.edges) - set(s2.edges))
    only2 = sorted(set(s2.edges) - set(s1.edges))
    common = sorted(set(s1.edges) & set(s2.edges))
    # columns: lambda_v for only1, minus lambda_v for only2, split pair for common
    cols: list[tuple[tuple[int, ...], int]] = []
    for v in only1:
        cols.append((point(dims, *v) + (1,), +1))
    for v in only2:
        cols.append((point(dims, *v) + (1,), -1))
    for v in common:
        cols.append((point(dims, *v) + (1,), +1))
        cols.append((point(dims, *v) + (1,), -1))
    rows = len(point(dims, 0, 0)) + 1
    A = [[Fraction(sgn * vec[r]) for vec, sgn in cols] for r in range(rows)]
    bvec = [Fraction(0)] * rows
    A.append(
        [
            Fraction(1 if len(only1) <= k < len(only1) + len(only2) else 0)
            for k in range(len(cols))
        ]
    )
    bvec.append(Fraction(1))
    res = bool(only2) and feasible_eq_nonneg(A, bvec)
    _improper_cache[key] = res
    return res
