"""Triangulations of the product as canonical sets of spanning trees.

A collection of spanning trees is a triangulation exactly when the trees
pairwise intersect properly and there are C(m+n-2, m-1) of them: the product
polytope is totally unimodular, every tree simplex has unit normalized
volume, and the volumes add up to the binomial.  ``validate`` checks these
three combinatorial conditions; the geometric counterpart lives in
``prodtri.oracle``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from math import comb
from operator import attrgetter
from typing import Iterable

from .core import Dims, Simplex, components, is_spanning_tree

# proper-intersection results keyed by (n, mask_lo, mask_hi); tree pairs recur
# constantly across flip walks, so this cache does most of the work.  It is
# emptied whenever it reaches the cap, which lies above the 93,096 tree pairs
# an enumeration of the 4x3 product asks.
_proper_cache: dict[tuple[int, int, int], bool] = {}
_PROPER_CACHE_CAP = 1 << 17

# sort key giving the canonical simplex order without Simplex.__lt__ calls
_by_mask = attrgetter("mask")


class NotInComplex(LookupError):
    """Simplex is not a face of the triangulation."""


def proper(s1: Simplex, s2: Simplex) -> bool:
    """No circuit has its plus part in s1 and its minus part in s2.

    Equivalently the convex hulls meet exactly in the hull of the shared
    vertices.  Orient s1's edges row-to-column and s2's column-to-row: the
    simplices meet properly iff this oriented union has no directed cycle of
    length at least 4 (Postnikov, *Permutohedra, associahedra, and beyond*,
    2009, Lemma 12.6).  ``_has_split_circuit`` decides that from the strongly
    connected components of the oriented union.
    """
    if s1.dims != s2.dims:
        raise ValueError("dimension mismatch")
    a, b = s1.mask, s2.mask
    if a > b:
        a, b = b, a
    key = (s1.dims.n, a, b)
    hit = _proper_cache.get(key)
    if hit is None:
        hit = not _has_split_circuit(s1.dims, a, b)
        if len(_proper_cache) >= _PROPER_CACHE_CAP:
            _proper_cache.clear()
        _proper_cache[key] = hit
    return hit


def _has_split_circuit(dims: Dims, mask1: int, mask2: int) -> bool:
    """Whether mask1 row-to-column plus mask2 column-to-row has a directed
    cycle of length >= 4, for any two edge masks (forests or not).

    Such a cycle lies inside one strongly connected component (SCC), and an
    SCC holds one exactly when
    * it contains an arc whose reverse is absent (an edge of only one mask):
      the arc and a shortest way back close a cycle of length >= 4; or
    * its shared edges (arcs in both directions) contain a cycle.  With every
      arc reversible the SCC is connected by its k vertices' shared edges,
      so it has a cycle iff it has at least k of them.
    Every cycle passes through two rows, so only SCCs with two rows or more
    can hold one, and SCCs are read off the rows: row b is one step from row
    a when a column is joined to a in mask1 and to b in mask2, and an SCC's
    columns are those joined to its rows in both masks.
    """
    m, n = dims
    full = (1 << n) - 1
    out = []  # columns that row i enters (mask1)
    back = []  # columns that return to row i (mask2)
    x1, x2 = mask1, mask2
    for _ in range(m):
        out.append(x1 & full)
        back.append(x2 & full)
        x1 >>= n
        x2 >>= n
    rows = range(m)
    reach = []  # rows reachable from row a: one step each, then closed
    for a in rows:
        oa = out[a]
        r = 1 << a
        for b in rows:
            if oa & back[b]:
                r |= 1 << b
        reach.append(r)
    for k in rows:
        bit = 1 << k
        rk = reach[k]
        for a in rows:
            if reach[a] & bit:
                reach[a] |= rk
    done = 0
    for a in rows:
        if done >> a & 1:
            continue
        ra = reach[a]
        scc = 0
        for b in rows:
            if ra >> b & 1 and reach[b] >> a & 1:
                scc |= 1 << b
        done |= scc
        if scc & (scc - 1) == 0:
            continue  # a single row
        k = 0
        cols_out = cols_back = 0
        for b in rows:
            if scc >> b & 1:
                k += 1
                cols_out |= out[b]
                cols_back |= back[b]
        cols = cols_out & cols_back
        block = 0  # every edge between the SCC's rows and columns
        for b in rows:
            if scc >> b & 1:
                block |= cols << (b * n)
        if (mask1 ^ mask2) & block:
            return True
        if bin(mask1 & mask2 & block).count("1") >= k + bin(cols).count("1"):
            return True
    return False


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violations: tuple[tuple[str, object], ...]

    def __bool__(self):
        return self.ok


class Triangulation:
    """Canonically ordered set of maximal simplices.

    A triangulation is *certified* once ``validate`` has passed on it, or
    once it came from a certified one by ``swap_rows`` or by a flip that
    passed ``validate_incremental``; only these three functions set it.
    """

    __slots__ = ("dims", "maximal", "_index", "_digest", "_certified")

    def __init__(self, dims: Dims, maximal: Iterable[Simplex]):
        dims = Dims(*dims).check()
        trees = sorted(set(maximal), key=_by_mask)
        if any(t.dims != dims for t in trees):
            raise ValueError("simplex dims disagree with triangulation dims")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "maximal", tuple(trees))
        object.__setattr__(self, "_index", None)
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, "_certified", False)

    @property
    def index(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Edge -> positions of the maximal simplices holding it, built on
        first use."""
        if self._index is None:
            index: dict[tuple[int, int], list[int]] = {}
            for pos, t in enumerate(self.maximal):
                for e in t:
                    index.setdefault(e, []).append(pos)
            object.__setattr__(self, "_index", {e: tuple(ps) for e, ps in index.items()})
        return self._index

    def __setattr__(self, *a):
        raise AttributeError("Triangulation is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Triangulation)
            and self.dims == other.dims
            and self.maximal == other.maximal
        )

    def __hash__(self):
        return hash((self.dims, self.maximal))

    def __len__(self):
        return len(self.maximal)

    def digest(self) -> str:
        if self._digest is None:
            h = hashlib.sha256()
            h.update(repr((self.dims, tuple(t.mask for t in self.maximal))).encode())
            object.__setattr__(self, "_digest", h.hexdigest())
        return self._digest

    def contains(self, sigma: Simplex) -> bool:
        x = sigma.mask
        if x == 0:
            return True
        for t in self.maximal:
            if not x & ~t.mask:
                return True
        return False

    def star(self, xi: Simplex) -> "LocalTriangulation":
        return star(self, xi)

    def __repr__(self):
        return f"Triangulation({self.dims.m}x{self.dims.n}, {len(self.maximal)} trees)"


class LocalTriangulation:
    """Simplices of a triangulation that all contain a fixed base simplex."""

    __slots__ = ("dims", "base", "maximal")

    def __init__(self, dims: Dims, base: Simplex, maximal: Iterable[Simplex]):
        dims = Dims(*dims).check()
        trees = sorted(set(maximal), key=_by_mask)
        if any(not base.issubset(t) for t in trees):
            raise ValueError("some maximal simplex does not contain the base")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "maximal", tuple(trees))

    def __setattr__(self, *a):
        raise AttributeError("LocalTriangulation is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, LocalTriangulation)
            and self.dims == other.dims
            and self.base == other.base
            and self.maximal == other.maximal
        )

    def __hash__(self):
        return hash((self.dims, self.base, self.maximal))

    def __len__(self):
        return len(self.maximal)

    def contains(self, sigma: Simplex) -> bool:
        return any(sigma.issubset(t) for t in self.maximal)

    def star(self, xi: Simplex) -> "LocalTriangulation":
        return star(self, xi)

    def __repr__(self):
        return (
            f"LocalTriangulation({self.dims.m}x{self.dims.n}, base={self.base!r},"
            f" {len(self.maximal)} maximal)"
        )


def link_maximal(tri: Triangulation, sigma: Simplex) -> frozenset[Simplex]:
    """Maximal simplices of the link: tau minus sigma over all tau containing sigma."""
    if not tri.contains(sigma):
        raise NotInComplex(f"{sigma!r} not in triangulation")
    return frozenset(t.difference(sigma) for t in tri.maximal if sigma.issubset(t))


def star(tri, xi: Simplex):
    if not tri.contains(xi):
        raise NotInComplex(f"{xi!r} not in triangulation")
    base = xi if isinstance(tri, Triangulation) else tri.base.union(xi)
    return LocalTriangulation(
        tri.dims, base, [t for t in tri.maximal if xi.issubset(t)]
    )


def validate(tri: Triangulation) -> ValidityReport:
    """Spanning trees, pairwise proper, and the unimodular count."""
    return _certify(tri, _check(tri, range(len(tri.maximal))))


def validate_incremental(
    tri: Triangulation, added: Iterable[Simplex], before: Triangulation
) -> ValidityReport:
    """``validate(tri)`` for tri made from ``before`` by a flip that added
    ``added`` and kept every other tree of tri.

    When ``before`` is certified (see ``Triangulation``), its trees are
    spanning and pairwise proper, so only the added trees need the spanning
    test and the proper test against every tree, added ones included.
    Otherwise this runs the full ``validate``.  Either way the verdict
    equals ``validate(tri).ok``.
    """
    if not before._certified:
        return validate(tri)
    added = set(added)
    fresh = [p for p, t in enumerate(tri.maximal) if t in added]
    if len(fresh) != len(added):
        raise ValueError("added simplices are not all maximal in the triangulation")
    kept = set(before.maximal)
    if any(t not in kept for t in tri.maximal if t not in added):
        raise ValueError("a tree outside added is not in before")
    return _certify(tri, _check(tri, fresh))


def _certify(tri: Triangulation, report: ValidityReport) -> ValidityReport:
    if report.ok:
        object.__setattr__(tri, "_certified", True)
    return report


def swap_rows(tri: Triangulation, a: int, b: int) -> Triangulation:
    """tri with rows a and b exchanged.  The swap maps spanning trees to
    spanning trees and circuits to circuits, so the copy is certified when
    tri is."""
    n = tri.dims.n
    full = (1 << n) - 1
    sa, sb = a * n, b * n
    keep = ~((full << sa) | (full << sb))
    swapped = Triangulation(
        tri.dims,
        [
            Simplex(
                tri.dims,
                t.mask & keep | (t.mask >> sa & full) << sb | (t.mask >> sb & full) << sa,
            )
            for t in tri.maximal
        ],
    )
    object.__setattr__(swapped, "_certified", tri._certified)
    return swapped


def _check(tri: Triangulation, fresh) -> ValidityReport:
    """The spanning test on the trees at positions ``fresh`` (ascending) and
    the proper test on every pair holding one of them, then the count."""
    violations: list[tuple[str, object]] = []
    trees = tri.maximal
    for p in fresh:
        if not is_spanning_tree(trees[p]):
            violations.append(("not_spanning", trees[p]))
    marked = set(fresh)
    for a, t in enumerate(trees):
        partners = range(a + 1, len(trees)) if a in marked else (b for b in fresh if b > a)
        for b in partners:
            if not proper(t, trees[b]):
                violations.append(("improper_pair", (t, trees[b])))
    expected = comb(tri.dims.m + tri.dims.n - 2, tri.dims.m - 1)
    if len(trees) != expected:
        violations.append(("cardinality", (len(trees), expected)))
    return ValidityReport(not violations, tuple(violations))


def _maximal_members(masks: Iterable[int]) -> list[int]:
    """The masks that no other mask contains, in ascending order."""
    masks = sorted(set(masks), key=lambda x: (-bin(x).count("1"), x))
    keep: list[int] = []
    for x in masks:
        if not any(x & ~y == 0 for y in keep):
            keep.append(x)
    return sorted(keep)


def restrict(tri, rows: Iterable[int], cols: Iterable[int]):
    """Restriction to the face rows x cols, relabeled order-preservingly.

    Accepts a Triangulation or a LocalTriangulation (whose base must lie
    inside the face); returns the same kind on the smaller product.
    """
    rows = sorted(set(rows))
    cols = sorted(set(cols))
    dims = tri.dims
    sub = Dims(len(rows), len(cols)).check()
    rmap = {i: a for a, i in enumerate(rows)}
    cmap = {j: b for b, j in enumerate(cols)}

    def image(simplex: Simplex) -> Simplex:
        return Simplex.from_edges(
            sub,
            [(rmap[i], cmap[j]) for i, j in simplex if i in rmap and j in cmap],
        )

    cut = [image(t) for t in tri.maximal]
    top = [Simplex(sub, x) for x in _maximal_members([s.mask for s in cut])]
    if isinstance(tri, LocalTriangulation):
        base = tri.base
        if any(i not in rmap or j not in cmap for i, j in base):
            raise ValueError("local base does not lie inside the face")
        return LocalTriangulation(sub, image(base), top)
    return Triangulation(sub, top)


@dataclass(frozen=True)
class ContractionMap:
    """Combinatorial quotient by the connected components of a base forest."""

    dims: Dims
    image_dims: Dims
    row_blocks: tuple[frozenset[int], ...]
    col_blocks: tuple[frozenset[int], ...]
    anchors: tuple[tuple[int, int], ...]
    row_of: dict = field(compare=False, repr=False, default=None)
    col_of: dict = field(compare=False, repr=False, default=None)

    def apply(self, simplex: Simplex) -> Simplex:
        return Simplex.from_edges(
            self.image_dims, [(self.row_of[i], self.col_of[j]) for i, j in simplex]
        )


def contraction_map(xi: Simplex) -> ContractionMap:
    m, n = xi.dims
    comps = components(xi)
    row_blocks, col_blocks, anchors = [], [], []
    row_of, col_of = {}, {}
    edge_comps = []
    for comp in sorted(comps, key=min):
        rows = frozenset(v for v in comp if v < m)
        cols = frozenset(v - m for v in comp if v >= m)
        if rows:
            for i in rows:
                row_of[i] = len(row_blocks)
            row_blocks.append(rows)
        if cols:
            for j in cols:
                col_of[j] = len(col_blocks)
            col_blocks.append(cols)
        if rows and cols:
            edge_comps.append((row_blocks.index(rows), col_blocks.index(cols)))
    anchors = tuple(edge_comps)
    return ContractionMap(
        dims=xi.dims,
        image_dims=Dims(len(row_blocks), len(col_blocks)),
        row_blocks=tuple(row_blocks),
        col_blocks=tuple(col_blocks),
        anchors=anchors,
        row_of=row_of,
        col_of=col_of,
    )


def contract(tri, xi: Simplex):
    """Image of the star at xi under the component quotient.

    Returns (image local triangulation, bijection from the star's maximal
    simplices to theirs images).
    """
    if not tri.contains(xi):
        raise NotInComplex(f"{xi!r} not in triangulation")
    cmap = contraction_map(xi)
    anchor_base = Simplex.from_edges(cmap.image_dims, cmap.anchors)
    if isinstance(tri, LocalTriangulation):
        anchor_base = anchor_base.union(cmap.apply(tri.base))
    bijection: dict[Simplex, Simplex] = {}
    for t in tri.maximal:
        if xi.issubset(t):
            bijection[t] = cmap.apply(t)
    image = LocalTriangulation(cmap.image_dims, anchor_base, bijection.values())
    return image, bijection
