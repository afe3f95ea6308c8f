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

from .core import Dims, Simplex, _bits, _edge_blocks, is_spanning_tree

# sort key giving the canonical simplex order without Simplex.__lt__ calls
_by_mask = attrgetter("mask")


class NotInComplex(LookupError):
    """Simplex is not a face of the triangulation."""


def proper(s1: Simplex, s2: Simplex) -> bool:
    """No circuit Z has its plus part Z+ in s1 and its minus part Z- in s2.

    This is the definition (De Loera, Rambau and Santos, *Triangulations*,
    2010): the convex hulls meet exactly in the hull of the shared vertices.
    It is symmetric, since -Z swaps the parts.  ``_improper_partners``
    searches for such a circuit, here against the single member s2.
    """
    if s1.dims != s2.dims:
        raise ValueError("dimension mismatch")
    return not _improper_partners(s1.dims, s1.mask, _edge_members(s1.dims, (s2.mask,)), 1)


def _edge_members(dims: Dims, masks: Iterable[int]) -> list[int]:
    """For each edge i*n + j, the bitset of the positions p whose masks[p]
    holds it."""
    members = [0] * (dims.m * dims.n)
    for p, x in enumerate(masks):
        bit = 1 << p
        while x:
            low = x & -x
            members[low.bit_length() - 1] |= bit
            x ^= low
    return members


def _improper_partners(dims: Dims, t: int, members: list[int], cand: int) -> int:
    """The positions p in the bitset cand for which some circuit Z has Z+ in
    the edge mask t and Z- in masks[p], where ``members`` is
    ``_edge_members(dims, masks)``.  Exact on any masks, forests or not.

    A circuit is a cycle of the bipartite graph with alternate edges signed
    plus and minus.  The search is depth first over alternating paths from
    the cycle's lowest row s: a plus edge of t to an unused column, then a
    minus edge to an unused row above s, until a minus edge returns to s.
    A path carries the AND of its minus edges' bitsets less the positions
    already found, and a branch ends when that is empty.
    """
    m, n = dims
    full = (1 << n) - 1
    plus = [t >> (i * n) & full for i in range(m)]
    found = 0

    def walk(s: int, i: int, rows: int, cols: int, live: int) -> None:
        nonlocal found
        out = plus[i] & ~cols
        while out and live:
            low = out & -out
            out ^= low
            j = low.bit_length() - 1
            if i != s:  # the minus edge (s, j) closes the cycle
                found |= live & members[s * n + j]
                live &= ~found
            for r in range(s + 1, m):
                if live and not rows >> r & 1:
                    x = live & members[r * n + j]
                    if x:
                        walk(s, r, rows | 1 << r, cols | low, x)
                        live &= ~found

    for s in range(m - 1):
        walk(s, s, 1 << s, 0, cand & ~found)
    return found


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

    __slots__ = ("dims", "maximal", "_digest", "_certified")

    def __init__(self, dims: Dims, maximal: Iterable[Simplex]):
        dims = Dims(*dims).check()
        trees = sorted(set(maximal), key=_by_mask)
        if any(t.dims != dims for t in trees):
            raise ValueError("simplex dims disagree with triangulation dims")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "maximal", tuple(trees))
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, "_certified", False)

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


def _swap_slices(x: int, n: int, a: int, b: int) -> int:
    """Edge mask x with its row slices a and b exchanged."""
    full = (1 << n) - 1
    sa, sb = a * n, b * n
    return x & ~((full << sa) | (full << sb)) | (x >> sa & full) << sb | (x >> sb & full) << sa


def swap_rows(tri: Triangulation, a: int, b: int) -> Triangulation:
    """tri with rows a and b exchanged.  The swap maps spanning trees to
    spanning trees and circuits to circuits, so the copy is certified when
    tri is."""
    n = tri.dims.n
    swapped = Triangulation(
        tri.dims, [Simplex(tri.dims, _swap_slices(t.mask, n, a, b)) for t in tri.maximal]
    )
    object.__setattr__(swapped, "_certified", tri._certified)
    return swapped


def _check(tri: Triangulation, fresh) -> ValidityReport:
    """The spanning test on the trees at positions ``fresh`` (ascending) and
    the proper test on every pair holding one of them, then the count.

    A pair is improper when some circuit has its plus part in one tree and
    its minus part in the other.  The edge bitsets are built once, and one
    circuit search per fresh tree finds its improper partners among the
    trees not yet searched; pairs are reported in ascending (a, b) order.
    """
    violations: list[tuple[str, object]] = []
    trees = tri.maximal
    for p in fresh:
        if not is_spanning_tree(trees[p]):
            violations.append(("not_spanning", trees[p]))
    masks = [t.mask for t in trees]
    members = _edge_members(tri.dims, masks)
    cand = (1 << len(trees)) - 1
    pairs = []
    for p in fresh:
        cand &= ~(1 << p)
        bad = _improper_partners(tri.dims, masks[p], members, cand)
        while bad:
            low = bad & -bad
            q = low.bit_length() - 1
            pairs.append((p, q) if p < q else (q, p))
            bad ^= low
    for a, b in sorted(pairs):
        violations.append(("improper_pair", (trees[a], trees[b])))
    expected = comb(tri.dims.m + tri.dims.n - 2, tri.dims.m - 1)
    if len(trees) != expected:
        violations.append(("cardinality", (len(trees), expected)))
    return ValidityReport(not violations, tuple(violations))


def _maximal_members(masks: Iterable[int]) -> list[int]:
    """The masks that no other mask contains, in ascending order."""
    masks = sorted(set(masks), key=lambda x: (-x.bit_count(), x))
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
    """Row blocks in order of their smallest row; column blocks those of the
    base's edge blocks in the same order, then the lone columns; one anchor
    per edge block."""
    m, n = xi.dims
    rows_of, cols_of = _edge_blocks(xi.dims, xi.mask)
    blocks = sorted(zip(rows_of, cols_of), key=lambda rc: rc[0] & -rc[0])
    lone_rows = ((1 << m) - 1) & ~sum(rows_of)
    lone_cols = ((1 << n) - 1) & ~sum(cols_of)
    row_masks = sorted(rows_of + [1 << i for i in _bits(lone_rows)], key=lambda r: r & -r)
    col_masks = [c for _, c in blocks] + [1 << j for j in sorted(_bits(lone_cols))]
    row_blocks = tuple(_bits(r) for r in row_masks)
    col_blocks = tuple(_bits(c) for c in col_masks)
    return ContractionMap(
        dims=xi.dims,
        image_dims=Dims(len(row_blocks), len(col_blocks)),
        row_blocks=row_blocks,
        col_blocks=col_blocks,
        anchors=tuple((row_masks.index(r), k) for k, (r, _) in enumerate(blocks)),
        row_of={i: k for k, rows in enumerate(row_blocks) for i in rows},
        col_of={j: k for k, cols in enumerate(col_blocks) for j in cols},
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
