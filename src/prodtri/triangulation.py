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
from bisect import bisect_left
from dataclasses import dataclass
from math import comb
from operator import attrgetter
from typing import Iterable

from .core import Dims, Simplex, is_spanning_tree

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
    members = _edge_members(s1.dims, (s2.mask,))
    return not _improper_partners(s1.dims, [s1.mask], members, 1)[0]


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


def _improper_partners(dims: Dims, ts: list[int], members: list[int], cand: int) -> list[int]:
    """For each edge mask t of ``ts``, the positions p in the bitset cand
    for which some circuit Z has Z+ in t and Z- in masks[p], where
    ``members`` is ``_edge_members(dims, masks)``.  Exact on any masks,
    forests or not.

    A circuit is a cycle of the bipartite graph with alternate edges signed
    plus and minus.  One search serves every mask of ts: it runs depth first
    over alternating paths from the cycle's lowest row s, a plus edge of
    some mask of ts to an unused column, then a minus edge to an unused row
    above s, until a minus edge returns to s.  A path carries one block of
    w = cand.bit_length() bits per mask of ts; block f holds the candidates
    that could still close a cycle whose plus edges all lie in ts[f], less
    those already found.  A plus edge ANDs it with the blocks of the masks
    holding that edge, a minus edge with the edge's bitset copied into
    every block, and a branch ends when no bit is left.
    """
    m, n = dims
    w = cand.bit_length()
    block = (1 << w) - 1
    copies = ((1 << (len(ts) * w)) - 1) // block if w else 0  # one bit per block
    minus = [(x & block) * copies for x in members]
    plus = [0] * (m * n)  # per edge, the blocks of the masks holding it
    union = 0
    for f, t in enumerate(ts):
        union |= t
        x = t
        while x:
            low = x & -x
            plus[low.bit_length() - 1] |= block << (f * w)
            x ^= low
    full = (1 << n) - 1
    rows = [union >> (i * n) & full for i in range(m)]
    found = 0
    keep = -1  # ~found, the candidates still searched for

    def walk(s: int, i: int, used: int, cols: int, live: int) -> None:
        nonlocal found, keep
        out = rows[i] & ~cols
        while out and live:
            low = out & -out
            out ^= low
            j = low.bit_length() - 1
            here = live & plus[i * n + j]
            if i != s and here:  # the minus edge (s, j) closes the cycle
                hit = here & minus[s * n + j]
                if hit:
                    found |= hit
                    keep = ~found
                    here ^= hit
            for r in range(s + 1, m):
                if here and not used >> r & 1:
                    x = here & minus[r * n + j]
                    if x:
                        walk(s, r, used | 1 << r, cols | low, x)
                        if found:
                            here &= keep
            if found:
                live &= keep

    start = cand * copies
    for s in range(m - 1):
        walk(s, s, 1 << s, 0, start & keep)
    return [found >> (f * w) & block for f in range(len(ts))]


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violations: tuple[tuple[str, object], ...]

    def __bool__(self):
        return self.ok


class Triangulation:
    """Canonically ordered set of maximal simplices.  It carries no record
    of having been checked: a checked run validates its start and carries
    that check's ``_TreeSlots`` from flip to flip.

    Besides its trees it keeps two values derived from them, each made on
    first use: the ``digest`` and the face index that ``_holders`` reads.
    Neither takes part in equality or hashing, and a flip's result starts
    without them."""

    __slots__ = ("dims", "maximal", "_digest", "_index")

    def __init__(self, dims: Dims, maximal: Iterable[Simplex]):
        dims = Dims(*dims).check()
        trees = sorted(set(maximal), key=_by_mask)
        if any(t.dims != dims for t in trees):
            raise ValueError("simplex dims disagree with triangulation dims")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "maximal", tuple(trees))
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, "_index", None)

    @classmethod
    def _trusted(cls, dims: Dims, maximal: tuple[Simplex, ...]) -> Triangulation:
        """``Triangulation(dims, maximal)`` for checked ``dims`` and distinct
        trees of those dims already in mask order, without the set, the
        dims check and the sort that ``__init__`` spends on any input."""
        tri = object.__new__(cls)
        object.__setattr__(tri, "dims", dims)
        object.__setattr__(tri, "maximal", maximal)
        object.__setattr__(tri, "_digest", None)
        object.__setattr__(tri, "_index", None)
        return tri

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
        """Some tree holds every edge of sigma; the empty face always."""
        x = sigma.mask
        return not x or bool(_holders(self, x))

    def __repr__(self):
        return f"Triangulation({self.dims.m}x{self.dims.n}, {len(self.maximal)} trees)"


def _merged(trees: list[Simplex], added: Iterable[Simplex]) -> tuple[Simplex, ...]:
    """The distinct trees ``trees``, in mask order, with ``added`` inserted
    into the list in place: each mask once, in mask order."""
    for t in added:
        p = bisect_left(trees, t.mask, key=_by_mask)
        if p == len(trees) or trees[p].mask != t.mask:
            trees.insert(p, t)
    return tuple(trees)


class LocalTriangulation:
    """Simplices of a triangulation that all contain a fixed base simplex.
    Like a ``Triangulation`` it keeps the face index of its trees, made on
    first use."""

    __slots__ = ("dims", "base", "maximal", "_index")

    def __init__(self, dims: Dims, base: Simplex, maximal: Iterable[Simplex]):
        dims = Dims(*dims).check()
        trees = sorted(set(maximal), key=_by_mask)
        if any(not base.issubset(t) for t in trees):
            raise ValueError("some maximal simplex does not contain the base")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "maximal", tuple(trees))
        object.__setattr__(self, "_index", None)

    @classmethod
    def _trusted(
        cls, dims: Dims, base: Simplex, maximal: tuple[Simplex, ...]
    ) -> LocalTriangulation:
        """``LocalTriangulation(dims, base, maximal)`` for checked ``dims``
        and distinct trees of those dims, each containing ``base``, already
        in mask order, without the set, the sort and the base check that
        ``__init__`` spends on any input."""
        local = object.__new__(cls)
        object.__setattr__(local, "dims", dims)
        object.__setattr__(local, "base", base)
        object.__setattr__(local, "maximal", maximal)
        object.__setattr__(local, "_index", None)
        return local

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
        """Some tree holds every edge of sigma."""
        return bool(_holders(self, sigma.mask))

    def __repr__(self):
        return (
            f"LocalTriangulation({self.dims.m}x{self.dims.n}, base={self.base!r},"
            f" {len(self.maximal)} maximal)"
        )


def star(tri, xi: Simplex):
    trees = _trees_of(tri, _holders(tri, xi.mask))
    if not trees and not tri.contains(xi):
        raise NotInComplex(f"{xi!r} not in triangulation")
    base = xi if isinstance(tri, Triangulation) else tri.base.union(xi)
    # the trees are distinct, in mask order, and each holds base: tri's
    # trees hold tri's base, and these hold xi too
    return LocalTriangulation._trusted(tri.dims, base, tuple(trees))


def _holders(tri, x: int) -> int:
    """The trees of tri (a ``Triangulation`` or ``LocalTriangulation``) that
    hold every edge of the mask x, as a bitset: tree p of ``tri.maximal``
    is the top bit of block p, bit s*p + s - 1.  ``_trees_of`` lists them.

    The face index is tri's tree masks packed into one int z, tree p in
    block p of s bits, s a multiple of 8 wider than m*n and every mask, so
    the top bit of each block is spare; ``unit`` has bit 0 of each block
    set and ``hi`` the top bit.  ``x * unit`` copies x into every block, and
    a block of ``(x * unit) & ~z`` is x & ~t for its tree t.  Adding
    2**(s-1) - 1 to a block carries into its top bit, and never out of the
    block, exactly when the block is nonzero, so one sum tests every tree
    at once (Lamport's broadword zero test, CACM 18(8), 1975).  The index
    is made on first use and kept on tri.
    """
    index = tri._index
    if index is None:
        index = _face_index(tri)
    unit, not_z, fill, hi, s = index
    if x >> (s - 1):  # a bit no tree holds, which would spill into the next block
        return 0
    return hi & ~(((x * unit) & not_z) + fill)


def _face_index(tri) -> tuple[int, int, int, int, int]:
    """Make and keep tri's face index for ``_holders``: unit, ~z,
    hi - unit, hi and the block width s."""
    trees = tri.maximal
    nb = tri.dims.m * tri.dims.n // 8 + 1  # bytes per block
    if trees and trees[-1].mask >> (8 * nb - 1):  # the widest tree is the last
        nb = trees[-1].mask.bit_length() // 8 + 1
    z = int.from_bytes(b"".join([t.mask.to_bytes(nb, "little") for t in trees]), "little")
    unit = int.from_bytes(b"\x01".ljust(nb, b"\x00") * len(trees), "little")
    hi = unit << (8 * nb - 1)
    index = (unit, ~z, hi - unit, hi, 8 * nb)
    object.__setattr__(tri, "_index", index)
    return index


def _trees_of(tri, held: int) -> list[Simplex]:
    """The trees of a ``_holders(tri, x)`` bitset, in mask order."""
    trees, s = tri.maximal, tri._index[4]
    out = []
    while held:
        low = held & -held
        out.append(trees[low.bit_length() // s - 1])
        held ^= low
    return out


def validate(tri: Triangulation) -> ValidityReport:
    """Spanning trees, pairwise proper, and the unimodular count."""
    return _validated_slots(tri)[1]


def _validated_slots(tri: Triangulation) -> tuple[_TreeSlots, ValidityReport]:
    """The slots of tri's trees and ``validate(tri)``, one search from every
    tree against them: a checked run's start, whose slots it then carries."""
    slots = _TreeSlots(tri)
    return slots, _check(tri, slots, tri.maximal, [t.mask for t in tri.maximal])


class _TreeSlots:
    """The edge bitsets of the proper test, carried from flip to flip.

    Each tree of a run's working triangulation holds a slot, a bit position
    it keeps while it stays: ``live`` is the bitset of the held slots,
    ``members[i*n + j]`` that of the slots whose tree holds edge (i, j), as
    ``_edge_members`` builds it over a list of masks, and ``slot_of`` maps
    each held tree's mask to its slot bit.  ``flip`` frees the slots of the
    trees a flip removed, gives each added tree the lowest free slot and
    checks the result from the added trees only.

    Precondition of ``flip``: the slots hold a state whose last check
    passed, so the trees they hold are pairwise proper spanning trees.  A
    run never flips after a failed check: ``_Driver.apply`` and
    ``apply_sequence`` raise ``ProofGap`` on it.
    """

    __slots__ = ("members", "live", "slot_of")

    def __init__(self, tri: Triangulation):
        masks = [t.mask for t in tri.maximal]
        self.members = _edge_members(tri.dims, masks)
        self.live = (1 << len(masks)) - 1
        self.slot_of = {x: 1 << p for p, x in enumerate(masks)}

    def mask(self, bit: int) -> int:
        """The edge mask of the tree in the slot bit."""
        return sum(1 << e for e, held in enumerate(self.members) if held & bit)

    def flip(self, tri: Triangulation, cert) -> ValidityReport:
        """``validate(tri)`` for tri made from the state the slots hold by
        the flip of the certificate ``cert`` (a ``flips.FlipCertificate``);
        the slots then hold tri's trees.  ``ValueError`` if a removed tree
        is not held, or if the slots then do not hold exactly tri's trees;
        either leaves the slots unusable.

        Call an edge x of an added tree a *old-held* when some tree the
        slots held before the flip (an old tree) holds a - x.  Lemma: let Z
        be a circuit with Z+ in a and Z- in a tree b of tri.  If b is old,
        Z+ holds every old-held edge of a; if b is added too, Z+ holds every
        old-held edge of a or Z- every old-held edge of b.  Proof: if Z+
        misses an old-held edge x, then Z+ lies in a - x, so in an old tree
        o.  If Z- also lies in an old tree o', then o != o' is an improper
        old pair, and o = o' holds the cycle Z; the precondition excludes
        both.

        The plus edges of a circuit lie in distinct rows and columns.  So
        the search runs from each added tree's narrowed mask: a core of
        old-held edges, plus the edges of a that share no row and no column
        with the core, and a itself when the core is empty.  Every improper
        pair of tri is then found from at least one side.  The core needs no
        trust in the certificate: a plus edge x of its circuit that a holds
        is old-held when the slots held ``(a ^ x) | minus``, which holds
        a - x.  Any subset of the old-held edges keeps the lemma, so a
        forged circuit only widens the masks.  The core lies in that
        circuit's plus side, so no two of its edges share a line.
        """
        n = tri.dims.n
        line = (1 << n) - 1
        ones = ((1 << tri.dims.m * n) - 1) // line  # bit 0 of each row
        X = cert.circuit
        minus, slot_of, members = X.minus_mask, self.slot_of, self.members
        added = sorted(set(cert.added), key=_by_mask)
        masks = []
        for t in added:  # the narrowed masks, read before the slots change
            a = t.mask
            core = lines = 0  # lines: the rows and columns of the core
            x = a & X.plus_mask
            while x:
                low = x & -x
                x ^= low
                if ((a ^ low) | minus) in slot_of:
                    core |= low
                    i, j = divmod(low.bit_length() - 1, n)
                    lines |= line << (i * n) | ones << j
            masks.append(core | a & ~lines)
        live = self.live
        for t in cert.removed:
            x = t.mask
            bit = slot_of.pop(x, 0)
            if not bit:
                raise ValueError("a removed tree is not held by the slots")
            live ^= bit
            keep = ~bit
            while x:
                low = x & -x
                x ^= low
                members[low.bit_length() - 1] &= keep
        for t in added:
            x = t.mask
            if x not in slot_of:  # else its slot stays
                bit = ~live & (live + 1)  # the lowest free slot
                live |= bit
                slot_of[x] = bit
                while x:
                    low = x & -x
                    x ^= low
                    members[low.bit_length() - 1] |= bit
        self.live = live
        if len(slot_of) != len(tri.maximal) or not all(t.mask in slot_of for t in tri.maximal):
            raise ValueError("with the added trees the slots do not hold exactly tri's trees")
        return _check(tri, self, added, masks)


def _check(tri: Triangulation, slots: _TreeSlots, fresh, masks: list[int]) -> ValidityReport:
    """The spanning test on the trees ``fresh`` (ascending) and the proper
    test on every pair of tri's trees holding one of them, then the count.

    A pair is improper when some circuit has its plus part in one tree and
    its minus part in the other.  One circuit search runs from ``masks``
    against the trees that ``slots`` holds: masks[k] is fresh[k] itself,
    or after a flip its narrowed mask (``_TreeSlots.flip``), and every
    improper pair of tri has a circuit whose plus part lies in the mask of
    one of its trees.  Pairs are collected unordered, each once, and
    reported in ascending (a, b) order.
    """
    dims = tri.dims
    violations: list[tuple[str, object]] = [
        ("not_spanning", t) for t in fresh if not is_spanning_tree(t)
    ]
    found = _improper_partners(dims, masks, slots.members, slots.live)
    pairs = set()
    for t, bad in zip(fresh, found):
        x = t.mask
        while bad:
            low = bad & -bad
            bad ^= low
            y = slots.mask(low)
            if y != x:  # a tree with a cycle finds itself
                pairs.add((x, y) if x < y else (y, x))
    for x, y in sorted(pairs):
        violations.append(("improper_pair", (Simplex(dims, x), Simplex(dims, y))))
    expected = comb(dims.m + dims.n - 2, dims.m - 1)
    if len(tri.maximal) != expected:
        violations.append(("cardinality", (len(tri.maximal), expected)))
    return ValidityReport(not violations, tuple(violations))


def _maximal_members(masks: Iterable[int]) -> list[int]:
    """The masks that no other mask contains, in ascending order."""
    masks = sorted(set(masks), key=lambda x: (-x.bit_count(), x))
    keep: list[int] = []
    for x in masks:
        if not any(x & ~y == 0 for y in keep):
            keep.append(x)
    return sorted(keep)
