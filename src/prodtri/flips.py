"""Detection, certification and application of flips.

A circuit X supports a flip of T when every tree obtained from X by
deleting one plus edge is a face of T and all of those faces share one
link; the flip replaces the plus-side faces by the minus-side ones inside
that link.  When the faces are present but the links disagree, some tree
of T contains the minus part and misses at least two elements of X; such
a tree is returned as the obstruction witness.

The hot paths work on ascending tree masks.  ``_common_link`` compares the
links of the plus faces, and ``supports_flip`` wraps it for one circuit.
``_flips`` scans every circuit of ``all_circuits`` for a batch of members,
circuit by circuit: a per-dims table gives each edge the bitset of the
cycles through it, so one pass over the edges a tree misses finds the
cycles it misses at most one edge of, which are exactly those it holds a
face of.  Each distinct tree of the batch is passed over once, and its
faces carry the bitset of the members holding it, so one AND and one OR
per link element decide a circuit for every member at once; each distinct
flip comes back once, with the bitset of the members it flips.  Only
``enumerate_flips``, a batch of one, builds certificate objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from operator import itemgetter
from typing import Optional, Union

from .core import Circuit, Dims, Simplex, _cycle_masks
from .triangulation import Triangulation, _merged


class StaleCertificate(RuntimeError):
    """Certificate no longer matches the triangulation it is applied to."""


class NotMaximal(LookupError):
    """Simplex is not a maximal simplex of the triangulation."""


@dataclass(frozen=True)
class FlipCertificate:
    circuit: Circuit
    link: tuple[Simplex, ...]
    removed: tuple[Simplex, ...]
    added: tuple[Simplex, ...]


@dataclass(frozen=True)
class Obstruction:
    witness: Simplex
    deficiency: int


def _faces(full: int, side: int) -> tuple[int, ...]:
    """Masks of the cycle ``full`` minus one edge of ``side`` each, ascending."""
    out = []
    while side:
        low = side & -side
        out.append(full ^ low)
        side ^= low
    out.sort()
    return tuple(out)


def _simplices(dims: Dims, masks) -> tuple[Simplex, ...]:
    return tuple(Simplex(dims, x) for x in masks)


def _common_link(trees, plus_faces: tuple[int, ...]) -> Optional[list[int]]:
    """The link shared by every plus face among the ascending tree masks, as
    ascending masks, or None when two links differ."""
    f = plus_faces[0]
    link = [t ^ f for t in trees if t & f == f]
    for f in plus_faces[1:]:
        if [t ^ f for t in trees if t & f == f] != link:
            return None
    return link


def _star(link: list[int], faces: tuple[int, ...]) -> list[int]:
    """The joins of the link with the faces, ascending."""
    return sorted(r | f for r in link for f in faces)


def _certificate(
    dims: Dims, X: Circuit, link: list[int], plus_faces, minus_faces
) -> FlipCertificate:
    return FlipCertificate(
        circuit=X,
        link=_simplices(dims, link),
        removed=_simplices(dims, _star(link, plus_faces)),
        added=_simplices(dims, _star(link, minus_faces)),
    )


def supports_flip(
    tri: Triangulation, X: Circuit
) -> Union[FlipCertificate, Obstruction, None]:
    """Certificate if X flips tri, an Obstruction if only the links fail,
    None when the plus-side faces are not all present.

    A tree contains a face of X exactly when its intersection with X is that
    face or, if it is no forest, the whole cycle; so one set of
    intersections rejects X before any link is built.
    """
    trees = [t.mask for t in tri.maximal]
    full = X.minus_mask | X.plus_mask
    plus_faces = _faces(full, X.plus_mask)
    held = {t & full for t in trees}
    if full not in held and not held.issuperset(plus_faces):
        return None
    link = _common_link(trees, plus_faces)
    if link is not None:
        return _certificate(tri.dims, X, link, plus_faces, _faces(full, X.minus_mask))
    # links differ: produce the witness promised for the minus-side star
    xminus = X.minus_mask
    size = len(X)
    for t in trees:
        if not xminus & ~t:
            inter = (t & full).bit_count()
            if inter <= size - 2:
                return Obstruction(witness=Simplex(tri.dims, t), deficiency=size - inter)
    raise ValueError("links differ but no obstruction witness: invalid input")


def apply_flip(tri: Triangulation, cert: FlipCertificate) -> Triangulation:
    """tri with the certificate's removed trees replaced by its added ones,
    each tree once."""
    removed = {s.mask for s in cert.removed}
    kept = [t for t in tri.maximal if t.mask not in removed]
    if len(kept) + len(removed) != len(tri.maximal):
        raise StaleCertificate("certificate's removed simplices are not all present")
    if any(t.dims != tri.dims for t in cert.added):
        raise ValueError("simplex dims disagree with triangulation dims")
    return Triangulation._trusted(tri.dims, _merged(kept, cert.added))


# The per-dims tables live for the process, so the cache keeps the dims met
# last: a process that meets more recomputes those it met least recently.
# The circuits and the cycle table share one entry, so they leave together
# and the table's circuits are always those ``all_circuits`` gives.
_TABLE_DIMS = 8


def all_circuits(dims: Dims) -> tuple[Circuit, ...]:
    """Every signed simple cycle of the bipartite graph, both orientations."""
    return _tables(Dims(*dims).check())[0]


def _cycle_table(dims: Dims) -> tuple[tuple, tuple[int, ...], dict[int, tuple]]:
    """The cycles of ``all_circuits``, each once, for the flip scan.

    Returns the cycles in order of first appearance, each as its mask and the
    masks of all its faces (the cycle minus one edge); for each edge, the
    bitset of the cycles through it; and a map from the lowest plus face of
    each circuit to the circuit's position in ``all_circuits``, the circuit
    and its plus- and minus-face masks.  A face is a path, so it names its
    cycle and its missing edge, and is the lowest plus face of at most one
    circuit.  It is made the first time the dims' flips are scanned.
    """
    entry = _tables(dims)
    if entry[1] is None:
        m, n = dims
        cycles: dict[int, tuple[int, ...]] = {}
        first: dict[int, tuple] = {}
        for pos, X in enumerate(entry[0]):
            full = X.minus_mask | X.plus_mask
            plus_faces = _faces(full, X.plus_mask)
            minus_faces = _faces(full, X.minus_mask)
            first[plus_faces[0]] = (pos, X, plus_faces, minus_faces)
            cycles[full] = plus_faces + minus_faces
        through = [0] * (m * n)
        for c, full in enumerate(cycles):
            while full:
                low = full & -full
                through[low.bit_length() - 1] |= 1 << c
                full ^= low
        entry[1] = (tuple(cycles.items()), tuple(through), first)
    return entry[1]


@lru_cache(maxsize=_TABLE_DIMS)
def _tables(dims: Dims) -> list:
    """The dims' cache entry: ``all_circuits``, and ``_cycle_table`` once
    made (None before)."""
    m, n = dims
    seen: set[int] = set()
    out: list[Circuit] = []
    for k in range(2, min(m, n) + 1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                for rperm in permutations(rows[1:]):
                    rseq = (rows[0],) + rperm
                    for cseq in permutations(cols):
                        minus, plus = _cycle_masks(n, rseq, cseq)
                        if (minus | plus) in seen:
                            continue
                        seen.add(minus | plus)
                        out.append(Circuit(dims, minus, plus))
                        out.append(Circuit(dims, plus, minus))
    out.sort()
    return [tuple(out), None]


def _held_faces(table, t: int) -> tuple[tuple[int, int, Optional[tuple]], ...]:
    """Each face f of the table's cycles that the mask t holds, with its link
    element ``t ^ f`` and the circuit whose lowest plus face it is, if any.

    t holds a face of a cycle exactly when it misses at most one of the
    cycle's edges: one missing edge leaves the one face without it, none
    leaves every face.  One pass over the edges t misses marks the cycles
    missed once and those missed twice.
    """
    cycles, through, first = table
    once = twice = 0
    out = ~t & ((1 << len(through)) - 1)
    while out:
        low = out & -out
        b = through[low.bit_length() - 1]
        twice |= once & b
        once |= b
        out ^= low
    near = ((1 << len(cycles)) - 1) & ~twice
    faces: list[int] = []
    while near:
        low = near & -near
        full, all_faces = cycles[low.bit_length() - 1]
        if once & low:
            faces.append(full & t)
        else:
            faces.extend(all_faces)
        near ^= low
    return tuple((f, t ^ f, first.get(f)) for f in faces)


def _flips(dims: Dims, members) -> list[tuple]:
    """The distinct flips of the members (ascending distinct tree masks), in
    ``all_circuits`` order: (position, circuit, ascending link, plus faces,
    minus faces, the bitset of the members it flips).

    Each distinct tree's faces are found once, so a face maps each link
    element r to the bitset of the members holding ``r | f``.  Circuit by
    circuit, the AND of those bitsets over the plus faces is the members
    holding r at every plus face and the OR those holding it at some; a
    member flips when some r is in the AND and none is in the OR alone, so
    every plus face has the same nonempty link, the r whose AND holds it.
    Splitting the flipping members on those ANDs gives each link once.  A
    member holding a whole cycle holds each plus face with its own link
    element, so it never flips the cycle.  Every circuit whose lowest plus
    face some tree holds is tested against every distinct tree, so the scan
    rests on no lemma about which circuits flip.
    """
    table = _cycle_table(dims)
    holders: dict[int, int] = {}
    for k, trees in enumerate(members):
        bit = 1 << k
        for t in trees:
            holders[t] = holders.get(t, 0) | bit
    links: dict[int, dict[int, int]] = {}
    sides = []
    for t, bits in holders.items():
        for f, r, side in _held_faces(table, t):
            link = links.get(f)
            if link is None:
                links[f] = {r: bits}
                if side is not None:
                    sides.append(side)
            else:
                link[r] = bits
    sides.sort(key=itemgetter(0))
    found: list[tuple] = []
    for pos, X, plus_faces, minus_faces in sides:
        at = [links.get(g) for g in plus_faces]
        if None in at:
            continue
        first, rest = at[0], at[1:]
        flip = spoil = 0
        held = []
        for r in set(first).union(*rest):
            every = some = first.get(r, 0)
            for other in rest:
                bits = other.get(r, 0)
                every &= bits
                some |= bits
            if every:
                held.append((r, every))
            flip |= every
            spoil |= some & ~every
        flipped = flip & ~spoil
        groups = [(flipped, ())] if flipped else []  # no record with an empty link
        for r, every in sorted(held):
            split = [((bits & every, link + (r,)), (bits & ~every, link)) for bits, link in groups]
            groups = [group for pair in split for group in pair if group[0]]
        found += [(pos, X, link, plus_faces, minus_faces, bits) for bits, link in groups]
    return found


def enumerate_flips(tri: Triangulation) -> tuple[FlipCertificate, ...]:
    """All supported flips, deduplicated and in canonical circuit order.

    Every circuit is tried, so the result rests on no lemma about which
    circuits can flip; ``all_circuits`` is sorted, and so is the result.
    """
    dims = tri.dims
    found = _flips(dims, [[t.mask for t in tri.maximal]])
    return tuple(
        _certificate(dims, X, link, plus_faces, minus_faces)
        for _, X, link, plus_faces, minus_faces, _ in found
    )


def psi(tri: Triangulation, cert: FlipCertificate, tau: Simplex) -> Simplex:
    """Carry a maximal simplex across the flip.

    Trees that miss part of the minus side are untouched; a tree containing
    the minus side misses exactly one plus edge, and its minus edge in that
    column is swapped for the missing plus edge.
    """
    if tau not in tri.maximal:
        raise NotMaximal(f"{tau!r} is not maximal in the triangulation")
    X = cert.circuit
    if X.minus_mask & ~tau.mask:
        return tau
    missing = X.plus_mask & ~tau.mask
    if missing.bit_count() != 1:
        raise ValueError("flip certificate inconsistent with triangulation")
    p = missing.bit_length() - 1
    ip, jr = divmod(p, X.dims.n)
    (ir,) = (i for i, j in X.minus if j == jr)
    return tau.without_edge(ir, jr).with_edge(ip, jr)


def order_effect(
    tri: Triangulation, cert: FlipCertificate, i: int, i2: int
) -> Optional[tuple[int, int]]:
    """Predicted change of the two-row column order caused by the flip.

    None means the order on rows (i, i2) is unchanged; otherwise the
    returned columns (j1, j2) are consecutive and swap places.  Only a
    square circuit on exactly the rows {i, i2} moves the order.
    """
    if i == i2:
        raise ValueError("rows must be distinct")
    X = cert.circuit
    if X.size != 2 or X.rows() != frozenset((i, i2)):
        return None
    _, (j1, j2) = X.cycle_sequence()
    return (j1, j2)
