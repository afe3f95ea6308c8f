"""Detection, certification and application of flips.

A circuit X supports a flip of T when every tree obtained from X by
deleting one plus edge is a face of T and all of those faces share one
link; the flip replaces the plus-side faces by the minus-side ones inside
that link.  When the faces are present but the links disagree, some tree
of T contains the minus part and misses at least two elements of X; such
a tree is returned as the obstruction witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Optional, Union

from .core import Circuit, Dims, Simplex, circuit_of_cycle
from .triangulation import Triangulation


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


def circuit_triangulations(X: Circuit) -> tuple[tuple[Simplex, ...], tuple[Simplex, ...]]:
    """Maximal simplices of the two triangulations of the circuit itself.

    The plus side consists of X minus one plus edge each; dually for minus.
    """
    full = X.minus_mask | X.plus_mask
    return (
        _simplices(X.dims, _faces(full, X.plus_mask)),
        _simplices(X.dims, _faces(full, X.minus_mask)),
    )


def _flip_kernel(
    dims: Dims, trees: list[int], X: Circuit, plus_faces: tuple[int, ...]
) -> Union[FlipCertificate, Obstruction, None]:
    """``supports_flip`` on the ascending tree masks of a triangulation,
    given the plus-face masks of X.

    A tree contains a face of X exactly when its intersection with X is that
    face or, if it is no forest, the whole cycle; so one set of
    intersections rejects X before any link is built.  ``Simplex`` objects
    are built only for the result.
    """
    full = X.minus_mask | X.plus_mask
    held = {t & full for t in trees}
    if full not in held:
        for f in plus_faces:
            if f not in held:
                return None
    # the link of each face, ascending because the trees are
    links = {f: [t & ~f for t in trees if not f & ~t] for f in plus_faces}
    link = links[plus_faces[0]]
    if all(links[f] == link for f in plus_faces[1:]):
        minus_faces = _faces(full, X.minus_mask)
        return FlipCertificate(
            circuit=X,
            link=_simplices(dims, link),
            removed=_simplices(dims, sorted(r | f for r in link for f in plus_faces)),
            added=_simplices(dims, sorted(r | f for r in link for f in minus_faces)),
        )
    # links differ: produce the witness promised for the minus-side star
    xminus = X.minus_mask
    size = len(X)
    for t in trees:
        if not xminus & ~t:
            inter = bin(t & full).count("1")
            if inter <= size - 2:
                return Obstruction(witness=Simplex(dims, t), deficiency=size - inter)
    raise ValueError("links differ but no obstruction witness: invalid input")


def supports_flip(
    tri: Triangulation, X: Circuit
) -> Union[FlipCertificate, Obstruction, None]:
    """Certificate if X flips tri, an Obstruction if only the links fail,
    None when the plus-side faces are not all present."""
    return _flip_kernel(
        tri.dims,
        [t.mask for t in tri.maximal],
        X,
        _faces(X.minus_mask | X.plus_mask, X.plus_mask),
    )


def apply_flip(tri: Triangulation, cert: FlipCertificate) -> Triangulation:
    removed = {s.mask for s in cert.removed}
    kept = [t for t in tri.maximal if t.mask not in removed]
    if len(kept) + len(removed) != len(tri.maximal):
        raise StaleCertificate("certificate's removed simplices are not all present")
    return Triangulation(tri.dims, kept + list(cert.added))


@lru_cache(maxsize=None)
def all_circuits(dims: Dims) -> tuple[Circuit, ...]:
    """Every signed simple cycle of the bipartite graph, both orientations."""
    m, n = Dims(*dims).check()
    seen: set[int] = set()
    out: list[Circuit] = []
    for k in range(2, min(m, n) + 1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                for rperm in permutations(rows[1:]):
                    rseq = (rows[0],) + rperm
                    for cseq in permutations(cols):
                        mask = 0
                        for r in range(k):
                            mask |= 1 << (rseq[r] * n + cseq[r])
                            mask |= 1 << (rseq[(r + 1) % k] * n + cseq[r])
                        if mask in seen:
                            continue
                        seen.add(mask)
                        edges = [(rseq[r], cseq[r]) for r in range(k)] + [
                            (rseq[(r + 1) % k], cseq[r]) for r in range(k)
                        ]
                        X = circuit_of_cycle(dims, edges)
                        out.append(X)
                        out.append(X.reverse())
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def _circuit_faces(dims: Dims) -> tuple[tuple[Circuit, tuple[int, ...]], ...]:
    """Every circuit of ``all_circuits`` with its plus-face masks."""
    return tuple(
        (X, _faces(X.minus_mask | X.plus_mask, X.plus_mask)) for X in all_circuits(dims)
    )


def enumerate_flips(tri: Triangulation) -> tuple[FlipCertificate, ...]:
    """All supported flips, deduplicated and in canonical circuit order.

    Every circuit is tried, so the result rests on no lemma about which
    circuits can flip; ``all_circuits`` is sorted, and so is the result.
    """
    dims = tri.dims
    trees = [t.mask for t in tri.maximal]
    certs = []
    for X, plus_faces in _circuit_faces(dims):
        res = _flip_kernel(dims, trees, X, plus_faces)
        if isinstance(res, FlipCertificate):
            certs.append(res)
    return tuple(certs)


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
    if bin(missing).count("1") != 1:
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
