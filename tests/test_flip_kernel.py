"""Cross-check of the mask kernel behind ``supports_flip``, ``enumerate_flips``
and ``apply_flip`` against the ``Simplex``-level versions it replaced."""

import random

import pytest

from prodtri.core import Dims, Simplex
from prodtri.flips import (
    FlipCertificate,
    Obstruction,
    StaleCertificate,
    all_circuits,
    apply_flip,
    circuit_triangulations,
    enumerate_flips,
    supports_flip,
)
from prodtri.oracle import build_flip_graph
from prodtri.phases import staircase
from prodtri.triangulation import Triangulation


def _reference_circuit_triangulations(X):
    full = X.minus_mask | X.plus_mask
    n = X.dims.n
    plus_side = tuple(
        sorted(Simplex(X.dims, full & ~(1 << (i * n + j))) for i, j in X.plus)
    )
    minus_side = tuple(
        sorted(Simplex(X.dims, full & ~(1 << (i * n + j))) for i, j in X.minus)
    )
    return plus_side, minus_side


def _reference_supports_flip(tri, X, sides=None):
    """The face-by-face host search; ``sides`` may pass the circuit's two
    triangulations in, to spare rebuilding them for every member."""
    plus_side, minus_side = sides or _reference_circuit_triangulations(X)
    links = []
    for sigma in plus_side:
        hosts = [t for t in tri.maximal if sigma.issubset(t)]
        if not hosts:
            return None
        links.append(frozenset(t.difference(sigma) for t in hosts))
    if all(lk == links[0] for lk in links[1:]):
        link = tuple(sorted(links[0]))
        removed = tuple(sorted(rho.union(s) for rho in link for s in plus_side))
        added = tuple(sorted(rho.union(s) for rho in link for s in minus_side))
        return FlipCertificate(circuit=X, link=link, removed=removed, added=added)
    xminus = Simplex(X.dims, X.minus_mask)
    size = len(X)
    best = None
    for t in tri.maximal:
        if xminus.issubset(t):
            inter = bin(t.mask & (X.minus_mask | X.plus_mask)).count("1")
            if inter <= size - 2 and (best is None or t < best[0]):
                best = (t, size - inter)
    if best is None:
        raise ValueError("links differ but no obstruction witness: invalid input")
    return Obstruction(witness=best[0], deficiency=best[1])


def _reference_enumerate_flips(results):
    """``enumerate_flips`` from the reference results over ``all_circuits``."""
    certs = [res for res in results if isinstance(res, FlipCertificate)]
    certs.sort(key=lambda c: (c.circuit.minus_mask, c.circuit.plus_mask))
    return tuple(certs)


def _reference_apply_flip(tri, cert):
    current = set(tri.maximal)
    removed = set(cert.removed)
    if not removed.issubset(current):
        raise StaleCertificate("certificate's removed simplices are not all present")
    return Triangulation(tri.dims, (current - removed) | set(cert.added))


def _reference_neighbours(tri, results, position):
    """Positions of the flipped triangulations, from the reference results
    over ``all_circuits``, found by digest in ``position``."""
    return {
        position[_reference_apply_flip(tri, res).digest()]
        for res in results
        if isinstance(res, FlipCertificate)
    }


def _reference_flip_graph(corpus):
    """The edge set of the flip graph, built from the references alone."""
    circuits = all_circuits(corpus.dims)
    sides = [_reference_circuit_triangulations(X) for X in circuits]
    position = {T.digest(): p for p, T in enumerate(corpus.triangulations)}
    edges = set()
    for p, T in enumerate(corpus.triangulations):
        results = [_reference_supports_flip(T, X, s) for X, s in zip(circuits, sides)]
        edges.update(frozenset((p, q)) for q in _reference_neighbours(T, results, position) - {p})
    return edges


def _outcome(fn, *args):
    """The result, or the type and text of the exception raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return (type(exc), str(exc))


def _kind(res) -> str:
    return type(res).__name__


@pytest.mark.slow
def test_every_4x3_member_against_every_circuit(corpus43):
    """All 4488 x 84 member-circuit pairs: the same certificate, obstruction
    or None; the same enumeration; the same flipped triangulation; the same
    neighbours in the flip graph."""
    circuits = all_circuits(Dims(4, 3))
    sides = {}
    for X in circuits:
        sides[X] = _reference_circuit_triangulations(X)
        assert circuit_triangulations(X) == sides[X]
    position = {T.digest(): p for p, T in enumerate(corpus43.triangulations)}
    neighbours = [set() for _ in corpus43.triangulations]
    for a, b in build_flip_graph(corpus43).edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    kinds = set()
    for p, T in enumerate(corpus43.triangulations):
        results = [_reference_supports_flip(T, X, sides[X]) for X in circuits]
        for X, expected in zip(circuits, results):
            res = supports_flip(T, X)
            assert res == expected, (T, X)
            kinds.add(_kind(res))
        flips = enumerate_flips(T)
        assert flips == _reference_enumerate_flips(results)
        for cert in flips:
            assert apply_flip(T, cert) == _reference_apply_flip(T, cert)
        assert neighbours[p] == _reference_neighbours(T, results, position) - {p}, p
    assert kinds == {"FlipCertificate", "Obstruction", "NoneType"}


def test_seeded_4x8_walk_states():
    """States of a seeded walk from staircase(8) against sampled circuits,
    and the full enumeration on a few of them."""
    rng = random.Random(8)
    tri = staircase(8)
    circuits = all_circuits(tri.dims)
    kinds = set()
    for step in range(12):
        certs = []
        for X in rng.sample(circuits, 150):
            res = supports_flip(tri, X)
            assert res == _reference_supports_flip(tri, X), (step, X)
            kinds.add(_kind(res))
            if isinstance(res, FlipCertificate):
                certs.append(res)
                assert apply_flip(tri, res) == _reference_apply_flip(tri, res)
        if step % 6 == 0:
            assert enumerate_flips(tri) == _reference_enumerate_flips(
                _reference_supports_flip(tri, X) for X in circuits
            )
        while not certs:
            res = supports_flip(tri, rng.choice(circuits))
            if isinstance(res, FlipCertificate):
                certs.append(res)
        tri = apply_flip(tri, rng.choice(certs))
    assert kinds == {"FlipCertificate", "Obstruction", "NoneType"}


def test_arbitrary_masks():
    """Collections of arbitrary edge sets, cycles included, where the face
    and link reasoning of a triangulation does not hold: the same outcome,
    error included."""
    rng = random.Random(5)
    kinds = set()
    for dims in (Dims(2, 3), Dims(3, 3), Dims(3, 4)):
        width = dims.m * dims.n
        circuits = all_circuits(dims)
        for _ in range(300):
            tri = Triangulation(
                dims, [Simplex(dims, rng.getrandbits(width)) for _ in range(rng.randint(1, 6))]
            )
            X = rng.choice(circuits)
            res = _outcome(supports_flip, tri, X)
            assert res == _outcome(_reference_supports_flip, tri, X)
            full = X.minus_mask | X.plus_mask
            kinds.add((_kind(res), any(not full & ~t.mask for t in tri.maximal)))
    # a member holding the whole cycle gives an obstruction or the error
    assert {
        ("FlipCertificate", False),
        ("Obstruction", False),
        ("NoneType", False),
        ("Obstruction", True),
        ("tuple", True),
    } <= kinds

