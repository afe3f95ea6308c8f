"""Cross-check of the mask kernel behind ``supports_flip``, ``enumerate_flips``
and ``apply_flip`` against the ``Simplex``-level versions it replaced."""

import json
import os
import random

import pytest

import reference
from prodtri.core import Dims, Simplex
from prodtri.flips import (
    _TABLE_DIMS,
    FlipCertificate,
    Obstruction,
    _certificate,
    _cycle_table,
    _faces,
    _flips,
    _tables,
    all_circuits,
    apply_flip,
    enumerate_flips,
    supports_flip,
)
from prodtri.oracle import build_flip_graph, spanning_trees
from prodtri.phases import staircase
from prodtri.triangulation import Triangulation


def _outcome(fn, *args):
    """The result, or the type and text of the exception raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return (type(exc), str(exc))


def _kind(res) -> str:
    return type(res).__name__


def _certified(tri):
    """The certificates ``supports_flip`` gives over ``all_circuits``, in
    that order; a circuit whose links differ with no witness gives none."""
    results = (_outcome(supports_flip, tri, X) for X in all_circuits(tri.dims))
    return tuple(res for res in results if isinstance(res, FlipCertificate))


WALK_PATH = os.path.join(os.path.dirname(__file__), "data", "walk_4x8.json")


def _walk_4x8() -> Triangulation:
    with open(WALK_PATH) as fh:
        doc = json.load(fh)
    dims = Dims(doc["m"], doc["n"])
    tri = Triangulation(dims, [Simplex(dims, int(x, 16)) for x in doc["trees"]])
    assert tri.digest() == doc["start"]
    return tri


@pytest.mark.slow
def test_every_4x3_member_against_every_circuit(corpus43):
    """All 4488 x 84 member-circuit pairs: the same certificate, obstruction
    or None; the same enumeration; the same flipped triangulation; the same
    neighbours in the flip graph."""
    circuits = all_circuits(Dims(4, 3))
    sides = {X: reference.circuit_triangulations(X) for X in circuits}
    position = {T.digest(): p for p, T in enumerate(corpus43.triangulations)}
    neighbours = [set() for _ in corpus43.triangulations]
    for a, b in build_flip_graph(corpus43).edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    kinds = set()
    for p, T in enumerate(corpus43.triangulations):
        results = [reference.supports_flip(T, X, sides[X]) for X in circuits]
        for X, expected in zip(circuits, results):
            res = supports_flip(T, X)
            assert res == expected, (T, X)
            kinds.add(_kind(res))
        flips = enumerate_flips(T)
        assert flips == reference.enumerate_flips(results)
        for cert in flips:
            assert apply_flip(T, cert) == reference.apply_flip(T, cert)
        assert neighbours[p] == reference.flip_neighbours(T, results, position) - {p}, p
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
            assert res == reference.supports_flip(tri, X), (step, X)
            kinds.add(_kind(res))
            if isinstance(res, FlipCertificate):
                certs.append(res)
                assert apply_flip(tri, res) == reference.apply_flip(tri, res)
        if step % 6 == 0:
            assert enumerate_flips(tri) == reference.enumerate_flips(
                reference.supports_flip(tri, X) for X in circuits
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
    error included; and ``enumerate_flips`` gives exactly the certificates
    of ``supports_flip``, so a member holding a whole cycle, which holds
    every face of it, stops the cycle's flips.

    At 2x4, 4x4 and 4x8 (8, 16 and 32 edges, so face index blocks of 16,
    24 and 40 bits) uniform masks seldom hold a face of a long circuit, so
    most members there are drawn over the circuit's plus faces: each a
    face joined to one shared link element, or to arbitrary edges, which
    may complete the cycle.  A certificate, None, an obstruction from a
    member holding the whole cycle and the error occur at each of them."""
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
            assert res == _outcome(reference.supports_flip, tri, X)
            full = X.minus_mask | X.plus_mask
            kinds.add((_kind(res), any(not full & ~t.mask for t in tri.maximal)))
            assert enumerate_flips(tri) == _certified(tri)
    # a member holding the whole cycle gives an obstruction or the error
    assert {
        ("FlipCertificate", False),
        ("Obstruction", False),
        ("NoneType", False),
        ("Obstruction", True),
        ("tuple", True),
    } <= kinds
    for dims in (Dims(2, 4), Dims(4, 4), Dims(4, 8)):
        width = dims.m * dims.n
        circuits = all_circuits(dims)
        wide = set()
        for _ in range(300):
            X = rng.choice(circuits)
            full = X.minus_mask | X.plus_mask
            shared = rng.getrandbits(width) & rng.getrandbits(width) & ~full
            masks = [rng.getrandbits(width) for _ in range(rng.randint(0, 2))]
            for f in _faces(full, X.plus_mask):
                if rng.random() < 0.9:
                    masks.append(f | (shared if rng.random() < 0.7 else rng.getrandbits(width)))
            tri = Triangulation(dims, [Simplex(dims, x) for x in masks])
            res = _outcome(supports_flip, tri, X)
            assert res == _outcome(reference.supports_flip, tri, X)
            wide.add((_kind(res), any(not full & ~t.mask for t in tri.maximal)))
        assert {
            ("FlipCertificate", False),
            ("NoneType", False),
            ("Obstruction", True),
            ("tuple", True),
        } <= wide, (dims, wide)


def _per_member(records, count: int) -> list[list[tuple]]:
    """The (position, circuit, link, plus faces, minus faces) of each of
    ``count`` members' flips, read off the records' member bitsets."""
    out: list[list[tuple]] = [[] for _ in range(count)]
    for *flip, flipped in records:
        for k in range(count):
            if flipped >> k & 1:
                out[k].append(tuple(flip))
    return out


def test_batched_scan_is_the_scan_of_each_member():
    """A batch scans each member as a batch of one does and as the
    face-by-face reference does, each distinct flip once: every record has
    a nonempty link and flips some member, and no two share their circuit
    and link.  The members are seeded collections drawn from one pool of
    spanning trees and arbitrary masks, so they share trees, and some hold
    the whole cycle of a circuit that flips another member of their batch.
    The split on link elements is exercised both ways: some element held at
    every plus face of a flipping circuit only by members that do not flip
    it meets none of the flipping members, and some element lies in two
    different links of one circuit, so it splits a group only in part."""
    rng = random.Random(27)
    shared = whole = skipped = partial = 0
    for dims in (Dims(2, 3), Dims(3, 3), Dims(3, 4)):
        width = dims.m * dims.n
        circuits = all_circuits(dims)
        trees = [t.mask for t in spanning_trees(dims)]
        for _ in range(20):
            pool = rng.sample(trees, 8) + [rng.getrandbits(width) for _ in range(4)]
            batch = [sorted(set(rng.sample(pool, rng.randint(1, 6)))) for _ in range(12)]
            records = _flips(dims, batch)
            assert all(link and flipped for _, _, link, _, _, flipped in records)
            assert len({(pos, link) for pos, _, link, _, _, _ in records}) == len(records)
            links: dict[tuple, list[set]] = {}
            for _, _, link, plus_faces, _, _ in records:
                links.setdefault(plus_faces, []).append(set(link))
            for plus_faces, at in links.items():
                partial += any(a != b and a & b for a in at for b in at)
                flipping = set().union(*at)
                for masks in batch:
                    held = [{t ^ f for t in masks if t & f == f} for f in plus_faces]
                    every = set.intersection(*held)
                    skipped += every != set.union(*held) and bool(every - flipping)
            found = _per_member(records, len(batch))
            for masks, flips in zip(batch, found):
                assert flips == _per_member(_flips(dims, [masks]), 1)[0]
                tri = Triangulation(dims, [Simplex(dims, t) for t in masks])
                results = [_outcome(reference.supports_flip, tri, X) for X in circuits]
                assert tuple(
                    _certificate(dims, X, link, plus_faces, minus_faces)
                    for _, X, link, plus_faces, minus_faces in flips
                ) == reference.enumerate_flips(results)
                for _, X, _, _, _ in flips:
                    full = X.minus_mask | X.plus_mask
                    whole += any(not full & ~t for other in batch for t in other)
            shared += any(sum(t in masks for masks in batch) >= 2 for t in pool)
    assert whole and shared and skipped and partial


def test_an_obstructed_circuit_gets_no_record(corpus33):
    """A member whose plus faces are all present but whose links differ
    flips nothing, even when no link element is shared by every plus face,
    so the split of its flipping members starts from none: no record is
    made at that circuit, empty or not."""
    circuits = all_circuits(Dims(3, 3))
    disjoint = 0
    for T in corpus33.triangulations:
        masks = [t.mask for t in T.maximal]
        at = {pos for pos, *_ in _flips(T.dims, [masks])}
        for pos, X in enumerate(circuits):
            if isinstance(supports_flip(T, X), Obstruction):
                assert pos not in at, (T, X)
                plus_faces = [s.mask for s in reference.circuit_triangulations(X)[0]]
                links = [{t ^ f for t in masks if t & f == f} for f in plus_faces]
                disjoint += not set.intersection(*links)
    assert disjoint


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 3), (4, 6)])
def test_cycle_table(m, n):
    """The scan finds a circuit by its lowest plus face, so no two circuits
    may share one; each edge's bitset names the cycles through it."""
    dims = Dims(m, n)
    cycles, through, first = _cycle_table(dims)
    circuits = all_circuits(dims)
    assert len(first) == len(circuits) == 2 * len(cycles)
    for pos, X, plus_faces, minus_faces in first.values():
        assert circuits[pos] is X
        assert (plus_faces, minus_faces) == tuple(
            tuple(s.mask for s in side) for side in reference.circuit_triangulations(X)
        )
    for e, bits in enumerate(through):
        assert bits == sum(1 << c for c, (full, _) in enumerate(cycles) if full >> e & 1)


def test_per_dims_tables_keep_at_most_their_bound():
    """``all_circuits`` and the flip scan's cycle table live for the
    process in one cache entry per dims, so the cache is bounded: past the
    bound it keeps the dims it met last, and only those."""
    bound = _TABLE_DIMS
    dims = [Dims(2, n) for n in range(2, bound + 5)]
    for d in dims:
        _cycle_table(d)
    info = _tables.cache_info()
    assert (info.maxsize, info.currsize) == (bound, bound)
    for d in dims[-bound:]:
        all_circuits(d)
        _cycle_table(d)
    assert _tables.cache_info().misses == info.misses  # the last met are kept
    all_circuits(dims[0])
    _cycle_table(dims[0])
    assert _tables.cache_info().misses == info.misses + 1  # the first is not


def test_cycle_table_survives_eviction_of_its_circuits():
    """The cycle table names the circuits of ``all_circuits`` themselves.
    A process that meets more dims than the bound through ``all_circuits``
    alone evicts both tables of a dims together, so the two never come from
    different makings."""
    d = Dims(2, 2)
    _cycle_table(d)
    for n in range(3, 12):
        all_circuits(Dims(2, n))
    _, _, first = _cycle_table(d)
    circuits = all_circuits(d)
    assert first
    for pos, X, _, _ in first.values():
        assert circuits[pos] is X


@pytest.mark.parametrize("source", ["staircase(8)", "staircase(10)", "walk_4x8"])
def test_enumerate_flips_is_every_certified_circuit(source):
    tri = _walk_4x8() if source == "walk_4x8" else staircase(int(source[10:-1]))
    flips = enumerate_flips(tri)
    assert flips and flips == _certified(tri)
