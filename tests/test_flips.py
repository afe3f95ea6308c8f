import random
from math import comb

import pytest

from prodtri.core import Circuit, Dims, Simplex, col_neighbors
from prodtri.flips import (
    FlipCertificate,
    NotMaximal,
    Obstruction,
    StaleCertificate,
    _faces,
    all_circuits,
    apply_flip,
    enumerate_flips,
    order_effect,
    psi,
    supports_flip,
)
from prodtri.orders import restriction_order
from prodtri.phases import staircase
from prodtri.triangulation import Triangulation, validate
import reference


def square_circuit(d, minus_diag=True):
    if minus_diag:
        return Circuit.from_edges(d, [(0, 0), (1, 1)], [(1, 0), (0, 1)])
    return Circuit.from_edges(d, [(1, 0), (0, 1)], [(0, 0), (1, 1)])


def test_circuit_triangulations_square():
    # the plus side drops one plus edge each, the minus side one minus edge
    d = Dims(2, 2)
    X = square_circuit(d)
    full = X.minus_mask | X.plus_mask
    plus_side, minus_side = _faces(full, X.plus_mask), _faces(full, X.minus_mask)
    lower = Simplex.from_edges(d, [(0, 0), (1, 1), (1, 0)]).mask
    upper = Simplex.from_edges(d, [(0, 0), (1, 1), (0, 1)]).mask
    assert plus_side == tuple(sorted((lower, upper)))
    assert len(minus_side) == 2


def test_circuit_triangulations_six_cycle():
    d = Dims(3, 3)
    X = Circuit.from_edges(d, [(0, 0), (1, 1), (2, 2)], [(1, 0), (2, 1), (0, 2)])
    plus_side = _faces(X.minus_mask | X.plus_mask, X.plus_mask)
    assert len(plus_side) == 3
    assert all(x & X.minus_mask == X.minus_mask for x in plus_side)


def test_supports_flip_square(square):
    d = square.dims
    res = supports_flip(square, square_circuit(d))
    assert isinstance(res, FlipCertificate)
    assert res.link == (Simplex(d),)
    assert supports_flip(square, square_circuit(d, minus_diag=False)) is None


def test_apply_flip_square_and_involution(square):
    d = square.dims
    cert = supports_flip(square, square_circuit(d))
    other = apply_flip(square, cert)
    assert validate(other).ok
    assert other != square
    back = supports_flip(other, cert.circuit.reverse())
    assert isinstance(back, FlipCertificate)
    assert apply_flip(other, back) == square
    with pytest.raises(StaleCertificate):
        apply_flip(other, cert)


def test_flip_reorders_segment_staircase(seg_staircase):
    d = seg_staircase.dims
    assert restriction_order(seg_staircase, 0, 1).as_total() == (0, 1, 2)
    X = Circuit.from_edges(d, [(0, 1), (1, 0)], [(0, 0), (1, 1)])
    cert = supports_flip(seg_staircase, X)
    assert isinstance(cert, FlipCertificate)
    flipped = apply_flip(seg_staircase, cert)
    assert restriction_order(flipped, 0, 1).as_total() == (1, 0, 2)


def test_obstruction_on_nonconsecutive_staircase_columns():
    T = staircase(3)
    d = T.dims
    # rows {3,4} are indices 2,3; columns f1, f3 are not consecutive in the
    # lower order, so the square circuit on them is obstructed
    X = Circuit.from_edges(d, [(3, 0), (2, 2)], [(2, 0), (3, 2)])
    assert T.contains(Simplex(d, X.minus_mask))
    res = supports_flip(T, X)
    assert isinstance(res, Obstruction)
    assert Simplex(d, X.minus_mask).issubset(res.witness)
    assert res.deficiency >= 2


def test_obstruction_witness_matches_flip_proposition(corpus43):
    # whenever the minus side is present, either the flip certifies or some
    # tree of the star misses at least two circuit elements; and if one
    # plus-deleted face is present the witness misses exactly two
    rng = random.Random(23)
    for T in rng.sample(corpus43.triangulations, 40):
        for X in all_circuits(T.dims):
            xminus = Simplex(T.dims, X.minus_mask)
            if not T.contains(xminus):
                continue
            res = supports_flip(T, X)
            full = X.minus_mask | X.plus_mask
            star_trees = [t for t in T.maximal if xminus.issubset(t)]
            witnesses = [
                t
                for t in star_trees
                if bin(t.mask & full).count("1") <= len(X) - 2
            ]
            if isinstance(res, FlipCertificate):
                assert not witnesses
            else:
                assert witnesses
                if isinstance(res, Obstruction):
                    assert bin(res.witness.mask & full).count("1") <= len(X) - 2
                    plus_faces_present = any(
                        T.contains(s) for s in reference.circuit_triangulations(X)[0]
                    )
                    if plus_faces_present:
                        exact = [
                            t
                            for t in witnesses
                            if bin(t.mask & full).count("1") == len(X) - 2
                        ]
                        assert exact


def test_enumerate_flips_counts(square, seg_staircase):
    assert len(enumerate_flips(square)) == 1
    assert len(enumerate_flips(seg_staircase)) == 2
    d = Dims(2, 4)
    stair = Triangulation(
        d,
        [
            Simplex.from_edges(d, [(0, j) for j in range(4)] + [(1, 0)]),
            Simplex.from_edges(d, [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1)]),
            Simplex.from_edges(d, [(0, 2), (0, 3), (1, 0), (1, 1), (1, 2)]),
            Simplex.from_edges(d, [(0, 3), (1, 0), (1, 1), (1, 2), (1, 3)]),
        ],
    )
    assert len(enumerate_flips(stair)) == 3


def test_every_triangulation_has_a_flip(corpus33):
    for T in corpus33.triangulations:
        assert len(enumerate_flips(T)) >= 1


def test_flip_involution_and_validity_over_corpus(corpus33):
    rng = random.Random(4)
    for T in rng.sample(corpus33.triangulations, 15):
        for cert in enumerate_flips(T):
            out = apply_flip(T, cert)
            assert validate(out).ok
            assert len(out.maximal) == len(T.maximal)
            back = supports_flip(out, cert.circuit.reverse())
            assert isinstance(back, FlipCertificate)
            assert apply_flip(out, back) == T


def test_psi_identity_and_swap(square):
    d = square.dims
    cert = supports_flip(square, square_circuit(d))
    lower = Simplex.from_edges(d, [(0, 0), (1, 0), (1, 1)])
    out = psi(square, cert, lower)
    assert out == Simplex.from_edges(d, [(1, 0), (0, 1), (1, 1)]) or out == Simplex.from_edges(
        d, [(1, 0), (0, 1), (0, 0)]
    )
    with pytest.raises(NotMaximal):
        psi(square, cert, Simplex.from_edges(d, [(0, 0)]))


def test_psi_is_bijection_with_stable_outside_columns():
    T = staircase(3)
    for cert in enumerate_flips(T):
        out = apply_flip(T, cert)
        images = [psi(T, cert, t) for t in T.maximal]
        assert sorted(images) == list(out.maximal)
        circuit_cols = cert.circuit.cols()
        for t, img in zip(T.maximal, images):
            for j in range(T.dims.n):
                if j not in circuit_cols:
                    assert col_neighbors(t, j) == col_neighbors(img, j)


def test_psi_shape_change_clause(corpus43):
    rng = random.Random(8)
    for T in rng.sample(corpus43.triangulations, 20):
        certs = enumerate_flips(T)
        cert = rng.choice(certs)
        X = cert.circuit
        rows, cols = X.cycle_sequence()
        k = len(rows)
        for t in T.maximal:
            img = psi(T, cert, t)
            for r in range(k):
                jr = cols[r]
                before = col_neighbors(t, jr)
                after = col_neighbors(img, jr)
                trigger = Simplex(
                    T.dims,
                    (X.minus_mask | X.plus_mask)
                    & ~(1 << (rows[(r + 1) % k] * T.dims.n + jr)),
                )
                if trigger.issubset(t):
                    assert after == (before - {rows[r]}) | {rows[(r + 1) % k]}
                else:
                    assert after == before


def test_order_effect_square_versus_long_circuits(corpus43):
    rng = random.Random(12)
    samples = rng.sample(corpus43.triangulations, 12)
    for T in samples:
        for cert in enumerate_flips(T):
            out = apply_flip(T, cert)
            X = cert.circuit
            for i in range(4):
                for i2 in range(4):
                    if i == i2:
                        continue
                    predicted = order_effect(T, cert, i, i2)
                    before = restriction_order(T, i, i2).as_total()
                    after = restriction_order(out, i, i2).as_total()
                    if predicted is None:
                        assert before == after
                    else:
                        j1, j2 = predicted
                        p1, p2 = before.index(j1), before.index(j2)
                        assert abs(p1 - p2) == 1  # consecutive columns
                        lo = min(p1, p2)
                        expected = (
                            before[:lo]
                            + (before[lo + 1], before[lo])
                            + before[lo + 2 :]
                        )
                        assert after == expected


def test_order_effect_requires_distinct_rows(square):
    cert = supports_flip(square, square_circuit(square.dims))
    with pytest.raises(ValueError):
        order_effect(square, cert, 1, 1)


def test_all_circuits_count():
    # simple cycles of the complete bipartite graph, both orientations
    def cycles(m, n):
        total = 0
        for k in range(2, min(m, n) + 1):
            total += (
                comb(m, k)
                * comb(n, k)
                * _fact(k)
                * _fact(k - 1)
                // 2
            )
        return 2 * total

    def _fact(x):
        out = 1
        for v in range(2, x + 1):
            out *= v
        return out

    assert len(all_circuits(Dims(2, 2))) == cycles(2, 2)
    assert len(all_circuits(Dims(4, 3))) == cycles(4, 3)
    assert len(all_circuits(Dims(3, 4))) == cycles(3, 4)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 3), (3, 4), (4, 4)])
def test_all_circuits_match_signed_cycles(dims):
    """The circuits built from the two alternating masks are those
    ``reference.circuit_of_cycle`` signs from the cycle's edges, with their
    reverses."""
    out = []
    for X in all_circuits(dims):
        if X.minus_mask < X.plus_mask:
            signed = Circuit(Dims(*dims), *reference.circuit_of_cycle(dims, X.minus | X.plus))
            out += [signed, signed.reverse()]
    assert tuple(sorted(out)) == all_circuits(dims)
