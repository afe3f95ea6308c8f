import dataclasses
import json
import os
import random
from math import comb

import pytest

from prodtri import phases
from prodtri.core import Circuit, Dims, Simplex, noncrossing
from prodtri.flips import FlipCertificate, all_circuits, apply_flip, enumerate_flips, supports_flip
from prodtri.oracle import spanning_trees
from prodtri.orders import restriction_order
from prodtri.phases import (
    GoodnessContext,
    ProofGap,
    WrongDims,
    _anchor_minimal,
    _Driver,
    _phase_two_case,
    apply_sequence,
    compute_TI,
    compute_TII,
    connect,
    goodness,
    phase_one,
    phase_three,
    phase_two,
    staircase,
)
from prodtri.triangulation import Triangulation, validate


def test_defect_sets_need_four_rows(seg_staircase):
    with pytest.raises(WrongDims):
        compute_TI(seg_staircase)
    with pytest.raises(WrongDims):
        compute_TII(seg_staircase)


def test_defect_sets_on_staircase():
    for n in (1, 2, 3, 4):
        T = staircase(n)
        assert compute_TI(T) == ()
        assert compute_TII(T) == ()


def test_defect_membership_by_shape(corpus43):
    for T in corpus43.triangulations[:40]:
        strong, weak = set(compute_TI(T)), set(compute_TII(T))
        assert strong <= weak
        for t in T.maximal:
            from prodtri.core import col_neighbors

            manual_strong = any(
                {0, 1} <= col_neighbors(t, j) and 3 not in col_neighbors(t, j)
                for j in range(T.dims.n)
            )
            manual_weak = any(
                {0, 1} <= col_neighbors(t, j) and not {2, 3} <= col_neighbors(t, j)
                for j in range(T.dims.n)
            )
            assert (t in strong) == manual_strong
            assert (t in weak) == manual_weak


@pytest.mark.parametrize("n", range(1, 7))
def test_staircase_properties(n):
    T = staircase(n)
    assert len(T.maximal) == comb(n + 2, 3)
    assert validate(T).ok
    assert compute_TI(T) == () and compute_TII(T) == ()
    ident = tuple(range(n))
    assert restriction_order(T, 0, 1).as_total() == ident
    assert restriction_order(T, 2, 3).as_total() == ident


@pytest.mark.parametrize("n", (1, 2, 3))
def test_staircase_is_the_noncrossing_family(n):
    T = staircase(n)
    expected = sorted(
        t
        for t in spanning_trees(Dims(4, n))
        if noncrossing(t, (0, 2, 3, 1), tuple(range(n)))
    )
    assert list(T.maximal) == expected


def test_phases_fixpoint_on_staircase():
    T = staircase(2)
    seq1, t1 = phase_one(T)
    seq2, t2 = phase_two(t1)
    seq3, t3 = phase_three(t2)
    assert len(seq1) == len(seq2) == len(seq3) == 0
    assert t3 == T
    assert len(connect(T)) == 0


def test_phase_one_empties_strong_defects(corpus42):
    for T in corpus42.triangulations:
        seq, out = phase_one(T)
        assert compute_TI(out) == ()
        assert apply_sequence(T, seq) == out


def test_phase_two_requires_phase_one(corpus42):
    bad = next(
        T for T in corpus42.triangulations if compute_TI(T)
    )
    with pytest.raises(ProofGap):
        phase_two(bad)


def test_phase_order_monotonicity_traces(corpus42):
    for T in corpus42.triangulations:
        seq = connect(T)
        ti = None
        for step in seq.steps:
            ms = dict(step.measures)
            if step.phase == "I" and ms.get("outer"):
                if ti is not None:
                    assert ms["tI"] < ti
                ti = ms["tI"]


def test_connect_whole_corpus_42(corpus42):
    target = staircase(2)
    for T in corpus42.triangulations:
        seq = connect(T)
        assert apply_sequence(T, seq) == target


def test_connect_sample_43(corpus43):
    rng = random.Random(37)
    target = staircase(3)
    for T in rng.sample(corpus43.triangulations, 60):
        seq = connect(T)
        final = apply_sequence(T, seq, check=False)
        assert final == target
        for step in seq.steps:
            assert step.phase in ("I", "II", "III")


def test_connect_pair_via_reversal(corpus43):
    """Any two triangulations are joined: a's run to the staircase, then
    b's run reversed, replayed with every flip checked, on 20 seeded 4x3
    pairs and on the committed 4x8 walk against a seeded 40-step walk."""
    rng = random.Random(41)
    pairs = [rng.sample(corpus43.triangulations, 2) for _ in range(20)]
    b = staircase(8)
    for _ in range(40):
        b = apply_flip(b, rng.choice(enumerate_flips(b)))
    pairs.append((_walk_4x8(), b))
    for a, b in pairs:
        walk = connect(a) + connect(b).reversed_()
        assert apply_sequence(a, walk) == b


def test_sequence_concat_mismatch(corpus42):
    moved = next(T for T in corpus42.triangulations if T != staircase(2))
    seq = connect(moved)
    assert len(seq) > 0
    with pytest.raises(ValueError):
        _ = seq + seq  # end is the staircase digest, start is not


def test_goodness_totality_and_clause_b():
    T = staircase(3)
    d = T.dims
    X = Circuit.from_edges(d, [(0, 0), (3, 1)], [(3, 0), (0, 1)])
    anchor = T.maximal[0]
    ctx = GoodnessContext("tauI", anchor, Simplex(d), X, cols=(0, 1))
    assert goodness(T, ctx) in (True, False)
    # a circuit whose minus side is absent evaluates vacuously true
    Xgone = Circuit.from_edges(d, [(3, 0), (2, 2)], [(2, 0), (3, 2)])
    if not T.contains(Simplex(d, Xgone.minus_mask)):
        assert goodness(T, GoodnessContext("tauI", anchor, Simplex(d), Xgone, cols=(0, 2)))


def test_goodness_detects_forbidden_column(corpus43):
    # a star member with rows {0,1} on an unprotected column breaks clause (b)
    from prodtri.core import col_neighbors

    for T in corpus43.triangulations[:50]:
        for t in T.maximal:
            bad = [j for j in range(T.dims.n) if {0, 1} <= col_neighbors(t, j)]
            if not bad:
                continue
            j = bad[0]
            a, b = [c for c in range(T.dims.n) if c != j]
            pairs = [
                ((ia, a), (ib, b))
                for ia in col_neighbors(t, a)
                for ib in col_neighbors(t, b)
                if ia != ib
            ]
            if not pairs:
                continue
            (ia, _), (ib, _) = pairs[0]
            X = Circuit.from_edges(T.dims, [(ia, a), (ib, b)], [(ib, a), (ia, b)])
            ctx = GoodnessContext("tauI", t, Simplex(T.dims), X, cols=(a, b))
            assert not goodness(T, ctx)  # t itself is the offending member
            return
    pytest.skip("no witness configuration found")


def test_phase_three_switches_lower_order():
    # flipping one lower pair of the staircase then reconnecting uses III
    T = staircase(3)
    out = _lower_pair_switched_staircase_3()
    assert restriction_order(out, 2, 3).as_total() == (1, 0, 2)
    assert restriction_order(out, 0, 1).as_total() == (0, 1, 2)
    seq = connect(out)
    assert len(seq) == 1 and seq.steps[0].phase == "III"
    assert apply_sequence(out, seq) == T


def test_wrong_dims_rejected(seg_staircase):
    with pytest.raises(WrongDims):
        connect(seg_staircase)


def _reversed_staircase_2() -> Triangulation:
    """The two-column staircase with its columns exchanged."""
    T0 = staircase(2)
    return Triangulation(
        T0.dims,
        [Simplex.from_edges(T0.dims, [(i, 1 - j) for i, j in t]) for t in T0.maximal],
    )


def _lower_pair_switched_staircase_3() -> Triangulation:
    """staircase(3) after one square flip on rows {2,3}: only the {2,3}
    order differs from the identity."""
    T = staircase(3)
    X = Circuit.from_edges(T.dims, [(3, 0), (2, 1)], [(2, 0), (3, 1)])
    cert = supports_flip(T, X)
    assert isinstance(cert, FlipCertificate)
    return apply_flip(T, cert)


def test_reversed_orders_use_one_macro():
    # column-reversed staircase for two columns: both orders are reversed,
    # so the driver needs exactly one five-flip macro plus one square flip
    T0 = staircase(2)
    rev = _reversed_staircase_2()
    assert restriction_order(rev, 0, 1).as_total() == (1, 0)
    assert restriction_order(rev, 2, 3).as_total() == (1, 0)
    seq = connect(rev)
    assert [s.phase for s in seq.steps] == ["III"] * 6
    assert apply_sequence(rev, seq) == T0


@pytest.mark.parametrize("n,steps", [(4, 20), (5, 25)])
def test_connect_after_random_walk(n, steps):
    # drives the phases beyond the exhaustively enumerable sizes
    rng = random.Random(1000 + n)
    target = staircase(n)
    T = target
    for _ in range(steps):
        T = apply_flip(T, rng.choice(enumerate_flips(T)))
    seq = connect(T)
    assert apply_sequence(T, seq, check=False) == target


def test_missing_anchor_face_is_a_proof_gap():
    # the minus side {(0,0), (3,1)} of a case-1 circuit on columns 0 and 1
    # lies in no tree of the staircase
    T = staircase(3)
    xminus = Simplex.from_edges(T.dims, [(0, 0), (3, 1)])
    assert not T.contains(xminus)
    with pytest.raises(ProofGap, match="^case 1: no unique minimal anchor$") as err:
        _anchor_minimal(_Driver(T), xminus, 3, "case 1")
    assert "not in triangulation" in err.value.context["error"]


def test_phase_two_case_rejects_an_anchor_of_wrong_shape():
    # staircase trees join each column to consecutive rows only, so none has
    # the column on rows {0,1,3} that a phase-two anchor needs
    T = staircase(3)
    with pytest.raises(ProofGap, match="anchor shape outside the two allowed shapes"):
        _phase_two_case(_Driver(T), T.maximal[0])


def test_apply_sequence_refuses_tampered_sequences(corpus43):
    T = next(T for T in corpus43.triangulations if len(connect(T)) > 1)
    seq = connect(T)
    with pytest.raises(ValueError, match="^sequence does not start at this triangulation$"):
        apply_sequence(staircase(3), seq)
    repeated = dataclasses.replace(seq, steps=(seq.steps[0],) + seq.steps)
    with pytest.raises(ProofGap, match="^replayed circuit is not a flip$") as err:
        apply_sequence(T, repeated)
    assert err.value.context == {"circuit": seq.steps[0].circuit}
    wrong_end = dataclasses.replace(seq, end=seq.start)
    with pytest.raises(ProofGap, match="^replay did not reach the recorded endpoint$"):
        apply_sequence(T, wrong_end)


def test_driver_refuses_an_unsupported_flip():
    T = staircase(3)
    X, res = next(
        (X, res)
        for X in all_circuits(T.dims)
        if not isinstance(res := supports_flip(T, X), FlipCertificate)
    )
    drv = _Driver(T)
    with pytest.raises(ProofGap, match="^asserted flip is unsupported$") as err:
        drv.flip(X, "I", step=1)
    assert err.value.context == {"phase": "I", "circuit": X, "result": res, "digest": T.digest()}
    assert drv.T is T and drv.steps == []


WALK_PATH = os.path.join(os.path.dirname(__file__), "data", "walk_4x8.json")


def _walk_4x8() -> Triangulation:
    with open(WALK_PATH) as fh:
        doc = json.load(fh)
    dims = Dims(doc["m"], doc["n"])
    return Triangulation(dims, [Simplex(dims, int(x, 16)) for x in doc["trees"]])


def _rows(X: Circuit) -> set[int]:
    return {i for i, _ in X.minus | X.plus}


def test_phase_three_reads_each_order_once(corpus43, monkeypatch):
    # six reads at entry (five upper orders and the {2,3} order), then the
    # two carried orders once more after each square flip and each macro
    reads = []
    real = phases.restriction_order

    def counted(tri, i1, i2):
        reads.append((i1, i2))
        return real(tri, i1, i2)

    rng = random.Random(53)
    inputs = [_walk_4x8(), _reversed_staircase_2()]
    inputs += rng.sample(corpus43.triangulations, 50)
    macros_seen = squares_seen = 0
    for T in inputs:
        _, t1 = phase_one(T, check=False)
        _, t2 = phase_two(t1, check=False)
        reads.clear()
        with monkeypatch.context() as mp:
            mp.setattr(phases, "restriction_order", counted)
            seq, _ = phase_three(t2, check=False)
        squares = sum(_rows(step.circuit) <= {2, 3} for step in seq.steps)
        others = len(seq) - squares
        assert others % 5 == 0
        macros = others // 5
        assert len(reads) == 6 + 2 * (squares + macros), (T.dims, squares, macros)
        macros_seen += macros
        squares_seen += squares
    assert macros_seen and squares_seen


def test_phase_three_refuses_a_square_flip_that_did_not_happen(monkeypatch):
    flip = _Driver.flip

    def dropping(self, X, phase, **inner):
        if not (phase == "III" and _rows(X) <= {2, 3}):
            flip(self, X, phase, **inner)

    monkeypatch.setattr(_Driver, "flip", dropping)
    with pytest.raises(
        ProofGap, match="^phase three: square flip did not swap the expected pair$"
    ):
        phase_three(_lower_pair_switched_staircase_3())


def test_phase_three_refuses_a_macro_missing_its_fifth_flip(monkeypatch):
    # the reversed staircase starts with a macro, so its fifth flip is the
    # macro's last one
    flip = _Driver.flip
    calls = []

    def dropping(self, X, phase, **inner):
        calls.append(X)
        if len(calls) != 5:
            flip(self, X, phase, **inner)

    monkeypatch.setattr(_Driver, "flip", dropping)
    with pytest.raises(ProofGap, match="^phase three: defect set reappeared after macro$"):
        phase_three(_reversed_staircase_2())
    assert len(calls) == 5


def test_phase_three_refuses_an_end_that_is_not_the_staircase(monkeypatch):
    """The final check compares the end's tree masks with the staircase's;
    with one tree missing from those, the committed walk reaches sorted
    orders that are not the staircase."""
    masks = phases._staircase_masks
    monkeypatch.setattr(phases, "_staircase_masks", lambda n: masks(n)[1:])
    with pytest.raises(ProofGap, match="^phase three: sorted orders but not the staircase$"):
        connect(_walk_4x8(), check=True)


def test_phases_refuse_a_round_without_progress(corpus43, monkeypatch):
    T1 = next(T for T in corpus43.triangulations if compute_TI(T))
    T2 = next(t for t in (phase_one(T)[1] for T in corpus43.triangulations) if compute_TII(t))
    for case in ("_case_one", "_case_two", "_case_three", "_phase_two_case"):
        monkeypatch.setattr(phases, case, lambda *args, **rows: None)
    k = len(compute_TI(T1))
    with pytest.raises(ProofGap, match="^phase one made no progress$") as err:
        phase_one(T1)
    assert err.value.context == {"before": k, "after": k}
    with pytest.raises(ProofGap, match="^phase two made no progress$") as err:
        phase_two(T2)
    assert err.value.context == {"before": len(compute_TII(T2))}


def test_later_phases_refuse_inputs_with_defects(corpus43):
    strong = next(T for T in corpus43.triangulations if compute_TI(T))
    with pytest.raises(ProofGap, match="^phase two requires an empty strong defect set$"):
        phase_two(strong)
    weak = next(T for T in corpus43.triangulations if compute_TII(T))
    with pytest.raises(ProofGap, match="^phase three requires an empty weak defect set$"):
        phase_three(weak)
