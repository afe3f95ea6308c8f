"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Criteria 1 and 5 read the flip traces of one connect run over
the 4x2 and 4x3 corpora, made by a module-scoped fixture, so either runs
alone.  Every criterion is marked ``slow``, so `pytest -m "not slow"`
leaves the suite out.
"""

import hashlib
import json
import random
import time
from math import comb

import pytest

from prodtri import io
from prodtri.core import Dims, Simplex, col_neighbors
from prodtri.flips import (
    FlipCertificate,
    all_circuits,
    apply_flip,
    enumerate_flips,
    order_effect,
    psi,
    supports_flip,
)
from prodtri.oracle import (
    build_flip_graph,
    enumerate_triangulations,
    geometric_validate,
    is_connected,
    spanning_trees,
)
from prodtri.orders import (
    PrecedenceDigraph,
    _move_masks,
    compare_columns,
    free_equivalent,
    restriction_order,
    segment_decompose,
    unique_minimal,
)
from prodtri.phases import (
    apply_sequence,
    compute_TI,
    compute_TII,
    connect,
    staircase,
)
from prodtri.triangulation import (
    LocalTriangulation,
    Triangulation,
    star,
    validate,
)

pytestmark = pytest.mark.slow

# connect on all 4488 members of 4x3, in corpus order: the total flip count,
# and the sha256 of the concatenated hex digests of the sequences, each
# digested as test_golden_digests does
CORPUS43_FLIPS = 69120
CORPUS43_DIGEST = "05022c3fa6f081388b260767d8ae625447dd4fcc6490c1a72d5a1844bc0294a0"


def _sequence_digest(seq) -> str:
    doc = io.sequence_to_dict(seq)
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _all_moves(tri):
    """The row split (I1, I2) of the crossing between each ordered pair of
    members that share a facet and meet properly, as row masks."""
    nodes = tri.maximal
    facet = tri.dims.m + tri.dims.n - 2
    moves = {}
    for a, x in enumerate(nodes):
        for b, y in enumerate(nodes):
            if (x.mask & y.mask).bit_count() == facet:
                mv = _move_masks(tri.dims, x.mask, y.mask)
                if mv is not None:
                    moves[(a, b)] = mv[:2]
    return nodes, moves


def _digraph(nodes, moves, accept):
    return PrecedenceDigraph(
        nodes, [ab for ab, mv in moves.items() if accept(mv)]
    )


def _flip_events(corpora, count, seed):
    rng = random.Random(seed)
    pool = [T for corpus in corpora for T in corpus.triangulations]
    events = []
    while len(events) < count:
        T = rng.choice(pool)
        certs = enumerate_flips(T)
        events.append((T, rng.choice(certs)))
    return events


@pytest.fixture(scope="module")
def corpus_traces(corpus42, corpus43):
    """connect on every member of the 4x2 and the 4x3 corpus, in corpus
    order, each sequence replayed to the staircase: for each n, the
    sequences and the seconds the run took."""
    runs = {}
    for n, corpus in ((2, corpus42), (3, corpus43)):
        target = staircase(n)
        t0 = time.time()
        traces = []
        for T in corpus.triangulations:
            seq = connect(T)  # validates every intermediate internally
            final = apply_sequence(T, seq, check=False)
            assert final == target, "endpoint is not the staircase"
            traces.append(seq)
        runs[n] = (traces, time.time() - t0)
    return runs


def test_criterion_1_connectivity_desk_scale(corpus_traces, corpus42, corpus43):
    budgets = {2: (corpus42, 10.0), 3: (corpus43, 1800.0)}
    for n, (corpus, budget) in budgets.items():
        traces, elapsed = corpus_traces[n]
        assert elapsed < budget, f"n={n} took {elapsed:.1f}s > {budget}s"
        if n == 3:
            assert sum(len(seq) for seq in traces) == CORPUS43_FLIPS
            digests = "".join(_sequence_digest(seq) for seq in traces)
            assert hashlib.sha256(digests.encode()).hexdigest() == CORPUS43_DIGEST
        print(
            f"ACCEPTANCE 1 PASS (n={n}): {len(corpus)} triangulations -> "
            f"staircase in {elapsed:.1f}s (budget {budget:.0f}s)"
        )


@pytest.mark.parametrize(
    "m,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3)]
)
def test_criterion_2_flip_graph_connected(m, n, corpus42, corpus43):
    corpus = {
        (4, 2): corpus42,
        (4, 3): corpus43,
    }.get((m, n)) or enumerate_triangulations(Dims(m, n))
    graph = build_flip_graph(corpus)
    assert is_connected(graph), f"flip graph of {m}x{n} is disconnected"
    print(
        f"ACCEPTANCE 2 PASS ({m}x{n}): {len(corpus)} nodes, "
        f"{len(graph.edges)} edges, zero unreachable"
    )


def test_criterion_3_oracle_agreement(corpus42, corpus43):
    checked = 0
    for m, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        corpus = enumerate_triangulations(Dims(m, n))
        for T in corpus.triangulations:
            assert geometric_validate(T), f"{m}x{n} corpus member failed geometry"
            checked += 1
    for corpus in (corpus42, corpus43):
        for T in corpus.triangulations:
            assert geometric_validate(T)
            checked += 1
    rng = random.Random(20240)
    randoms = 0
    disagreements = 0
    dims_pool = [Dims(2, 2), Dims(2, 3), Dims(3, 2), Dims(2, 4), Dims(3, 3), Dims(4, 2)]
    trees_by_dims = {d: spanning_trees(d) for d in dims_pool}
    while randoms < 10_000:
        d = rng.choice(dims_pool)
        trees = trees_by_dims[d]
        k = rng.randint(2, min(5, len(trees)))
        T = Triangulation(d, rng.sample(trees, k))
        if validate(T).ok != geometric_validate(T):
            disagreements += 1
        randoms += 1
    assert disagreements == 0
    print(
        f"ACCEPTANCE 3 PASS: {checked} corpus members + {randoms} random "
        f"collections, zero disagreements"
    )


def test_criterion_4_proposition_suite(corpus42, corpus43):
    members = list(corpus42.triangulations) + list(corpus43.triangulations)
    # (a) segment structure of every two-row restriction
    for T in members:
        for i1 in range(4):
            for i2 in range(i1 + 1, 4):
                sub = Dims(2, T.dims.n)
                keep = {i1: 0, i2: 1}
                cuts = {
                    Simplex.from_edges(
                        sub, [(keep[i], j) for i, j in t if i in keep]
                    ).mask
                    for t in T.maximal
                }
                tops = []
                for x in sorted(cuts, key=lambda v: -bin(v).count("1")):
                    if not any(x & ~y == 0 for y in tops):
                        tops.append(x)
                seg = segment_decompose(
                    LocalTriangulation(sub, Simplex(sub), [Simplex(sub, x) for x in tops])
                )
                assert len(seg.labels) == len(set(seg.labels))
    print(f"ACCEPTANCE 4a PASS: segment structure on {len(members) * 6} restrictions")

    # (b) membership comparison matches the walked order
    for T in members:
        for i1 in range(4):
            for i2 in range(4):
                if i1 == i2:
                    continue
                order = restriction_order(T, i1, i2)
                for j in range(T.dims.n):
                    for j2 in range(T.dims.n):
                        if j != j2:
                            assert compare_columns(T, i1, i2, j, j2) == order.compare(j, j2)
    print("ACCEPTANCE 4b PASS: comparison test agrees with restriction order")

    # (c) the single-row precedence digraph is acyclic
    # (d) free-order classes equal the shared-face criterion
    for T in members:
        nodes, moves = _all_moves(T)
        for i in range(4):
            assert _digraph(nodes, moves, lambda mv, i=i: mv[1] >> i & 1).is_acyclic()
        free_classes = {
            i1: {
                (a, b): free_equivalent(nodes[a], nodes[b], i1)
                for a in range(len(nodes))
                for b in range(len(nodes))
            }
            for i1 in range(4)
        }
        for i1 in range(4):
            for i2 in range(4):
                if i1 == i2:
                    continue
                dg = _digraph(
                    nodes,
                    moves,
                    lambda mv, i1=i1, i2=i2: mv[1] >> i2 & 1
                    or mv[0] == 1 << i1
                    or mv[1] == 1 << i1,
                )
                for a in range(len(nodes)):
                    for b in range(len(nodes)):
                        assert (
                            dg.equivalent(nodes[a], nodes[b])
                        ) == free_classes[i1][(a, b)]
    print("ACCEPTANCE 4c PASS: row-directed digraphs acyclic")
    print("ACCEPTANCE 4d PASS: free-order classes match the shared-face test")

    # (e) one all-alternating tree per single-edge star
    for T in members:
        for edge in dict.fromkeys(e for t in T.maximal for e in t):
            local = star(T, Simplex.from_edges(T.dims, [edge]))
            tau = unique_minimal(local, edge[0])
            assert local.base.issubset(tau)
    print("ACCEPTANCE 4e PASS: unique minimal member in every edge star")

    # (f) flip characterisation: certificate iff no deficient star member
    for T in members:
        for X in all_circuits(T.dims):
            xminus = Simplex(T.dims, X.minus_mask)
            if not T.contains(xminus):
                continue
            res = supports_flip(T, X)
            full = X.minus_mask | X.plus_mask
            witnesses = [
                t
                for t in T.maximal
                if xminus.issubset(t)
                and bin(t.mask & full).count("1") <= len(X) - 2
            ]
            assert isinstance(res, FlipCertificate) == (not witnesses)
    print("ACCEPTANCE 4f PASS: flip exists iff the star has no deficient tree")

    # (g) carried trees partition the flipped triangulation and shapes move
    # only as allowed; (h) predicted order changes match recomputation
    events = _flip_events((corpus42, corpus43), 1000, seed=77)
    for T, cert in events:
        out = apply_flip(T, cert)
        images = sorted(psi(T, cert, t) for t in T.maximal)
        assert images == list(out.maximal)
        X = cert.circuit
        rows, cols = X.cycle_sequence()
        k = len(rows)
        for t in T.maximal:
            img = psi(T, cert, t)
            for j in range(T.dims.n):
                if j not in cols:
                    assert col_neighbors(img, j) == col_neighbors(t, j)
            for r in range(k):
                jr = cols[r]
                before, after = col_neighbors(t, jr), col_neighbors(img, jr)
                assert after in (
                    before,
                    (before - {rows[r]}) | {rows[(r + 1) % k]},
                )
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
                    assert abs(p1 - p2) == 1
                    lo = min(p1, p2)
                    assert after == before[:lo] + (
                        before[lo + 1],
                        before[lo],
                    ) + before[lo + 2 :]
    print(f"ACCEPTANCE 4g PASS: carried-tree bijection on {len(events)} flips")
    print("ACCEPTANCE 4h PASS: order deltas match recomputed orders")


def test_criterion_5_phase_monotonicity(corpus_traces):
    outer_flips = 0
    for n, (traces, _) in corpus_traces.items():
        for seq in traces:
            ti = None
            tii = None
            for step in seq.steps:
                ms = dict(step.measures)
                if step.phase == "I":
                    if ti is not None:
                        assert ms["tI"] <= ti, "strong defect count grew"
                        if ms.get("outer"):
                            assert ms["tI"] < ti, "outer flip did not shrink defects"
                    ti = ms["tI"]
                    if ms.get("outer"):
                        outer_flips += 1
                elif step.phase == "II":
                    assert ms["tI"] == 0
                    if tii is not None:
                        assert ms["tII"] <= tii, "weak defect count grew"
                        if ms.get("outer"):
                            assert ms["tII"] < tii, "outer flip did not shrink defects"
                    tii = ms["tII"]
    print(
        f"ACCEPTANCE 5 PASS: measures monotone over all traces "
        f"({outer_flips} outer flips), zero proof gaps"
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_criterion_6_canonical_staircase(n):
    T = staircase(n)
    assert validate(T).ok
    assert len(T.maximal) == comb(n + 2, 3)
    assert compute_TI(T) == ()
    assert compute_TII(T) == ()
    ident = tuple(range(n))
    assert restriction_order(T, 0, 1).as_total() == ident
    assert restriction_order(T, 2, 3).as_total() == ident
    print(
        f"ACCEPTANCE 6 PASS (n={n}): staircase has {comb(n + 2, 3)} trees, "
        f"no defects, identity orders"
    )
