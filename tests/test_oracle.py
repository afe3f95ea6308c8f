import random
import sys
from fractions import Fraction as F
from math import factorial

import pytest

import reference
from prodtri.core import Dims, Simplex
from prodtri import flips, oracle
from prodtri.flips import enumerate_flips
from prodtri.geometry import det_bareiss, feasible_eq_nonneg, improper_geometric, simplex_volume
from prodtri.oracle import (
    MAX_SPANNING_TREES,
    BudgetExceeded,
    Corpus,
    build_flip_graph,
    enumerate_triangulations,
    geometric_validate,
    is_connected,
    spanning_trees,
)
from prodtri.phases import staircase
from prodtri.triangulation import Triangulation, proper, validate


@pytest.mark.parametrize(
    "m,n,count",
    [(2, 2, 2), (2, 3, 6), (3, 2, 6), (2, 4, 24), (4, 2, 24), (3, 3, 108)],
)
def test_enumeration_counts(m, n, count):
    corpus = enumerate_triangulations(Dims(m, n))
    assert len(corpus) == count
    assert len(set(corpus.digests())) == count


def test_spanning_tree_counts():
    # m^(n-1) * n^(m-1) spanning trees of the complete bipartite graph
    assert len(spanning_trees(Dims(2, 2))) == 4
    assert len(spanning_trees(Dims(4, 3))) == 4**2 * 3**3
    assert len(spanning_trees(Dims(3, 3))) == 81


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        enumerate_triangulations(Dims(4, 4))
    with pytest.raises(BudgetExceeded):
        geometric_validate(Triangulation(Dims(9, 8), []))


@pytest.mark.parametrize("m,n,trees", [(2, 9, 2304), (2, 12, 24576), (9, 2, 2304)])
def test_tree_budget_refuses_before_any_search(m, n, trees, monkeypatch):
    """2x12 needs only 12 maximal simplices, but its 24,576 spanning trees
    would let the search build 12! members; the refusal comes first."""

    def no_search(dims):
        raise AssertionError("spanning trees listed past the budget")

    monkeypatch.setattr(oracle, "spanning_trees", no_search)
    with pytest.raises(BudgetExceeded, match=f"{trees} spanning trees > budget"):
        enumerate_triangulations(Dims(m, n))


def test_tree_budget_admits_2x8_and_4x3(corpus43):
    assert MAX_SPANNING_TREES == 2**7 * 8
    assert len(spanning_trees(Dims(4, 3))) == 432 < MAX_SPANNING_TREES
    assert len(corpus43) == 4488
    corpus = enumerate_triangulations(Dims(2, 8))
    assert len(corpus) == factorial(8)  # the column orders


@pytest.mark.parametrize(
    "m,n",
    [(1, 3), (3, 1)]
    + [(2, n) for n in range(2, 7)]
    + [(m, 2) for m in range(3, 7)]
    + [(3, 3), (3, 4), (4, 3)],
)
def test_enumeration_matches_the_reference(m, n):
    """Facet matching finds the same triangulations, in the same order, as
    the search that picks any compatible tree."""
    dims = Dims(m, n)
    got = enumerate_triangulations(dims).triangulations
    assert got == reference.enumerate_triangulations(dims).triangulations


def test_every_corpus_member_is_valid(corpus33):
    for T in corpus33.triangulations:
        assert validate(T).ok


def test_det_and_volume():
    assert det_bareiss([[2, 0], [0, 3]]) == 6
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    d = Dims(2, 2)
    tree = Simplex.from_edges(d, [(0, 0), (1, 0), (1, 1)])
    assert simplex_volume(tree) == 1
    degenerate = Simplex.from_edges(d, [(0, 0), (1, 1)])
    assert simplex_volume(degenerate) == 0


def test_geometric_validate_square(square):
    assert geometric_validate(square)
    d = square.dims
    diags = Triangulation(
        d,
        [
            Simplex.from_edges(d, [(0, 0), (1, 1)]),
            Simplex.from_edges(d, [(1, 0), (0, 1)]),
        ],
    )
    assert not geometric_validate(diags)


def test_geometric_agreement_randomized(corpus33):
    rng = random.Random(99)
    d = Dims(3, 3)
    trees = spanning_trees(d)
    for _ in range(400):
        k = rng.choice([2, 3, 6])
        pick = rng.sample(range(len(trees)), k)
        T = Triangulation(d, [trees[p] for p in pick])
        assert validate(T).ok == geometric_validate(T)


def test_improper_geometric_is_symmetric():
    """Both orders of each seeded 3x3 tree pair, each computed: the verdict
    does not depend on which simplex comes first."""
    rng = random.Random(31)
    trees = spanning_trees(Dims(3, 3))
    pairs = [tuple(rng.sample(trees, 2)) for _ in range(300)]
    verdicts = [improper_geometric(s1, s2) for s1, s2 in pairs]
    assert True in verdicts and False in verdicts
    for (s1, s2), want in zip(pairs, verdicts):
        assert improper_geometric(s2, s1) == want


def test_flip_graph_square(corpus22):
    g = build_flip_graph(corpus22)
    assert len(g.edges) == 1
    assert is_connected(g)
    assert g.degree(0) == 1


def test_flip_graph_segment_products():
    # a segment times a simplex: triangulations are column orders and flips
    # are adjacent transpositions
    for n in (3, 4):
        corpus = enumerate_triangulations(Dims(2, n))
        g = build_flip_graph(corpus)
        assert len(corpus) == factorial(n)
        assert len(g.edges) == factorial(n) * (n - 1) // 2
        assert is_connected(g)


def test_flip_graph_degree_matches_enumeration(corpus33):
    g = build_flip_graph(corpus33)
    for p, T in enumerate(corpus33.triangulations):
        assert g.degree(p) == len(enumerate_flips(T))


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)])
def test_flip_graph_matches_the_reference(m, n):
    """The mask-level graph against one built from the Simplex-level
    references: every circuit tried, each flip applied, members found by
    digest."""
    corpus = enumerate_triangulations(Dims(m, n))
    assert set(build_flip_graph(corpus).edges) == reference.flip_graph(corpus)


def test_flip_graph_of_4x3(corpus43):
    """The edge count the benchmark checks, on every test run, and the
    scan behind it: each distinct flip once, with the members it flips,
    which name every edge from both ends."""
    g = build_flip_graph(corpus43)
    assert len(corpus43) == 4488
    assert len(g.edges) == 14184
    assert is_connected(g)
    members = [[t.mask for t in T.maximal] for T in corpus43.triangulations]
    records = flips._flips(corpus43.dims, members)
    assert len(records) == 1584
    assert sum(flipped.bit_count() for *_, flipped in records) == 28368 == 2 * len(g.edges)


def _state() -> dict:
    """The sizes of the module-level containers of ``flips`` and ``oracle``,
    and the dims held by their per-dims memoised tables."""
    state = {
        (name, attr): len(value)
        for name in ("prodtri.flips", "prodtri.oracle")
        for attr, value in vars(sys.modules[name]).items()
        if not attr.startswith("__") and isinstance(value, (dict, list, set))
    }
    state["_tables"] = flips._tables.cache_info().currsize
    return state


def test_flip_scan_leaves_no_module_level_state(corpus33):
    """The per-tree faces live in dicts each call owns; only the per-dims
    tables are kept, one for each dims."""
    build_flip_graph(corpus33)
    enumerate_flips(staircase(5))
    before = _state()
    build_flip_graph(corpus33)
    build_flip_graph(enumerate_triangulations(Dims(2, 4)))
    enumerate_flips(staircase(5))
    enumerate_flips(staircase(6))
    after = _state()
    grown = {key for key in before if after[key] != before[key]}
    assert grown <= {"_tables"}
    assert after["_tables"] - before["_tables"] <= 2  # 2x4 and 4x6, if new


def test_flip_leaving_the_corpus_raises(corpus33):
    short = Corpus(dims=corpus33.dims, triangulations=corpus33.triangulations[1:])
    with pytest.raises(RuntimeError, match="flip left the enumerated corpus"):
        build_flip_graph(short)


def test_flip_onto_a_kept_tree_leaves_the_corpus():
    """The square's circuit flips {t1, t2, t3}: it removes t1 and t2 and
    adds t3 and t4, but t3 is kept, so the flip gives no set of distinct
    trees.  A bare union of kept and added trees would map it onto the
    member {t3, t4} instead of refusing."""
    d = Dims(2, 2)
    cells = [(0, 0), (1, 1), (0, 1), (1, 0)]
    t1, t2, t3, t4 = (Simplex.from_edges(d, set(cells) - {miss}) for miss in cells)
    corpus = Corpus(
        dims=d,
        triangulations=tuple(
            Triangulation(d, trees) for trees in ([t1, t2, t3], [t3, t4], [t1, t2])
        ),
    )
    with pytest.raises(RuntimeError, match="flip left the enumerated corpus"):
        build_flip_graph(corpus)


@pytest.mark.parametrize("corpus", ["corpus33", "corpus42"])
def test_flip_onto_an_unknown_tree_leaves_the_corpus(corpus, request, monkeypatch):
    """A corpus of one member knows only its trees, so a flip of it adds
    trees the corpus does not hold: their bitset is 0 and the flip is
    refused."""
    corpus = request.getfixturevalue(corpus)
    bitsets = []
    real = oracle._tree_bits

    def tree_bits(index, link, faces):
        bitsets.append(real(index, link, faces))
        return bitsets[-1]

    monkeypatch.setattr(oracle, "_tree_bits", tree_bits)
    alone = Corpus(dims=corpus.dims, triangulations=corpus.triangulations[:1])
    with pytest.raises(RuntimeError, match="^flip left the enumerated corpus$"):
        build_flip_graph(alone)
    assert bitsets[-2] and bitsets[-1] == 0  # removed trees known, added unknown


def test_flip_graph_refuses_a_repeated_member(corpus33):
    """A repeated member would add the edges of its copy; it is refused
    before the scan, by name."""
    repeated = Corpus(
        dims=corpus33.dims,
        triangulations=corpus33.triangulations + (corpus33.triangulations[5],),
    )
    with pytest.raises(ValueError, match="corpus member 108 repeats member 5"):
        build_flip_graph(repeated)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (3, 4), (4, 3)])
def test_every_flip_record_has_one_inverse(m, n, corpus43):
    """The premise of forming each edge once: over a whole corpus, the flip
    (X, link) of some members is undone by the one record (-X, link), which
    flips as many members."""
    corpus = corpus43 if (m, n) == (4, 3) else enumerate_triangulations(Dims(m, n))
    members = [[t.mask for t in T.maximal] for T in corpus.triangulations]
    records = flips._flips(corpus.dims, members)
    count = {(X, link): flipped.bit_count() for _, X, link, _, _, flipped in records}
    assert len(count) == len(records)
    for (X, link), flipped in count.items():
        assert count.get((X.reverse(), link)) == flipped, (X, link)


def test_dropping_any_member_is_refused(corpus33):
    """Without any one of its members the 3x3 corpus is refused, by the
    flip that reaches the missing member or, when only the inverse of such a
    flip forms edges, by the inverse's members."""
    messages = set()
    for p in range(len(corpus33)):
        short = corpus33.triangulations[:p] + corpus33.triangulations[p + 1 :]
        with pytest.raises(RuntimeError, match="flip left the enumerated corpus") as refused:
            build_flip_graph(Corpus(dims=corpus33.dims, triangulations=short))
        messages.add("other members" in str(refused.value))
    assert messages == {False, True}


def _transpose(tri: Triangulation) -> Triangulation:
    """tri with each edge (i, j) carried to (j, i)."""
    m, n = tri.dims
    dims = Dims(n, m)
    return Triangulation(
        dims, [Simplex.from_edges(dims, [(j, i) for i, j in t.edges]) for t in tri.maximal]
    )


def test_flip_graph_of_3x4_is_4x3_transposed(corpus43):
    """The 3x4 graph, whose trees lay their edges out in the other bit
    order, is the 4x3 graph under transposition."""
    corpus34 = enumerate_triangulations(Dims(3, 4))
    position = {T: p for p, T in enumerate(corpus43.triangulations)}
    image = [position[_transpose(T)] for T in corpus34.triangulations]
    assert sorted(image) == list(range(len(corpus43)))
    edges34 = {frozenset(image[p] for p in e) for e in build_flip_graph(corpus34).edges}
    assert edges34 == build_flip_graph(corpus43).edges


def test_connect_walks_along_flip_graph_edges(corpus42):
    # every flip a connect run applies is an edge of the exhaustive graph
    from prodtri.flips import FlipCertificate, apply_flip, supports_flip
    from prodtri.phases import connect

    graph = build_flip_graph(corpus42)
    position = {t.digest(): p for p, t in enumerate(corpus42.triangulations)}
    for T in corpus42.triangulations[:8]:
        seq = connect(T)
        cur = T
        for step in seq.steps:
            cert = supports_flip(cur, step.circuit)
            assert isinstance(cert, FlipCertificate)
            after = apply_flip(cur, cert)
            edge = frozenset((position[cur.digest()], position[after.digest()]))
            assert edge in graph.edges
            cur = after


def test_simplex_feasibility_edge_cases():
    assert feasible_eq_nonneg([], [])
    assert feasible_eq_nonneg([[2, -1]], [0])
    assert not feasible_eq_nonneg([[1, 1], [-1, -1]], [1, 1])
    assert reference.feasible_fraction([[F(2), F(-1)]], [F(0)])
    assert not reference.feasible_fraction([[F(1), F(1)], [F(-1), F(-1)]], [F(1), F(1)])


def test_simplex_feasibility_clears_denominators():
    """A rational system is decided on its rows scaled to integers, since a
    positive row scale keeps the solution set: each system below is given
    with one scale per row, the kernel decides the scaled rows and the
    ``Fraction`` reference the rational ones."""
    systems = [
        ([[F(1, 2), F(1, 3)]], [F(1, 6)], [6], True),
        ([[F(1, 2), F(1, 3)]], [F(-1, 6)], [6], False),
        # 2x/3 = y/2 and x/5 + y/7 = 12/35 at x = 36/41, y = 48/41
        ([[F(2, 3), F(-1, 2)], [F(1, 5), F(1, 7)]], [0, F(12, 35)], [6, 35], True),
        ([[F(2, 3), F(-1, 2)], [F(1, 5), F(1, 7)]], [0, F(-12, 35)], [6, 35], False),
        # mixed int and Fraction rows; the second forces y = -3/4
        ([[1, F(1, 2)], [0, F(4, 3)]], [F(1, 4), -1], [4, 3], False),
    ]
    for A, b, scales, want in systems:
        rows = [[x * s for x in (*row, rhs)] for row, rhs, s in zip(A, b, scales)]
        assert all(F(x).denominator == 1 for row in rows for x in row)
        A_int = [[int(x) for x in row[:-1]] for row in rows]
        b_int = [int(row[-1]) for row in rows]
        assert feasible_eq_nonneg(A_int, b_int) == want, (A_int, b_int)
        assert reference.feasible_fraction(
            [[F(x) for x in row] for row in A], [F(x) for x in b]
        ) == want


def test_simplex_feasibility_refuses_entries_that_are_not_ints():
    """The kernel takes integer rows only; a ``Fraction`` or a float, even
    an integral one, in A or in b is refused rather than read."""
    for A, b in (
        ([[F(1, 2), 1]], [1]),
        ([[1, 1]], [F(1)]),
        ([[1, 0], [0, 1.0]], [1, 1]),
    ):
        with pytest.raises(TypeError):
            feasible_eq_nonneg(A, b)


def test_simplex_feasibility_matches_the_fraction_reference():
    """Small dense systems with many zero right-hand sides, so ratio ties
    and degenerate pivots occur, feasible and infeasible alike."""
    rng = random.Random(1967)
    verdicts = []
    for _ in range(1000):
        rows, cols = rng.randint(1, 6), rng.randint(1, 9)
        A = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        b = [rng.choice((0, 0, 0, -2, -1, 1, 2)) for _ in range(rows)]
        want = reference.feasible_fraction(
            [[F(x) for x in row] for row in A], [F(x) for x in b]
        )
        assert feasible_eq_nonneg(A, b) == want, (A, b)
        verdicts.append(want)
    assert 100 < verdicts.count(False) < 900


def test_improper_geometric_matches_the_split_column_reference():
    """The kernel eliminates the shared vertices' free weights before its
    simplex; the reference splits each into two nonnegative columns and
    decides the system with ``Fraction`` pivots.  Both orders of each pair,
    on a seeded sample of 4x3 tree pairs and on random edge sets, forests or
    not, at 3x3, 2x4 and 3x4.  Each edge is in a random set with probability
    3/4, so many pairs share a cycle, and a shared vertex's column on that
    cycle is zero by the time it would be eliminated."""
    rng = random.Random(1967)
    trees = spanning_trees(Dims(4, 3))
    pairs = [tuple(rng.sample(trees, 2)) for _ in range(200)]
    for m, n in ((3, 3), (2, 4), (3, 4)):
        d = Dims(m, n)

        def edge_set():
            return Simplex(d, rng.getrandbits(m * n) | rng.getrandbits(m * n))

        pairs += [(edge_set(), edge_set()) for _ in range(100)]
    verdicts = []
    for s1, s2 in pairs:
        for x, y in ((s1, s2), (s2, s1)):
            want = reference.feasible_fraction(*reference.improper_split_columns(x, y))
            assert improper_geometric(x, y) == want, (x, y)
            verdicts.append(want)
    shared_cycles = sum(not reference.is_forest(s1.intersection(s2)) for s1, s2 in pairs)
    assert shared_cycles > 50, shared_cycles
    assert 0.1 < verdicts.count(True) / len(verdicts) < 0.9


@pytest.mark.parametrize(
    "m,n", [(3, 3), (2, 4), (4, 2), pytest.param(4, 3, marks=pytest.mark.slow)]
)
def test_improper_geometric_agrees_with_proper_on_every_tree_pair(m, n):
    """Every pair of spanning trees, each decided by the kernel itself."""
    trees = spanning_trees(Dims(m, n))
    for a in range(len(trees)):
        for b in range(a + 1, len(trees)):
            s1, s2 = trees[a], trees[b]
            assert improper_geometric(s1, s2) == (not proper(s1, s2)), (s1, s2)
