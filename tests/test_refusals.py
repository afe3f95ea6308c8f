"""Malformed and edge inputs of the package's guards, one table row each:
the exception and message a refusal raises, or the value an edge case
returns."""

import pytest

from prodtri import io as pio
from prodtri.core import (
    Circuit,
    Dims,
    NotACycle,
    Simplex,
    alternating_path,
    connecting_edges,
    noncrossing,
)
from prodtri.flips import FlipCertificate, apply_flip, psi
from prodtri.geometry import det_bareiss, improper_geometric
from prodtri.oracle import Corpus, FlipGraph, geometric_validate, is_connected
from prodtri.orders import (
    ColumnQuasiorder,
    MalformedLocal,
    _segment_walk,
    compare_columns,
    free_equivalent,
    restriction_order,
    segment_decompose,
)
from prodtri.phases import GoodnessContext, goodness, staircase
from prodtri.triangulation import LocalTriangulation, Triangulation

D22, D23, D24, D33, D44 = Dims(2, 2), Dims(2, 3), Dims(2, 4), Dims(3, 3), Dims(4, 4)


def edges(d, *pairs):
    return Simplex.from_edges(d, pairs)


def local(d, base, *trees):
    return LocalTriangulation(d, edges(d, *base), [edges(d, *t) for t in trees])


SEG_STAIRCASE = [((0, 0), (0, 1), (0, 2), (1, 0)), ((0, 1), (0, 2), (1, 0), (1, 1))]
SEG_UNDER = [((0, 0), (0, 2), (1, 0), (1, 1)), ((0, 2), (1, 0), (1, 1), (1, 2))]
SQUARE4 = Circuit.from_edges(Dims(4, 2), [(0, 0), (1, 1)], [(1, 0), (0, 1)])
# a 2x3 tree holding the square's minus side and neither of its plus edges
OFF_SQUARE = edges(D23, (0, 0), (1, 1), (0, 2), (1, 2))
SQUARE23 = Circuit.from_edges(D23, [(0, 0), (1, 1)], [(1, 0), (0, 1)])
SQUARE_EDGES = ((0, 0), (0, 1), (1, 0), (1, 1))
# the square's four spanning trees, each keyed by the edge it misses
SQ = {e: edges(D22, *(f for f in SQUARE_EDGES if f != e)) for e in SQUARE_EDGES}
SQUARE22 = Circuit.from_edges(D22, [(0, 0), (1, 1)], [(1, 0), (0, 1)])


def square_flip(removed, added):
    """apply_flip on the square triangulation {SQ[0,1], SQ[1,0]}."""
    tri = Triangulation(D22, [SQ[0, 1], SQ[1, 0]])
    return apply_flip(tri, FlipCertificate(SQUARE22, (), tuple(removed), tuple(added)))


REFUSALS = [
    # orders
    (
        "rank of a column in no stratum",
        lambda: ColumnQuasiorder((frozenset({0}),)).rank(1),
        KeyError,
        "1",
    ),
    (
        "a quasiorder with a tie read as total",
        lambda: ColumnQuasiorder((frozenset({0, 1}),)).as_total(),
        MalformedLocal,
        "^quasiorder is not a total order$",
    ),
    (
        "segment base off the two anchor edges",
        lambda: segment_decompose(local(D23, [(0, 2)], *SEG_STAIRCASE)),
        MalformedLocal,
        r"^base Simplex\[1x3\] is not of the required form$",
    ),
    (
        "based walk ending elsewhere",
        lambda: segment_decompose(
            local(
                D23,
                [(0, 0)],
                ((0, 0), (0, 1), (0, 2), (1, 1)),
                ((0, 0), (0, 2), (1, 1), (1, 2)),
            )
        ),
        MalformedLocal,
        "^last label must be the based column$",
    ),
    (
        "unbased walk short of the full second row",
        lambda: segment_decompose(local(D23, [], *SEG_STAIRCASE)),
        MalformedLocal,
        "^unbased walk must end at the full second-row cell$",
    ),
    (
        "based walk starting elsewhere",
        lambda: segment_decompose(local(D23, [(1, 1)], *SEG_UNDER)),
        MalformedLocal,
        "^first label must be the based column$",
    ),
    (
        "unbased walk short of the full first row",
        lambda: segment_decompose(local(D23, [], *SEG_UNDER)),
        MalformedLocal,
        "^unbased walk must start at the full first-row cell$",
    ),
    (
        "restriction to one row twice",
        lambda: restriction_order(staircase(2), 1, 1),
        ValueError,
        "^rows must be distinct$",
    ),
    (
        "restriction of a star based outside the two rows",
        lambda: restriction_order(local(D33, [(2, 0)], ((2, 0), (0, 0))), 0, 1),
        ValueError,
        "^local base must lie inside the two rows$",
    ),
    (
        "column order of an improper collection",
        lambda: compare_columns(Triangulation(D22, [Simplex(D22, 0b1111)]), 0, 1, 0, 1),
        ValueError,
        "^order test inconsistent: collection is not proper$",
    ),
    # core
    (
        "connector across two components",
        lambda: connecting_edges(edges(D22, (0, 0), (1, 1)), [0, 1]),
        ValueError,
        "^vertices lie in different components$",
    ),
    (
        "two disjoint cycles signed as one",
        lambda: Circuit.from_edges(
            D44, [(0, 0), (1, 1), (2, 2), (3, 3)], [(0, 1), (1, 0), (2, 3), (3, 2)]
        ),
        NotACycle,
        "^edges do not form a single simple cycle$",
    ),
    (
        "alternation step other than 1 or 2",
        lambda: alternating_path(edges(D22, (0, 0)), Simplex(D22), 0, 2, 3),
        ValueError,
        "^b must be 1 or 2$",
    ),
    (
        "noncrossing test with a row order that is no permutation",
        lambda: noncrossing(edges(D22, (0, 0)), (0, 0), (0, 1)),
        ValueError,
        "^orders must be permutations of the rows/columns$",
    ),
    # flips
    (
        "carrying a tree that misses two plus edges of the flip",
        lambda: psi(
            Triangulation(D23, [OFF_SQUARE]),
            FlipCertificate(SQUARE23, (), (), ()),
            OFF_SQUARE,
        ),
        ValueError,
        "^flip certificate inconsistent with triangulation$",
    ),
    (
        "flip adding a tree of other dims",
        lambda: square_flip([SQ[0, 1]], [edges(D23, (0, 0), (0, 1), (1, 0), (1, 2))]),
        ValueError,
        "^simplex dims disagree with triangulation dims$",
    ),
    # triangulation
    (
        "triangulation given a simplex of other dims",
        lambda: Triangulation(D22, [edges(D23, (0, 0))]),
        ValueError,
        "^simplex dims disagree with triangulation dims$",
    ),
    (
        "star member missing its base",
        lambda: local(D22, [(0, 0)], ((0, 1), (1, 1))),
        ValueError,
        "^some maximal simplex does not contain the base$",
    ),
    # geometry
    (
        "proper test across dims",
        lambda: improper_geometric(edges(D22, (0, 0)), edges(D23, (0, 0))),
        ValueError,
        "^dimension mismatch$",
    ),
    # io
    (
        "document without its simplices",
        lambda: pio.triangulation_from_dict({"m": 2, "n": 2}),
        pio.ParseError,
        "^missing maximal_simplices$",
    ),
    # phases
    (
        "goodness of an unknown kind",
        lambda: goodness(
            staircase(2),
            GoodnessContext("tauIII", Simplex(Dims(4, 2)), None, SQUARE4, cols=(0, 1)),
        ),
        ValueError,
        "^unknown goodness kind 'tauIII'$",
    ),
]

EDGE_VALUES = [
    (
        "flip adding one tree twice",
        lambda: square_flip([SQ[0, 1], SQ[1, 0]], [SQ[1, 1], SQ[0, 0], SQ[1, 1]]),
        Triangulation(D22, [SQ[0, 0], SQ[1, 1]]),
    ),
    (
        "flip adding a tree it keeps",
        lambda: square_flip([SQ[0, 1]], [SQ[1, 0], SQ[0, 0]]),
        Triangulation(D22, [SQ[1, 0], SQ[0, 0]]),
    ),
    (
        "free equivalence with one other row",
        lambda: free_equivalent(
            edges(D22, (0, 0), (0, 1), (1, 0)), edges(D22, (0, 1), (1, 0), (1, 1)), 0
        ),
        True,
    ),
    ("determinant of the empty matrix", lambda: det_bareiss([]), 1),
    ("determinant with a zero pivot column", lambda: det_bareiss([[0, 1], [0, 2]]), 0),
    (
        "geometric test of a full-sized member holding a cycle",
        lambda: geometric_validate(Triangulation(D23, [Simplex(D23, 0b011011)])),
        False,
    ),
    (
        "connectivity of a one-member flip graph",
        lambda: is_connected(FlipGraph(Corpus(D22, (Triangulation(D22, []),)), frozenset())),
        True,
    ),
]


@pytest.mark.parametrize(
    "call, error, match", [pytest.param(*row[1:], id=row[0]) for row in REFUSALS]
)
def test_refusal(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize(
    "call, value", [pytest.param(*row[1:], id=row[0]) for row in EDGE_VALUES]
)
def test_edge_value(call, value):
    assert call() == value


def _chains(n: int):
    """Every ordered list of 2 x n edge masks, three or more long, that the
    segment walk's chain test accepts: each mask joins one column to both
    rows, its label, and the next mask drops the label's first-row edge and
    adds its own label's second-row edge."""
    full = (1 << n) - 1

    def label(x):
        both = x & (x >> n) & full
        return both.bit_length() - 1 if both and not both & (both - 1) else None

    def extend(path):
        if len(path) >= 3:
            yield list(path)
        x = path[-1]
        for j in range(n):
            y = x & ~(1 << label(x)) | 1 << (n + j)
            if label(y) == j:
                yield from extend(path + [y])

    for x in range(1, 1 << 2 * n):
        if label(x) is not None:
            yield from extend([x])


def test_segment_chain_leaves_no_other_pair_adjacent():
    """The segment walk needs no test for adjacent masks two or more steps
    apart along its chain: each step drops one first-row edge and only adds
    second-row edges, so masks k steps apart share all but k of the first
    one's edges.  Checked on every chain of 2 x 4 edge masks."""
    chains = 0
    for path in _chains(4):
        taus, _ = _segment_walk(D24, path)
        assert taus == path
        for a in range(len(path)):
            for b in range(a + 2, len(path)):
                assert (path[a] & path[b]).bit_count() == path[a].bit_count() - (b - a)
        chains += 1
    assert chains > 50
