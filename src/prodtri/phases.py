"""Flip walk from any triangulation of the tetrahedron product to the
staircase triangulation.

Rows are 0-based throughout: the tetrahedron rows called 1, 2, 3, 4 in
prose are indices 0, 1, 2, 3 here.  Phase one empties the defect set of
trees with a column joined to rows {0,1} but not 3; phase two empties the
weaker defect set (column joined to {0,1} but not to both {2,3}); phase
three sorts the two surviving column orders to the identity with square
flips and a five-flip transposition macro.

Every step the underlying argument asserts is checked at runtime and a
failure raises ProofGap with a context snapshot, so a completed run is a
machine check of the whole case analysis on that input.  Mirrored cases
(the usual "without loss of generality" on rows 0/1) run on the run's own
state with the two rows named: a case takes the rows that play 0 and 1 as
``r0, r1`` and builds its circuits, faces, move filters, path ends and
path-form tests from them.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import Optional

from .core import Circuit, Dims, Simplex, _shape_cols, connecting_edges, tree_path
from .flips import FlipCertificate, apply_flip, supports_flip
from .orders import (
    _Adjacency,
    _order_holds,
    build_precedence,
    free_equivalent,
    restriction_order,
    select_extremal,
    toward_row,
    toward_row_free,
    unique_minimal,
)
from .triangulation import Triangulation, _holders, _merged, _trees_of, _validated_slots, star


class WrongDims(ValueError):
    pass


class ProofGap(RuntimeError):
    """A step the argument guarantees failed at runtime.

    Signals either an implementation bug or a genuine gap in the case
    analysis; the context snapshot says which step broke and on what.
    """

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = dict(context)


@dataclass(frozen=True)
class FlipStep:
    circuit: Circuit
    phase: str
    measures: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class FlipSequence:
    dims: Dims
    start: str
    end: str
    steps: tuple[FlipStep, ...]

    def __len__(self):
        return len(self.steps)

    def __add__(self, other: "FlipSequence") -> "FlipSequence":
        if self.end != other.start:
            raise ValueError("sequences do not chain")
        return FlipSequence(self.dims, self.start, other.end, self.steps + other.steps)

    def reversed_(self) -> "FlipSequence":
        steps = tuple(
            FlipStep(s.circuit.reverse(), s.phase, ()) for s in reversed(self.steps)
        )
        return FlipSequence(self.dims, self.end, self.start, steps)


def apply_sequence(tri: Triangulation, seq: FlipSequence, check: bool = True) -> Triangulation:
    """Replay a flip sequence, certifying every step against the current state.

    With check, the replay validates its start, as a run's driver does, and
    carries that check's tree slots (``_TreeSlots``): each step's result is
    checked by a search from its added trees, narrowed by the slots'
    trees and the step's certificate, with the report of ``validate``.  A
    failed check raises, so the slots never flip from an invalid state."""
    if tri.digest() != seq.start:
        raise ValueError("sequence does not start at this triangulation")
    if check:
        slots, report = _validated_slots(tri)
        _ensure(report.ok, "input does not validate")
    for step in seq.steps:
        res = supports_flip(tri, step.circuit)
        if not isinstance(res, FlipCertificate):
            raise ProofGap("replayed circuit is not a flip", circuit=step.circuit)
        new = apply_flip(tri, res)
        if check and not slots.flip(new, res).ok:
            raise ProofGap("replay produced an invalid triangulation")
        tri = new
    if tri.digest() != seq.end:
        raise ProofGap("replay did not reach the recorded endpoint")
    return tri


def _require_m4(tri):
    if tri.dims.m != 4:
        raise WrongDims(f"phase algorithms need four rows, got {tri.dims}")


# The defect tests read a tree's edge mask x row by row: row i is the slice
# (x >> i*n) & full, so bit j of each expression below is column j's verdict.


def _strong_defect(x: int, n: int, full: int) -> int:
    """Columns joined to rows 0 and 1 but not to row 3."""
    return x & (x >> n) & ~(x >> 3 * n) & full


def _weak_defect(x: int, n: int, full: int) -> int:
    """Columns joined to rows 0 and 1 but not to both of rows 2 and 3."""
    return x & (x >> n) & ~((x >> 2 * n) & (x >> 3 * n)) & full


def compute_TI(tri: Triangulation) -> tuple[Simplex, ...]:
    """Trees with a column joined to rows {0,1} but not to row 3."""
    _require_m4(tri)
    n = tri.dims.n
    full = (1 << n) - 1
    return tuple(t for t in tri.maximal if _strong_defect(t.mask, n, full))


def compute_TII(tri: Triangulation) -> tuple[Simplex, ...]:
    """Trees with a column joined to {0,1} but missing one of rows {2,3}."""
    _require_m4(tri)
    n = tri.dims.n
    full = (1 << n) - 1
    return tuple(t for t in tri.maximal if _weak_defect(t.mask, n, full))


@dataclass(frozen=True)
class GoodnessContext:
    """Anchors of one reduction round and the star the predicate ranges over.

    ``rows`` names the rows that play 0 and 1 in a mirrored case; only the
    ``tau0`` kind reads it, the other kinds being symmetric in the two."""

    kind: str  # "tauI" | "tauII" | "tau0"
    anchor: Simplex
    sigma: Optional[Simplex]
    circuit: Circuit
    second: Optional[Circuit] = None
    _: KW_ONLY
    cols: tuple[int, int]
    rows: tuple[int, int] = (0, 1)


def goodness(tri: Triangulation, ctx: GoodnessContext) -> bool:
    """Literal evaluation of the goodness predicate; vacuously true when
    the supporting face has already left the triangulation."""
    n = tri.dims.n
    full = (1 << n) - 1
    X = ctx.circuit
    xm = X.minus_mask
    if ctx.kind in ("tauI", "tauII"):
        members = [t.mask for t in _trees_of(tri, _holders(tri, xm))]
        c1, c2 = ctx.cols
        others = full & ~(1 << c1) & ~(1 << c2)
        for x in members:
            if x & (x >> n) & others:  # another column joined to rows 0 and 1
                return False
        if members:
            _require_m4(tri)  # where compute_TI/compute_TII would check it
        if ctx.kind == "tauI":
            for x in members:
                if _strong_defect(x, n, full) and ctx.sigma.mask & ~x:
                    return False
        else:
            for x in members:
                if _weak_defect(x, n, full) and x != ctx.anchor.mask:
                    return False
        return True
    if ctx.kind == "tau0":
        ym = ctx.second.minus_mask
        c1, _ = ctx.cols
        r0, r1 = ctx.rows
        row1_c1, row0_c1 = 1 << (r1 * n + c1), 1 << (r0 * n + c1)
        # the trees holding Y-, X- and (r1, c1) but neither (r0, c1) nor X+
        lacks = row0_c1 | X.plus_mask
        for t in _trees_of(tri, _holders(tri, ym | xm | row1_c1)):
            if not t.mask & lacks and ctx.sigma.mask & ~t.mask:
                return False
        return True
    raise ValueError(f"unknown goodness kind {ctx.kind!r}")


def _staircase_masks(n: int) -> tuple[int, ...]:
    """Ascending tree masks of ``staircase(n)``, one per monotone staircase
    path in the 4 x n display grid: display row p is row (0, 2, 3, 1)[p] and
    display column q is column n - 1 - q.

    Built row by row over the grid: a cell's paths are those of the cell
    above and of the cell to its left, each with the cell's edge added."""
    above = [[0]] + [[] for _ in range(n - 1)]  # the start enters cell (0, 0)
    for i in (0, 2, 3, 1):
        left: list[int] = []
        for q in range(n):
            edge = 1 << (i * n + n - 1 - q)
            left = above[q] = [x | edge for x in above[q] + left]
    return tuple(sorted(above[-1]))


def staircase(n: int) -> Triangulation:
    """The target triangulation: trees noncrossing in the drawing with rows
    in display order (0,2,3,1) and columns reversed.  Trees correspond to
    monotone staircase paths in the 4 x n display grid."""
    dims = Dims(4, n).check()
    return Triangulation._trusted(dims, tuple(Simplex(dims, x) for x in _staircase_masks(n)))


class _Driver:
    """The working state of a run: applies certified flips to a working
    triangulation and records the steps.

    A checked driver validates its start when it is made, raising
    ``ProofGap`` if the start is invalid, and keeps that check's tree slots
    and edge bitsets (``triangulation._TreeSlots``) as ``slots``, which it
    carries from flip to flip: each flip's result is checked by a search
    from its added trees, narrowed by the slots' trees and the flip's
    certificate (``_TreeSlots.flip``).  A failed check raises, so the slots
    never flip from an invalid state.  An unchecked driver has no slots.
    ``connect`` and each public phase make one driver, so each validates
    its start exactly once.

    ``TI`` and ``TII`` are the strong and weak defect sets of the working
    triangulation, in mask order; the step measures, the phase loops and
    the reductions read them.  They are computed in full once, on entry:
    ``apply`` drops the flip's removed trees and tests only its added ones.

    ``adjacency`` is the run state (``orders._Adjacency``) that every
    ``build_precedence`` call of the run reuses.  ``connect`` runs one
    driver through the three phases, mirrored cases included: a mirrored
    case names its rows and works on the same state.

    ``apply`` flips a certificate of the working triangulation, checks the
    result and records the step.  ``flip`` certifies an asserted circuit
    for it, raising ``ProofGap`` when the circuit is unsupported.
    """

    def __init__(self, tri: Triangulation, check: bool = True):
        _require_m4(tri)
        self.T = tri
        self.steps: list[FlipStep] = []
        self.adjacency = _Adjacency(tri.dims)
        self.slots = None
        if check:
            self.slots, report = _validated_slots(tri)
            _ensure(report.ok, "input does not validate")
        self.TI, self.TII = compute_TI(tri), compute_TII(tri)

    def flip(self, X: Circuit, phase: str, **inner: int) -> None:
        res = supports_flip(self.T, X)
        if not isinstance(res, FlipCertificate):
            raise ProofGap(
                "asserted flip is unsupported",
                phase=phase,
                circuit=X,
                result=res,
                digest=self.T.digest(),
            )
        self.apply(res, phase, **inner)

    def apply(self, cert: FlipCertificate, phase: str, **inner: int) -> None:
        new = apply_flip(self.T, cert)
        if self.slots is not None and not self.slots.flip(new, cert).ok:
            raise ProofGap("flip produced an invalid triangulation", circuit=cert.circuit)
        self.T = new
        # a kept tree keeps its verdict, so only the added trees are tested
        removed = {t.mask for t in cert.removed}
        n = new.dims.n
        full = (1 << n) - 1

        def carried(defects, test):
            kept = [t for t in defects if t.mask not in removed]
            return _merged(kept, [t for t in cert.added if test(t.mask, n, full)])

        self.TI, self.TII = carried(self.TI, _strong_defect), carried(self.TII, _weak_defect)
        measures = {"tI": len(self.TI), "tII": len(self.TII)}
        measures.update(inner)
        self.steps.append(FlipStep(cert.circuit, phase, tuple(sorted(measures.items()))))


def _ensure(cond: bool, message: str, **context):
    if not cond:
        raise ProofGap(message, **context)


def _star_count(tri: Triangulation, xminus: Simplex) -> int:
    return _holders(tri, xminus.mask).bit_count()


def _path_rows_cols(path):
    """Rows and columns visited by a row-to-row tree path, in visit order."""
    rows = [path[0][0]]
    cols = []
    for k in range(0, len(path), 2):
        cols.append(path[k][1])
        rows.append(path[k + 1][0])
    return rows, cols


# ---------------------------------------------------------------- phase one


def phase_one(tri: Triangulation, check: bool = True) -> tuple[FlipSequence, Triangulation]:
    """Empty the strong defect set, one anchor tree at a time."""
    return _run(tri, check, _phase_one)


def _phase_one(drv: _Driver) -> None:
    defect = drv.TI
    while defect:
        before = len(defect)
        dg34 = build_precedence(drv.T, toward_row_free(2, 3), drv.adjacency)
        tau_I = select_extremal(defect, dg34)
        blocks = _shape_cols(tau_I)
        c1 = next(
            (j for j, nb in blocks.items() if 0 in nb and 1 in nb and 3 not in nb),
            None,
        )
        _ensure(c1 is not None, "no shape case matches the anchor", anchor=tau_I)
        case1_col = next(
            (
                j
                for j, nb in blocks.items()
                if j != c1 and ({0, 3} <= nb or {1, 3} <= nb)
            ),
            None,
        )
        if case1_col is not None:
            r0, r1 = (0, 1) if {0, 3} <= blocks[case1_col] else (1, 0)
            _case_one(drv, tau_I, c1, case1_col, r0=r0, r1=r1)
        elif blocks[c1] == frozenset((0, 1)):
            c2 = next((j for j, nb in blocks.items() if nb == frozenset((2, 3))), None)
            _ensure(c2 is not None, "no shape case matches the anchor", anchor=tau_I)
            c3 = next(
                (
                    j
                    for j, nb in blocks.items()
                    if nb in (frozenset((0, 2)), frozenset((1, 2)))
                ),
                None,
            )
            _ensure(c3 is not None, "no shape case matches the anchor", anchor=tau_I)
            r0, r1 = (1, 0) if blocks[c3] == frozenset((1, 2)) else (0, 1)
            _case_two(drv, tau_I, c1, c2, c3, r0=r0, r1=r1)
        else:
            _ensure(
                blocks[c1] == frozenset((0, 1, 2)),
                "no shape case matches the anchor",
                anchor=tau_I,
            )
            c2 = next(
                (j for j, nb in blocks.items() if nb == frozenset((2, 3))), None
            )
            _ensure(c2 is not None, "no shape case matches the anchor", anchor=tau_I)
            _case_three(drv, tau_I, c1, c2)
        defect = drv.TI
        _ensure(
            len(defect) < before,
            "phase one made no progress",
            before=before,
            after=len(defect),
        )


def _anchor_minimal(drv, xminus: Simplex, row: int, label: str) -> Simplex:
    try:
        return unique_minimal(star(drv.T, xminus), row)
    except Exception as exc:
        raise ProofGap(f"{label}: no unique minimal anchor", error=str(exc))


def _extremal_path(drv, trees, move, ends: tuple[int, int], label: str):
    """The extremal tree under the move filter, with the rows and columns of
    its path between the two end rows."""
    tau = select_extremal(trees, build_precedence(drv.T, move, drv.adjacency))
    path = tree_path(tau, *ends)
    _ensure(path is not None, f"{label}: path missing", tau=tau)
    return (tau, *_path_rows_cols(path))


def _reduce(
    drv: _Driver,
    X: Circuit,
    phase: str,
    label: str,
    *,
    filters,
    move,
    ends: tuple[int, int],
    replacement,
    stars: dict[str, Simplex],
    outer: bool,
    kept,
    good,
    shrinks,
    bounded,
) -> None:
    """Flip the target circuit X, first clearing the trees that obstruct it.

    While X is unsupported, the trees of its star that pass each of the
    (predicate on the mask, message) ``filters`` in turn obstruct it; the
    extremal one under ``move`` is flipped away by the circuit that
    ``replacement(tau, rows, cols)`` builds from its path between the rows
    ``ends``.  After each such flip every (tree, message) of ``kept`` must
    survive, every (context, message) of ``good`` must stay good, every
    (measure, message) of ``shrinks`` must shrink and none of ``bounded``
    may grow; a measure is a function of the driver.  Every flip records the
    star count of each face of ``stars`` under its name, and the flip of X
    also ``outer=1`` when ``outer``.
    """
    xm = X.minus_mask

    def star_counts():
        return {name: _star_count(drv.T, face) for name, face in stars.items()}

    while True:
        res = supports_flip(drv.T, X)
        if isinstance(res, FlipCertificate):
            drv.apply(res, phase, **star_counts(), **({"outer": 1} if outer else {}))
            return
        shrink_from = [measure(drv) for measure, _ in shrinks]
        bound_by = [measure(drv) for measure, _ in bounded]
        S = _trees_of(drv.T, _holders(drv.T, xm))
        for keep, message in filters:
            S = [t for t in S if keep(t.mask)]
            _ensure(S, message)
        tau, rows, cols = _extremal_path(drv, S, move, ends, label)
        drv.flip(replacement(tau, rows, cols), phase, **star_counts())
        for t, message in kept:
            _ensure(drv.T.contains(t), message)
        for ctx, message in good:
            _ensure(goodness(drv.T, ctx), message)
        for (measure, message), prev in zip(shrinks, shrink_from):
            _ensure(measure(drv) < prev, message)
        for (measure, message), prev in zip(bounded, bound_by):
            _ensure(measure(drv) <= prev, message)


def _case_one(drv: _Driver, tau_sel: Simplex, c1: int, c2: int, *, r0: int, r1: int) -> None:
    """Anchor shape has a column joined to {r0,r1} (not 3) and one to {r0,3}."""
    dims = drv.T.dims
    X = Circuit.from_cycle(dims, (r0, 3), (c1, c2))
    xminus = Simplex(dims, X.minus_mask)
    sigma_I = Simplex.from_edges(dims, [(r0, c1), (r1, c1), (r0, c2), (3, c2)])
    _ensure(sigma_I.issubset(tau_sel), "case 1: selected anchor misses its connector")
    tau_I = _anchor_minimal(drv, xminus, 3, "case 1")
    _ensure(sigma_I.issubset(tau_I), "case 1: anchor lost its connector", tau=tau_I)
    _ensure(
        free_equivalent(tau_sel, tau_I, 2),
        "case 1: redefined anchor not equivalent to the selected one",
    )
    ctx = GoodnessContext("tauI", tau_I, sigma_I, X, cols=(c1, c2))
    _ensure(goodness(drv.T, ctx), "case 1: star is not anchor-good")
    _reduce_case_one(drv, X, tau_I, ctx, c2, mid_row=2, end_row=3, phase="I", r0=r0, r1=r1)


def _reduce_case_one(
    drv, X: Circuit, tau_anchor: Simplex, ctx: GoodnessContext, c2: int,
    *, mid_row: int, end_row: int, phase: str, r0: int, r1: int,
) -> None:
    """The reduction of phase-one case 1 and of its phase-two mirror.

    The circuit runs r0 x c1 .. end_row x c2; obstructing trees are cleared
    by flips on circuits read off their row-r0-to-end_row path, which must
    pass mid_row first and may pass the free row r1 next: the path's rows
    and columns, closed through the anchor column c2.
    """
    dims = drv.T.dims
    xminus = Simplex(dims, X.minus_mask)
    xp = X.plus_mask
    defects = (lambda d: len(d.TI)) if phase == "I" else (lambda d: len(d.TII))

    def replacement(tau: Simplex, rows, cols) -> Circuit:
        _ensure(
            len(rows) >= 3 and rows[1] == mid_row,
            "inner: path does not pass the middle row first",
            rows=rows,
        )
        _ensure(cols[0] != c2, "inner: path reuses the second anchor column")
        if len(rows) == 3:
            g1, g2 = cols
            _ensure(g2 != c2, "inner: short path ends in the anchor column")
            xi = xminus.union(
                Simplex.from_edges(dims, [(r0, g1), (mid_row, g1), (mid_row, g2), (end_row, g2)])
            )
            tau_star = _anchor_minimal(drv, xi, r0, "inner")
            _ensure(
                (r1, g2) in tau_star,
                "inner: minimal tree misses the predicted free-row edge",
                tau=tau_star,
            )
            Y = Circuit.from_cycle(dims, rows, (*cols, c2))
            _ensure(
                tau_star == _anchor_minimal(drv, Simplex(dims, Y.minus_mask), r0, "inner"),
                "inner: minimal trees of the two stars disagree",
            )
            _ensure(
                free_equivalent(tau, tau_star, r1),
                "inner: replacement is not equivalent to the extremal tree",
            )
        else:
            _ensure(len(rows) == 4 and rows[2] == r1, "inner: unexpected path form", rows=rows)
            g1, g2, g3 = cols
            _ensure(g3 != c2 and g2 != c2, "inner: long path touches the anchor column")
            Y = Circuit.from_cycle(dims, rows, (*cols, c2))
            _ensure(
                tau == _anchor_minimal(drv, Simplex(dims, Y.minus_mask), r0, "inner"),
                "inner: obstructing tree is not the minimal tree of its star",
            )
        return Y

    _reduce(
        drv,
        X,
        phase,
        "inner",
        filters=((lambda x: not x & xp, "inner: no obstructing tree although flip unsupported"),),
        move=toward_row_free(r1, r0),
        ends=(r0, end_row),
        replacement=replacement,
        stars={"star_X": xminus},
        outer=True,
        kept=((tau_anchor, "inner: anchor tree was flipped away"),),
        good=((ctx, "inner: goodness lost after flip"),),
        shrinks=((lambda d: _star_count(d.T, xminus), "inner: star did not shrink"),),
        bounded=((defects, "inner: defect set grew"),),
    )


def _case_two(
    drv: _Driver, tau_sel: Simplex, c1: int, c2: int, c3: int, *, r0: int, r1: int
) -> None:
    """Anchor shape {r0,r1}, {2,3}, {r0,2} on columns c1, c2, c3."""
    dims = drv.T.dims
    X = Circuit.from_cycle(dims, (r0, 3, 2), (c1, c2, c3))
    xminus = Simplex(dims, X.minus_mask)
    sigma_I = Simplex.from_edges(
        dims, [(r0, c1), (r1, c1), (3, c2), (2, c2), (2, c3), (r0, c3)]
    )
    tau_I = _anchor_minimal(drv, xminus, 3, "case 2")
    _ensure(tau_I == tau_sel, "case 2: selected anchor is not the minimal tree")
    _ensure(sigma_I.issubset(tau_I), "case 2: anchor lost its connector")
    ctx = GoodnessContext("tauI", tau_I, sigma_I, X, cols=(c1, c2))
    _ensure(goodness(drv.T, ctx), "case 2: star is not anchor-good")
    xp, row3_c1 = X.plus_mask, 1 << (3 * dims.n + c1)

    def replacement(tau: Simplex, rows, cols) -> Circuit:
        _ensure(
            len(rows) >= 3 and rows[1] == 2 and cols[0] == c3,
            "case 2: path must leave through the third anchor column",
            rows=rows,
            cols=cols,
        )
        if len(rows) == 3:
            g2 = cols[1]
            _ensure(g2 not in (c1, c2), "case 2: short path reuses an anchor column")
            xi = xminus.union(
                Simplex.from_edges(dims, [(r0, c3), (2, c3), (2, g2), (3, g2)])
            )
            tau_star = _anchor_minimal(drv, xi, 3, "case 2")
            _ensure((r1, g2) in tau_star, "case 2: minimal tree misses the row-1 edge")
            Y = Circuit.from_cycle(dims, rows, (*cols, c1)).reverse()
            _ensure(
                tau_star == _anchor_minimal(drv, Simplex(dims, Y.minus_mask), 3, "case 2"),
                "case 2: minimal trees of the two stars disagree",
            )
            _ensure(
                free_equivalent(tau, tau_star, r1),
                "case 2: replacement is not equivalent to the extremal tree",
            )
        else:
            _ensure(len(rows) == 4 and rows[2] == r1, "case 2: unexpected path form", rows=rows)
            g2, g3 = cols[1], cols[2]
            _ensure(
                g3 not in (c1, c2) and g2 not in (c1, c2), "case 2: path reuses an anchor column"
            )
            Y = Circuit.from_cycle(dims, rows, (*cols, c1)).reverse()
            _ensure(
                tau == _anchor_minimal(drv, Simplex(dims, Y.minus_mask), 3, "case 2"),
                "case 2: obstructing tree is not the minimal tree of its star",
            )
        return Y

    _reduce(
        drv,
        X,
        "I",
        "case 2",
        filters=(
            (
                lambda x: (x & xp).bit_count() <= 1 and not x & row3_c1,
                "case 2: no obstructing tree although flip unsupported",
            ),
        ),
        move=toward_row_free(r1, 3),
        ends=(r0, 3),
        replacement=replacement,
        stars={"star_X": xminus},
        outer=True,
        kept=((tau_I, "case 2: anchor tree was flipped away"),),
        good=((ctx, "case 2: goodness lost after flip"),),
        shrinks=((lambda d: _star_count(d.T, xminus), "case 2: star did not shrink"),),
        bounded=((lambda d: len(d.TI), "case 2: defect set grew"),),
    )


def _case_three(drv: _Driver, tau_sel: Simplex, c1: int, c2: int) -> None:
    """Anchor shape {0,1,2} on c1 and {2,3} on c2; needs the two-level loop."""
    dims = drv.T.dims
    X = Circuit.from_cycle(dims, (2, 3), (c1, c2))
    xminus = Simplex(dims, X.minus_mask)
    sigma_I = Simplex.from_edges(
        dims, [(0, c1), (1, c1), (2, c1), (2, c2), (3, c2)]
    )
    tau_I = _anchor_minimal(drv, xminus, 3, "case 3")
    _ensure(tau_I == tau_sel, "case 3: selected anchor is not the minimal tree")
    _ensure(sigma_I.issubset(tau_I), "case 3: anchor lost its connector")
    ctx = GoodnessContext("tauI", tau_I, sigma_I, X, cols=(c1, c2))
    _ensure(goodness(drv.T, ctx), "case 3: star is not anchor-good")
    while True:
        res = supports_flip(drv.T, X)
        if isinstance(res, FlipCertificate):
            drv.apply(res, "I", star_X=_star_count(drv.T, xminus), outer=1)
            return
        side1 = _case_three_side(drv.T, X, c1, 0, 1)
        side2 = _case_three_side(drv.T, X, c1, 1, 0)
        _ensure(side1 or side2, "case 3: both side sets empty but flip unsupported")
        r0, r1 = (0, 1) if side1 else (1, 0)
        _case_three_claim(drv, X, tau_I, sigma_I, c1, c2, r0=r0, r1=r1)


def _case_three_side(tri, X: Circuit, c1: int, r0: int, r1: int) -> list[Simplex]:
    """Obstructing trees carrying row r1 x c1 but not row r0 x c1."""
    n = tri.dims.n
    has, lacks = 1 << (r1 * n + c1), 1 << (r0 * n + c1) | X.plus_mask
    return [t for t in _trees_of(tri, _holders(tri, X.minus_mask | has)) if not t.mask & lacks]


def _case_three_claim(
    drv, X: Circuit, tau_I: Simplex, sigma_I: Simplex, c1: int, c2: int,
    *, r0: int, r1: int,
) -> None:
    """Clear one extremal member of the side set: reduce the star of the
    circuit read off its path, then flip that circuit.  A tree obstructing
    it is cleared by the cycle of its own path from row 2 to row 3 followed
    by the side path back."""
    dims = drv.T.dims
    xminus = Simplex(dims, X.minus_mask)
    ctx = GoodnessContext("tauI", tau_I, sigma_I, X, cols=(c1, c2))
    entry_star = _star_count(drv.T, xminus)
    entry_side2 = len(_case_three_side(drv.T, X, c1, r1, r0))
    entry_defect = len(drv.TI)
    side1 = _case_three_side(drv.T, X, c1, r0, r1)
    _ensure(side1, "case 3 claim: side set emptied unexpectedly")
    tau0, side_rows, side_cols = _extremal_path(
        drv, side1, toward_row_free(r0, 3), (2, 3), "case 3"
    )
    g1 = side_cols[-1]  # the side path's column at row 3
    if len(side_rows) == 2:
        _ensure(g1 not in (c1, c2), "case 3: direct path reuses an anchor column")
    else:
        _ensure(
            len(side_rows) == 3 and side_rows[1] == r0,
            "case 3: side path must pass row 0",
            rows=side_rows,
        )
        _ensure(side_cols[0] != c1 and g1 != c2, "case 3: side path reuses an anchor column")
    Y = Circuit.from_cycle(dims, side_rows, (*side_cols, c1)).reverse()
    yminus_s = Simplex(dims, Y.minus_mask)
    sigma_0 = connecting_edges(tau0, [r1, 2, 3])
    rho = Simplex(dims, (Y.minus_mask | Y.plus_mask)).without_edge(3, c1)
    _ensure(
        sigma_0 == rho.with_edge(r1, c1),
        "case 3: connector disagrees with the predicted face",
        sigma_0=sigma_0,
    )
    _ensure(sigma_0.with_edge(3, c2).issubset(tau0), "case 3: connector not inside the side tree")
    if len(side_rows) == 2:
        tau_star = _anchor_minimal(drv, sigma_0.with_edge(3, c2), 3, "case 3")
        _ensure((r0, g1) in tau_star, "case 3: minimal tree misses the row-0 edge")
        _ensure(
            tau_star in _case_three_side(drv.T, X, c1, r0, r1),
            "case 3: replacement left the side set",
        )
        _ensure(
            tau_star == _anchor_minimal(drv, yminus_s, 3, "case 3"),
            "case 3: minimal trees of the two stars disagree",
        )
        _ensure(free_equivalent(tau0, tau_star, r0), "case 3: replacement not equivalent")
        tau0 = tau_star
    else:
        _ensure(
            tau0 == _anchor_minimal(drv, yminus_s, 3, "case 3"),
            "case 3: side tree is not the minimal tree of its star",
        )
    ctx0 = GoodnessContext("tau0", tau0, sigma_0, X, second=Y, cols=(c1, c2), rows=(r0, r1))
    _ensure(goodness(drv.T, ctx0), "case 3: side star is not side-anchor-good")
    ysize = len(Y)
    yall = Y.minus_mask | Y.plus_mask
    row3_c1, row0_g1 = 1 << (3 * dims.n + c1), 1 << (r0 * dims.n + g1)
    banned = {c1, c2, *side_cols}
    back_rows, back_cols = side_rows[-2:0:-1], side_cols[::-1]  # the side path from 3 to 2

    def replacement(tau: Simplex, rows, cols) -> Circuit:
        _ensure(
            rows[1] != r0,
            "case 3 inner: path through row 0 contradicts side goodness",
            rows=rows,
        )
        if len(rows) == 2:
            h1 = cols[0]
            _ensure(h1 not in banned, "case 3 inner: path reuses a protected column")
            Z = Circuit.from_cycle(dims, (*rows, *back_rows), (*cols, *back_cols))
            xi = xminus.union(yminus_s).union(
                Simplex.from_edges(dims, [(2, h1), (3, h1), (r0, g1)])
            )
            tau_star = _anchor_minimal(drv, xi, 2, "case 3 inner")
            _ensure((r1, h1) in tau_star, "case 3 inner: minimal tree misses the row-1 edge")
            _ensure(
                tau_star == _anchor_minimal(drv, Simplex(dims, Z.minus_mask), 2, "case 3 inner"),
                "case 3 inner: minimal trees of the two stars disagree",
            )
            _ensure(free_equivalent(tau, tau_star, r1), "case 3 inner: replacement not equivalent")
        else:
            _ensure(
                len(rows) == 3 and rows[1] == r1,
                "case 3 inner: unexpected path form",
                rows=rows,
            )
            h1, h2 = cols
            _ensure(
                h1 not in banned and h2 not in banned and h1 != c1 and h2 != c2,
                "case 3 inner: path reuses a protected column",
            )
            Z = Circuit.from_cycle(dims, (*rows, *back_rows), (*cols, *back_cols))
            _ensure(
                tau == _anchor_minimal(drv, Simplex(dims, Z.minus_mask), 2, "case 3 inner"),
                "case 3 inner: obstructing tree is not the minimal tree of its star",
            )
        return Z

    _reduce(
        drv,
        Y,
        "I",
        "case 3 inner",
        filters=(
            (
                lambda x: (x & yall).bit_count() <= ysize - 2 and not x & row3_c1,
                "case 3 inner: no obstructing tree although flip unsupported",
            ),
            (lambda x: x & row0_g1, "case 3 inner: no obstructing tree keeps the row-0 edge"),
        ),
        move=toward_row_free(r1, 2),
        ends=(2, 3),
        replacement=replacement,
        stars={"star_X": xminus, "star_Y": yminus_s},
        outer=False,
        kept=(
            (tau_I, "case 3 inner: anchor tree lost"),
            (tau0, "case 3 inner: side anchor lost"),
        ),
        good=(
            (ctx, "case 3 inner: goodness lost"),
            (ctx0, "case 3 inner: side goodness lost"),
        ),
        shrinks=(
            (lambda d: _star_count(d.T, yminus_s), "case 3 inner: side star did not shrink"),
        ),
        bounded=(
            (lambda d: _star_count(d.T, xminus), "case 3 inner: main star grew"),
            (
                lambda d: len(_case_three_side(d.T, X, c1, r1, r0)),
                "case 3 inner: opposite side set grew",
            ),
            (lambda d: len(d.TI), "case 3 inner: defect set grew"),
        ),
    )
    _ensure(drv.T.contains(tau_I), "case 3 claim: anchor tree lost")
    _ensure(goodness(drv.T, ctx), "case 3 claim: goodness lost")
    _ensure(_star_count(drv.T, xminus) < entry_star, "case 3 claim: star did not shrink")
    _ensure(
        len(_case_three_side(drv.T, X, c1, r1, r0)) <= entry_side2,
        "case 3 claim: opposite side set grew",
    )
    _ensure(len(drv.TI) <= entry_defect, "case 3 claim: defect set grew")


# ---------------------------------------------------------------- phase two


def phase_two(tri: Triangulation, check: bool = True) -> tuple[FlipSequence, Triangulation]:
    """Empty the weak defect set; the reduction mirrors case 1 with the
    roles of rows 2 and 3 reversed."""
    return _run(tri, check, _phase_two)


def _phase_two(drv: _Driver) -> None:
    _ensure(not drv.TI, "phase two requires an empty strong defect set")
    defect = drv.TII
    while defect:
        _ensure(
            not drv.TI,
            "phase two: strong defect set reappeared",
        )
        before = len(defect)
        dg3 = build_precedence(drv.T, toward_row(2), drv.adjacency)
        tau_II = select_extremal(defect, dg3)
        blocks = _shape_cols(tau_II)
        shapes = frozenset(blocks.values())
        _ensure(
            shapes
            in (
                {frozenset((0, 1, 3)), frozenset((0, 2))},
                {frozenset((0, 1, 3)), frozenset((1, 2))},
            ),
            "phase two: anchor shape outside the two allowed shapes",
            shape=shapes,
        )
        r0, r1 = (1, 0) if frozenset((1, 2)) in shapes else (0, 1)
        _phase_two_case(drv, tau_II, r0=r0, r1=r1)
        defect = drv.TII
        _ensure(
            len(defect) < before,
            "phase two made no progress",
            before=before,
        )


def _phase_two_case(drv: _Driver, tau_sel: Simplex, *, r0: int, r1: int) -> None:
    """Anchor shape {0,1,3} on c1 and {r0,2} on c2."""
    dims = drv.T.dims
    blocks = _shape_cols(tau_sel)
    c1 = next((j for j, nb in blocks.items() if nb == frozenset((0, 1, 3))), None)
    c2 = next((j for j, nb in blocks.items() if nb == frozenset((r0, 2))), None)
    _ensure(
        c1 is not None and c2 is not None,
        "phase two: anchor shape outside the two allowed shapes",
        shape=frozenset(blocks.values()),
    )
    X = Circuit.from_cycle(dims, (r0, 2), (c1, c2))
    xminus = Simplex(dims, X.minus_mask)
    tau_II = _anchor_minimal(drv, xminus, 2, "phase two")
    _ensure(tau_II == tau_sel, "phase two: selected anchor is not the minimal tree")
    _ensure(
        Simplex.from_edges(dims, [(r0, c1), (r1, c1), (3, c1), (r0, c2), (2, c2)]).issubset(
            tau_II
        ),
        "phase two: anchor lost its connector",
    )
    ctx = GoodnessContext("tauII", tau_II, None, X, cols=(c1, c2))
    _ensure(goodness(drv.T, ctx), "phase two: star is not anchor-good")
    _reduce_case_one(drv, X, tau_II, ctx, c2, mid_row=3, end_row=2, phase="II", r0=r0, r1=r1)


# -------------------------------------------------------------- phase three


def _total_order(tri: Triangulation, i1: int, i2: int) -> tuple[int, ...]:
    return restriction_order(tri, i1, i2).as_total()


def _has_order(tri: Triangulation, i1: int, i2: int, order: tuple[int, ...]) -> bool:
    """Rows (i1, i2) have the total order ``order``: the face queries of
    ``orders._order_holds`` accept it, or else a full read gives it.  A
    fast accept never differs from the read, so the verdict, and any
    error the read raises, is the read's."""
    return _order_holds(tri, i1, i2, order) or _total_order(tri, i1, i2) == order


def phase_three(tri: Triangulation, check: bool = True) -> tuple[FlipSequence, Triangulation]:
    """Sort both column orders to the identity and land on the staircase.

    One loop carries o12 and o34, the orders of rows {0,1} and {2,3}.  It
    reads both at entry and then predicts them: each other order test,
    the four upper orders at entry and both orders after each square flip
    or five-flip macro, checks the predicted order by face queries and
    reads the order only when that check fails."""
    return _run(tri, check, _phase_three)


def _phase_three(drv: _Driver) -> None:
    dims = drv.T.dims
    _ensure(not drv.TII, "phase three requires an empty weak defect set")
    o12 = _total_order(drv.T, 0, 1)
    for i1, i2 in ((0, 2), (0, 3), (2, 1), (3, 1)):
        _ensure(
            _has_order(drv.T, i1, i2, o12),
            "phase three: the five upper orders disagree",
            pair=(i1, i2),
        )
    o34 = _total_order(drv.T, 2, 3)
    identity = tuple(range(dims.n))

    while True:
        if o12 != o34:
            rank = {j: p for p, j in enumerate(o12)}
            p = next(q for q in range(len(o34) - 1) if rank[o34[q]] > rank[o34[q + 1]])
            j, j2 = o34[p], o34[p + 1]
            drv.flip(Circuit.from_cycle(dims, (3, 2), (j, j2)), "III")
            o34 = o34[:p] + (j2, j) + o34[p + 2 :]
            _ensure(
                _has_order(drv.T, 2, 3, o34),
                "phase three: square flip did not swap the expected pair",
            )
            _ensure(
                _has_order(drv.T, 0, 1, o12),
                "phase three: square flip disturbed the upper order",
            )
            _ensure(not drv.TII, "phase three: defect set reappeared")
            continue
        if o12 == identity:
            break
        p = next(q for q in range(len(o12) - 1) if o12[q] > o12[q + 1])
        j, j2 = o12[p], o12[p + 1]
        _ensure(o12 == o34, "phase three: macro requires synchronised orders")
        _ensure(p + 1 < len(o12) and o12[p + 1] == j2, "phase three: columns not consecutive")
        for a, b in ((2, 0), (1, 3), (1, 0), (1, 2), (3, 0)):
            drv.flip(Circuit.from_cycle(dims, (a, b), (j, j2)), "III")
        o12 = o12[:p] + (j2, j) + o12[p + 2 :]
        _ensure(_has_order(drv.T, 0, 1, o12), "phase three: macro did not swap the upper pair")
        _ensure(
            _has_order(drv.T, 2, 3, o34),
            "phase three: macro disturbed the lower order",
        )
        _ensure(not drv.TII, "phase three: defect set reappeared after macro")
    _ensure(
        tuple(t.mask for t in drv.T.maximal) == _staircase_masks(dims.n),
        "phase three: sorted orders but not the staircase",
    )


def _run(tri: Triangulation, check: bool, *steps) -> tuple[FlipSequence, Triangulation]:
    """Run the phase steps in turn on one driver of ``tri``: their flips as
    one sequence, and the triangulation it ends at."""
    drv = _Driver(tri, check)
    for step in steps:
        step(drv)
    return FlipSequence(tri.dims, tri.digest(), drv.T.digest(), tuple(drv.steps)), drv.T


def connect(tri: Triangulation, check: bool = True) -> FlipSequence:
    """Flip sequence from the given triangulation to the staircase.

    Runs the three phases on one driver and emits its steps as one
    sequence; to connect two arbitrary triangulations, chain one sequence
    with the reversal of the other.  The driver carries the run's state
    through the three phases: the adjacency run state, the check's tree
    slots and the defect sets of the working triangulation."""
    return _run(tri, check, _phase_one, _phase_two, _phase_three)[0]
