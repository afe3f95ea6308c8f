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
(the usual "without loss of generality" on rows 0/1) run the canonical
branch on a row-swapped copy and swap the emitted circuits back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .core import Circuit, Dims, Simplex, connecting_edges, shape, tree_path
from .flips import FlipCertificate, apply_flip, supports_flip
from .orders import (
    build_precedence,
    free_equivalent,
    restriction_order,
    select_extremal,
    toward_row,
    toward_row_free,
    unique_minimal,
)
from .triangulation import Triangulation, star, swap_rows, validate, validate_incremental


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

    With check, each step's result gets ``validate_incremental``: the full
    ``validate`` after the first step unless the input is certified, the
    incremental check after later ones, with the same verdict."""
    if tri.digest() != seq.start:
        raise ValueError("sequence does not start at this triangulation")
    for step in seq.steps:
        res = supports_flip(tri, step.circuit)
        if not isinstance(res, FlipCertificate):
            raise ProofGap("replayed circuit is not a flip", circuit=step.circuit)
        new = apply_flip(tri, res)
        if check and not validate_incremental(new, res.added, tri).ok:
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
    """Anchors of one reduction round and the star the predicate ranges over."""

    kind: str  # "tauI" | "tauII" | "tau0"
    anchor: Simplex
    sigma: Optional[Simplex]
    circuit: Circuit
    second: Optional[Circuit] = None
    cols: tuple[int, int] = (0, 1)


def goodness(tri: Triangulation, ctx: GoodnessContext) -> bool:
    """Literal evaluation of the goodness predicate; vacuously true when
    the supporting face has already left the triangulation."""
    n = tri.dims.n
    full = (1 << n) - 1
    X = ctx.circuit
    xm = X.minus_mask
    if ctx.kind in ("tauI", "tauII"):
        members = [t.mask for t in tri.maximal if not xm & ~t.mask]
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
        row1_c1, row0_c1 = 1 << (n + c1), 1 << c1
        for t in tri.maximal:
            x = t.mask
            if ym & ~x:
                continue
            in_x1 = not xm & ~x and x & row1_c1 and not x & row0_c1 and not x & X.plus_mask
            if in_x1 and ctx.sigma.mask & ~x:
                return False
        return True
    raise ValueError(f"unknown goodness kind {ctx.kind!r}")


def staircase(n: int) -> Triangulation:
    """The target triangulation: trees noncrossing in the drawing with rows
    in display order (0,2,3,1) and columns reversed.  Trees correspond to
    monotone staircase paths in the 4 x n display grid."""
    dims = Dims(4, n).check()
    rowmap = (0, 2, 3, 1)
    colmap = tuple(range(n - 1, -1, -1))
    trees = []
    for rowsteps in combinations(range(3 + n - 1), 3):
        cells = []
        p = q = 0
        cells.append((p, q))
        for step in range(3 + n - 1):
            if step in rowsteps:
                p += 1
            else:
                q += 1
            cells.append((p, q))
        trees.append(
            Simplex.from_edges(dims, [(rowmap[p], colmap[q]) for p, q in cells])
        )
    return Triangulation(dims, trees)


class _Driver:
    """Applies certified flips to a working triangulation, recording steps.

    With check, every flip's result goes through ``validate_incremental``
    from the working triangulation.  Once that is certified (see
    ``Triangulation``), a flip needs only the incremental check, and its
    result is certified in turn; an uncertified start, such as the input of
    ``phase_two`` or ``phase_three`` called directly, gets the full
    ``validate`` on its first flip.  ``phase_one`` validates its input, so
    the states ``connect`` hands on are certified.  A row-swapped
    sub-driver works on a ``swap_rows`` copy, which keeps the status.
    """

    def __init__(self, tri: Triangulation, check: bool = True):
        self.T = tri
        self.check = check
        self.steps: list[FlipStep] = []

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
        new = apply_flip(self.T, res)
        if self.check and not validate_incremental(new, res.added, self.T).ok:
            raise ProofGap("flip produced an invalid triangulation", circuit=X)
        self.T = new
        measures = {"tI": len(compute_TI(new)), "tII": len(compute_TII(new))}
        measures.update(inner)
        self.steps.append(FlipStep(X, phase, tuple(sorted(measures.items()))))

    def absorb_mirrored(self, sub: "_Driver", a: int, b: int) -> None:
        for step in sub.steps:
            self.steps.append(
                FlipStep(_swap_circuit(step.circuit, a, b), step.phase, step.measures)
            )
        self.T = swap_rows(sub.T, a, b)


def _swap_simplex(s: Simplex, a: int, b: int) -> Simplex:
    swap = {a: b, b: a}
    return Simplex.from_edges(s.dims, [(swap.get(i, i), j) for i, j in s])


def _swap_circuit(X: Circuit, a: int, b: int) -> Circuit:
    return Circuit(
        X.dims,
        _swap_simplex(Simplex(X.dims, X.minus_mask), a, b).mask,
        _swap_simplex(Simplex(X.dims, X.plus_mask), a, b).mask,
    )


def _ensure(cond: bool, message: str, **context):
    if not cond:
        raise ProofGap(message, **context)


def _star_count(tri: Triangulation, xminus: Simplex) -> int:
    x = xminus.mask
    return sum(1 for t in tri.maximal if not x & ~t.mask)


def _shape_cols(tau: Simplex) -> dict[int, frozenset[int]]:
    """Columns joined to two rows or more, with those rows."""
    m, n = tau.dims
    full = (1 << n) - 1
    rows = [(tau.mask >> (i * n)) & full for i in range(m)]
    out = {}
    for j in range(n):
        nb = frozenset(i for i in range(m) if rows[i] >> j & 1)
        if len(nb) > 1:
            out[j] = nb
    return out


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
    _require_m4(tri)
    if check:
        _ensure(validate(tri).ok, "input does not validate")
    drv = _Driver(tri, check)
    while True:
        defect = compute_TI(drv.T)
        if not defect:
            break
        before = len(defect)
        dg34 = build_precedence(drv.T, toward_row_free(2, 3))
        tau_I = select_extremal(defect, dg34, "max")
        blocks = _shape_cols(tau_I)
        c1 = next(
            j for j, nb in blocks.items() if 0 in nb and 1 in nb and 3 not in nb
        )
        case1_col = next(
            (
                j
                for j, nb in blocks.items()
                if j != c1 and ({0, 3} <= nb or {1, 3} <= nb)
            ),
            None,
        )
        if case1_col is not None:
            mirrored = not {0, 3} <= blocks[case1_col]
            _dispatch_mirrorable(drv, mirrored, _case_one, tau_I, c1, case1_col)
        elif blocks[c1] == frozenset((0, 1)):
            c2 = next(j for j, nb in blocks.items() if nb == frozenset((2, 3)))
            c3 = next(
                (
                    j
                    for j, nb in blocks.items()
                    if nb in (frozenset((0, 2)), frozenset((1, 2)))
                ),
                None,
            )
            _ensure(c3 is not None, "no shape case matches the anchor", anchor=tau_I)
            mirrored = blocks[c3] == frozenset((1, 2))
            _dispatch_mirrorable(drv, mirrored, _case_two, tau_I, c1, c2, c3)
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
        _ensure(
            len(compute_TI(drv.T)) < before,
            "phase one made no progress",
            before=before,
            after=len(compute_TI(drv.T)),
        )
    seq = FlipSequence(tri.dims, tri.digest(), drv.T.digest(), tuple(drv.steps))
    return seq, drv.T


def _dispatch_mirrorable(drv: _Driver, mirrored: bool, fn, tau_sel: Simplex, *cols) -> None:
    """Run a canonical case, on a rows-0/1 swapped copy when mirrored."""
    if not mirrored:
        fn(drv, tau_sel, *cols)
        return
    sub = _Driver(swap_rows(drv.T, 0, 1), drv.check)
    fn(sub, _swap_simplex(tau_sel, 0, 1), *cols)
    drv.absorb_mirrored(sub, 0, 1)


def _anchor_minimal(drv, xminus: Simplex, row: int, label: str) -> Simplex:
    st = star(drv.T, xminus)
    try:
        return unique_minimal(st, row)
    except Exception as exc:
        raise ProofGap(f"{label}: no unique minimal anchor", error=str(exc))


def _path_to_form(tau: Simplex, start: int, end: int, *, label: str):
    """Classify the start-to-end path of the tree by its visited rows."""
    path = tree_path(tau, start, end)
    _ensure(path is not None, f"{label}: path missing", tau=tau)
    rows, cols = _path_rows_cols(path)
    return rows, cols


def _case_one(drv: _Driver, tau_sel: Simplex, c1: int, c2: int) -> None:
    """Anchor shape has a column joined to {0,1} (not 3) and one to {0,3}."""
    dims = drv.T.dims
    X = Circuit.from_edges(dims, [(0, c1), (3, c2)], [(3, c1), (0, c2)])
    xminus = Simplex(dims, X.minus_mask)
    sigma_I = Simplex.from_edges(dims, [(0, c1), (1, c1), (0, c2), (3, c2)])
    _ensure(sigma_I.issubset(tau_sel), "case 1: selected anchor misses its connector")
    tau_I = _anchor_minimal(drv, xminus, 3, "case 1")
    _ensure(sigma_I.issubset(tau_I), "case 1: anchor lost its connector", tau=tau_I)
    _ensure(
        free_equivalent(tau_sel, tau_I, 2),
        "case 1: redefined anchor not equivalent to the selected one",
    )
    ctx = GoodnessContext("tauI", tau_I, sigma_I, X, cols=(c1, c2))
    _ensure(goodness(drv.T, ctx), "case 1: star is not anchor-good")
    _inner_reduction_case1(
        drv,
        X,
        tau_I,
        ctx,
        c1,
        c2,
        mid_row=2,
        end_row=3,
        minimal_row=0,
        free_row=1,
        phase="I",
    )


def _inner_reduction_case1(
    drv,
    X: Circuit,
    tau_anchor: Simplex,
    ctx: GoodnessContext,
    c1: int,
    c2: int,
    *,
    mid_row: int,
    end_row: int,
    minimal_row: int,
    free_row: int,
    phase: str,
) -> None:
    """Shared reduction for phase-one case 1 and its phase-two mirror.

    The circuit runs minimal_row x c1 .. end_row x c2; obstructing trees
    are cleared by flips on circuits read off their minimal_row-to-end_row
    path, which must pass mid_row first.
    """
    dims = drv.T.dims
    xminus = Simplex(dims, X.minus_mask)
    defect_count = (lambda t: len(compute_TI(t))) if phase == "I" else (
        lambda t: len(compute_TII(t))
    )
    while True:
        res = supports_flip(drv.T, X)
        if isinstance(res, FlipCertificate):
            drv.flip(X, phase, star_X=_star_count(drv.T, xminus), outer=1)
            return
        prev_star = _star_count(drv.T, xminus)
        prev_defect = defect_count(drv.T)
        xm, xp = X.minus_mask, X.plus_mask
        S = [t for t in drv.T.maximal if not xm & ~t.mask and not t.mask & xp]
        _ensure(S, "inner: no obstructing tree although flip unsupported")
        dg = build_precedence(drv.T, toward_row_free(free_row, minimal_row))
        tau = select_extremal(S, dg, "max")
        rows, cols = _path_to_form(tau, minimal_row, end_row, label="inner")
        _ensure(
            len(rows) >= 3 and rows[1] == mid_row,
            "inner: path does not pass the middle row first",
            rows=rows,
        )
        _ensure(cols[0] != c2, "inner: path reuses the second anchor column")
        if len(rows) == 3:
            g1, g2 = cols
            _ensure(g2 != c2, "inner: short path ends in the anchor column")
            yminus = [(minimal_row, g1), (mid_row, g2), (end_row, c2)]
            yplus = [(mid_row, g1), (end_row, g2), (minimal_row, c2)]
            xi = xminus.union(Simplex.from_edges(dims, [(minimal_row, g1), (mid_row, g1), (mid_row, g2), (end_row, g2)]))
            tau_star = _anchor_minimal(drv, xi, minimal_row, "inner")
            _ensure(
                (free_row, g2) in tau_star,
                "inner: minimal tree misses the predicted free-row edge",
                tau=tau_star,
            )
            Y = Circuit.from_edges(dims, yminus, yplus)
            _ensure(
                tau_star
                == _anchor_minimal(drv, Simplex(dims, Y.minus_mask), minimal_row, "inner"),
                "inner: minimal trees of the two stars disagree",
            )
            _ensure(
                free_equivalent(tau, tau_star, free_row),
                "inner: replacement is not equivalent to the extremal tree",
            )
        else:
            _ensure(len(rows) == 4 and rows[2] == free_row, "inner: unexpected path form", rows=rows)
            g1, g2, g3 = cols
            _ensure(g3 != c2 and g2 != c2, "inner: long path touches the anchor column")
            yminus = [(minimal_row, g1), (mid_row, g2), (free_row, g3), (end_row, c2)]
            yplus = [(mid_row, g1), (free_row, g2), (end_row, g3), (minimal_row, c2)]
            Y = Circuit.from_edges(dims, yminus, yplus)
            _ensure(
                tau == _anchor_minimal(drv, Simplex(dims, Y.minus_mask), minimal_row, "inner"),
                "inner: obstructing tree is not the minimal tree of its star",
            )
        drv.flip(Y, phase, star_X=_star_count(drv.T, xminus))
        _ensure(drv.T.contains(tau_anchor), "inner: anchor tree was flipped away")
        _ensure(goodness(drv.T, ctx), "inner: goodness lost after flip")
        _ensure(
            _star_count(drv.T, xminus) < prev_star,
            "inner: star did not shrink",
        )
        _ensure(
            defect_count(drv.T) <= prev_defect,
            "inner: defect set grew",
        )


def _case_two(drv: _Driver, tau_sel: Simplex, c1: int, c2: int, c3: int) -> None:
    """Anchor shape {0,1}, {2,3}, {0,2} on columns c1, c2, c3."""
    dims = drv.T.dims
    X = Circuit.from_edges(
        dims, [(0, c1), (3, c2), (2, c3)], [(3, c1), (2, c2), (0, c3)]
    )
    xminus = Simplex(dims, X.minus_mask)
    sigma_I = Simplex.from_edges(
        dims, [(0, c1), (1, c1), (3, c2), (2, c2), (2, c3), (0, c3)]
    )
    tau_I = _anchor_minimal(drv, xminus, 3, "case 2")
    _ensure(tau_I == tau_sel, "case 2: selected anchor is not the minimal tree")
    _ensure(sigma_I.issubset(tau_I), "case 2: anchor lost its connector")
    ctx = GoodnessContext("tauI", tau_I, sigma_I, X, cols=(c1, c2))
    _ensure(goodness(drv.T, ctx), "case 2: star is not anchor-good")
    while True:
        res = supports_flip(drv.T, X)
        if isinstance(res, FlipCertificate):
            drv.flip(X, "I", star_X=_star_count(drv.T, xminus), outer=1)
            return
        prev_star = _star_count(drv.T, xminus)
        prev_defect = len(compute_TI(drv.T))
        xm, xp, row3_c1 = X.minus_mask, X.plus_mask, 1 << (3 * dims.n + c1)
        S = [
            t
            for t in drv.T.maximal
            if not xm & ~t.mask and bin(t.mask & xp).count("1") <= 1 and not t.mask & row3_c1
        ]
        _ensure(S, "case 2: no obstructing tree although flip unsupported")
        dg24 = build_precedence(drv.T, toward_row_free(1, 3))
        tau = select_extremal(S, dg24, "max")
        rows, cols = _path_to_form(tau, 0, 3, label="case 2")
        _ensure(
            len(rows) >= 3 and rows[1] == 2 and cols[0] == c3,
            "case 2: path must leave through the third anchor column",
            rows=rows,
            cols=cols,
        )
        if len(rows) == 3:
            g2 = cols[1]
            _ensure(g2 not in (c1, c2), "case 2: short path reuses an anchor column")
            yminus = [(0, c1), (3, g2), (2, c3)]
            yplus = [(3, c1), (2, g2), (0, c3)]
            xi = xminus.union(
                Simplex.from_edges(dims, [(0, c3), (2, c3), (2, g2), (3, g2)])
            )
            tau_star = _anchor_minimal(drv, xi, 3, "case 2")
            _ensure((1, g2) in tau_star, "case 2: minimal tree misses the row-1 edge")
            Y = Circuit.from_edges(dims, yminus, yplus)
            _ensure(
                tau_star == _anchor_minimal(drv, Simplex(dims, Y.minus_mask), 3, "case 2"),
                "case 2: minimal trees of the two stars disagree",
            )
            _ensure(
                free_equivalent(tau, tau_star, 1),
                "case 2: replacement is not equivalent to the extremal tree",
            )
        else:
            _ensure(len(rows) == 4 and rows[2] == 1, "case 2: unexpected path form", rows=rows)
            g2, g3 = cols[1], cols[2]
            _ensure(g3 not in (c1, c2) and g2 not in (c1, c2), "case 2: path reuses an anchor column")
            yminus = [(0, c1), (3, g3), (1, g2), (2, c3)]
            yplus = [(3, c1), (1, g3), (2, g2), (0, c3)]
            Y = Circuit.from_edges(dims, yminus, yplus)
            _ensure(
                tau == _anchor_minimal(drv, Simplex(dims, Y.minus_mask), 3, "case 2"),
                "case 2: obstructing tree is not the minimal tree of its star",
            )
        drv.flip(Y, "I", star_X=_star_count(drv.T, xminus))
        _ensure(drv.T.contains(tau_I), "case 2: anchor tree was flipped away")
        _ensure(goodness(drv.T, ctx), "case 2: goodness lost after flip")
        _ensure(_star_count(drv.T, xminus) < prev_star, "case 2: star did not shrink")
        _ensure(len(compute_TI(drv.T)) <= prev_defect, "case 2: defect set grew")


def _case_three(drv: _Driver, tau_sel: Simplex, c1: int, c2: int) -> None:
    """Anchor shape {0,1,2} on c1 and {2,3} on c2; needs the two-level loop."""
    dims = drv.T.dims
    X = Circuit.from_edges(dims, [(2, c1), (3, c2)], [(3, c1), (2, c2)])
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
            drv.flip(X, "I", star_X=_star_count(drv.T, xminus), outer=1)
            return
        side1 = _case_three_side(drv.T, X, c1, swapped=False)
        side2 = _case_three_side(drv.T, X, c1, swapped=True)
        _ensure(side1 or side2, "case 3: both side sets empty but flip unsupported")
        if side1:
            _case_three_claim(drv, X, tau_I, sigma_I, ctx, c1, c2)
        else:
            sub = _Driver(swap_rows(drv.T, 0, 1), drv.check)
            _case_three_claim(
                sub,
                X,
                _swap_simplex(tau_I, 0, 1),
                _swap_simplex(sigma_I, 0, 1),
                GoodnessContext(
                    "tauI",
                    _swap_simplex(tau_I, 0, 1),
                    _swap_simplex(sigma_I, 0, 1),
                    X,
                    cols=(c1, c2),
                ),
                c1,
                c2,
            )
            drv.absorb_mirrored(sub, 0, 1)


def _case_three_side(tri, X: Circuit, c1: int, swapped: bool) -> list[Simplex]:
    """Obstructing trees carrying row 1 x c1 (or row 0 x c1 when swapped)."""
    a, b = (1, 0) if not swapped else (0, 1)
    n = tri.dims.n
    xm, xp = X.minus_mask, X.plus_mask
    has, lacks = 1 << (a * n + c1), 1 << (b * n + c1)
    return [
        t
        for t in tri.maximal
        if not xm & ~t.mask and t.mask & has and not t.mask & lacks and not t.mask & xp
    ]


def _case_three_claim(drv, X, tau_I, sigma_I, ctx, c1, c2) -> None:
    """Clear one extremal member of the side set with its own inner loop."""
    dims = drv.T.dims
    xminus = Simplex(dims, X.minus_mask)
    entry_star = _star_count(drv.T, xminus)
    entry_side2 = len(_case_three_side(drv.T, X, c1, swapped=True))
    entry_defect = len(compute_TI(drv.T))
    side1 = _case_three_side(drv.T, X, c1, swapped=False)
    _ensure(side1, "case 3 claim: side set emptied unexpectedly")
    dg14 = build_precedence(drv.T, toward_row_free(0, 3))
    tau0 = select_extremal(side1, dg14, "max")
    rows, cols = _path_to_form(tau0, 2, 3, label="case 3")
    if len(rows) == 2:
        two_step = False
        g1 = cols[0]
        _ensure(g1 not in (c1, c2), "case 3: direct path reuses an anchor column")
        yminus = [(2, c1), (3, g1)]
        yplus = [(3, c1), (2, g1)]
        g2 = None
    else:
        _ensure(
            len(rows) == 3 and rows[1] == 0,
            "case 3: side path must pass row 0",
            rows=rows,
        )
        two_step = True
        g2, g1 = cols  # column at row 2 first, column at row 3 second
        _ensure(g2 != c1 and g1 != c2, "case 3: side path reuses an anchor column")
        yminus = [(2, c1), (3, g1), (0, g2)]
        yplus = [(3, c1), (0, g1), (2, g2)]
    Y = Circuit.from_edges(dims, yminus, yplus)
    yminus_s = Simplex(dims, Y.minus_mask)
    sigma_0 = connecting_edges(tau0, [1, 2, 3])
    rho = Simplex(dims, (Y.minus_mask | Y.plus_mask)).without_edge(3, c1)
    _ensure(
        sigma_0 == rho.with_edge(1, c1),
        "case 3: connector disagrees with the predicted face",
        sigma_0=sigma_0,
    )
    _ensure(sigma_0.with_edge(3, c2).issubset(tau0), "case 3: connector not inside the side tree")
    if not two_step:
        tau_star = _anchor_minimal(drv, sigma_0.with_edge(3, c2), 3, "case 3")
        _ensure((0, g1) in tau_star, "case 3: minimal tree misses the row-0 edge")
        _ensure(
            tau_star in _case_three_side(drv.T, X, c1, swapped=False),
            "case 3: replacement left the side set",
        )
        _ensure(
            tau_star == _anchor_minimal(drv, yminus_s, 3, "case 3"),
            "case 3: minimal trees of the two stars disagree",
        )
        _ensure(free_equivalent(tau0, tau_star, 0), "case 3: replacement not equivalent")
        tau0 = tau_star
    else:
        _ensure(
            tau0 == _anchor_minimal(drv, yminus_s, 3, "case 3"),
            "case 3: side tree is not the minimal tree of its star",
        )
    ctx0 = GoodnessContext("tau0", tau0, sigma_0, X, second=Y, cols=(c1, c2))
    _ensure(goodness(drv.T, ctx0), "case 3: side star is not side-anchor-good")
    while True:
        res = supports_flip(drv.T, Y)
        if isinstance(res, FlipCertificate):
            drv.flip(
                Y,
                "I",
                star_X=_star_count(drv.T, xminus),
                star_Y=_star_count(drv.T, yminus_s),
            )
            break
        _case_three_subclaim(drv, X, Y, tau_I, tau0, ctx, ctx0, c1, c2, g1, g2, two_step)
    _ensure(drv.T.contains(tau_I), "case 3 claim: anchor tree lost")
    _ensure(goodness(drv.T, ctx), "case 3 claim: goodness lost")
    _ensure(_star_count(drv.T, xminus) < entry_star, "case 3 claim: star did not shrink")
    _ensure(
        len(_case_three_side(drv.T, X, c1, swapped=True)) <= entry_side2,
        "case 3 claim: opposite side set grew",
    )
    _ensure(len(compute_TI(drv.T)) <= entry_defect, "case 3 claim: defect set grew")


def _case_three_subclaim(
    drv, X, Y, tau_I, tau0, ctx, ctx0, c1, c2, g1, g2, two_step
) -> None:
    """One flip that shrinks the side star while preserving all anchors."""
    dims = drv.T.dims
    xminus = Simplex(dims, X.minus_mask)
    yminus_s = Simplex(dims, Y.minus_mask)
    prev = {
        "star_X": _star_count(drv.T, xminus),
        "star_Y": _star_count(drv.T, yminus_s),
        "side2": len(_case_three_side(drv.T, X, c1, swapped=True)),
        "defect": len(compute_TI(drv.T)),
    }
    ysize = len(Y)
    ym, yall = Y.minus_mask, Y.minus_mask | Y.plus_mask
    row3_c1, row0_g1 = 1 << (3 * dims.n + c1), 1 << g1
    S = [
        t
        for t in drv.T.maximal
        if not ym & ~t.mask
        and bin(t.mask & yall).count("1") <= ysize - 2
        and not t.mask & row3_c1
    ]
    _ensure(S, "case 3 inner: no obstructing tree although flip unsupported")
    Sp = [t for t in S if t.mask & row0_g1]
    _ensure(Sp, "case 3 inner: no obstructing tree keeps the row-0 edge")
    dg23 = build_precedence(drv.T, toward_row_free(1, 2))
    tau = select_extremal(Sp, dg23, "max")
    rows, cols = _path_to_form(tau, 2, 3, label="case 3 inner")
    _ensure(rows[1] != 0, "case 3 inner: path through row 0 contradicts side goodness", rows=rows)
    banned = {c1, c2, g1} | ({g2} if two_step else set())
    if len(rows) == 2:
        h1 = cols[0]
        _ensure(h1 not in banned, "case 3 inner: path reuses a protected column")
        zminus = [(2, h1), (3, g1)]
        zplus = [(3, h1), (2, g1)]
        if two_step:
            zminus.append((0, g2))
            zplus = [(3, h1), (0, g1), (2, g2)]
        Z = Circuit.from_edges(dims, zminus, zplus)
        xi = xminus.union(yminus_s).union(
            Simplex.from_edges(dims, [(2, h1), (3, h1), (0, g1)])
        )
        tau_star = _anchor_minimal(drv, xi, 2, "case 3 inner")
        _ensure((1, h1) in tau_star, "case 3 inner: minimal tree misses the row-1 edge")
        _ensure(
            tau_star == _anchor_minimal(drv, Simplex(dims, Z.minus_mask), 2, "case 3 inner"),
            "case 3 inner: minimal trees of the two stars disagree",
        )
        _ensure(free_equivalent(tau, tau_star, 1), "case 3 inner: replacement not equivalent")
    else:
        _ensure(
            len(rows) == 3 and rows[1] == 1,
            "case 3 inner: unexpected path form",
            rows=rows,
        )
        h1, h2 = cols
        _ensure(
            h1 not in banned and h2 not in banned and h1 != c1 and h2 != c2,
            "case 3 inner: path reuses a protected column",
        )
        zminus = [(2, h1), (1, h2), (3, g1)]
        zplus = [(1, h1), (3, h2), (2, g1)]
        if two_step:
            zminus.append((0, g2))
            zplus = [(1, h1), (3, h2), (0, g1), (2, g2)]
        Z = Circuit.from_edges(dims, zminus, zplus)
        _ensure(
            tau == _anchor_minimal(drv, Simplex(dims, Z.minus_mask), 2, "case 3 inner"),
            "case 3 inner: obstructing tree is not the minimal tree of its star",
        )
    drv.flip(
        Z,
        "I",
        star_X=_star_count(drv.T, xminus),
        star_Y=_star_count(drv.T, yminus_s),
    )
    _ensure(drv.T.contains(tau_I), "case 3 inner: anchor tree lost")
    _ensure(drv.T.contains(tau0), "case 3 inner: side anchor lost")
    _ensure(goodness(drv.T, ctx), "case 3 inner: goodness lost")
    _ensure(goodness(drv.T, ctx0), "case 3 inner: side goodness lost")
    _ensure(
        _star_count(drv.T, yminus_s) < prev["star_Y"],
        "case 3 inner: side star did not shrink",
    )
    _ensure(
        _star_count(drv.T, xminus) <= prev["star_X"],
        "case 3 inner: main star grew",
    )
    _ensure(
        len(_case_three_side(drv.T, X, c1, swapped=True)) <= prev["side2"],
        "case 3 inner: opposite side set grew",
    )
    _ensure(len(compute_TI(drv.T)) <= prev["defect"], "case 3 inner: defect set grew")


# ---------------------------------------------------------------- phase two


def phase_two(tri: Triangulation, check: bool = True) -> tuple[FlipSequence, Triangulation]:
    """Empty the weak defect set; the reduction mirrors case 1 with the
    roles of rows 2 and 3 reversed."""
    _require_m4(tri)
    _ensure(not compute_TI(tri), "phase two requires an empty strong defect set")
    drv = _Driver(tri, check)
    while True:
        defect = compute_TII(drv.T)
        if not defect:
            break
        _ensure(
            not compute_TI(drv.T),
            "phase two: strong defect set reappeared",
        )
        before = len(defect)
        dg3 = build_precedence(drv.T, toward_row(2))
        tau_II = select_extremal(defect, dg3, "max")
        blocks = _shape_cols(tau_II)
        shapes = set(blocks.values())
        _ensure(
            shapes
            in (
                {frozenset((0, 1, 3)), frozenset((0, 2))},
                {frozenset((0, 1, 3)), frozenset((1, 2))},
            ),
            "phase two: anchor shape outside the two allowed shapes",
            shape=shape(tau_II),
        )
        mirrored = frozenset((1, 2)) in shapes
        _dispatch_mirrorable(drv, mirrored, _phase_two_case, tau_II)
        _ensure(
            len(compute_TII(drv.T)) < before,
            "phase two made no progress",
            before=before,
        )
    seq = FlipSequence(tri.dims, tri.digest(), drv.T.digest(), tuple(drv.steps))
    return seq, drv.T


def _phase_two_case(drv: _Driver, tau_sel: Simplex) -> None:
    dims = drv.T.dims
    blocks = _shape_cols(tau_sel)
    c1 = next(j for j, nb in blocks.items() if nb == frozenset((0, 1, 3)))
    c2 = next(j for j, nb in blocks.items() if nb == frozenset((0, 2)))
    X = Circuit.from_edges(dims, [(0, c1), (2, c2)], [(2, c1), (0, c2)])
    xminus = Simplex(dims, X.minus_mask)
    tau_II = _anchor_minimal(drv, xminus, 2, "phase two")
    _ensure(tau_II == tau_sel, "phase two: selected anchor is not the minimal tree")
    _ensure(
        Simplex.from_edges(dims, [(0, c1), (1, c1), (3, c1), (0, c2), (2, c2)]).issubset(
            tau_II
        ),
        "phase two: anchor lost its connector",
    )
    ctx = GoodnessContext("tauII", tau_II, None, X, cols=(c1, c2))
    _ensure(goodness(drv.T, ctx), "phase two: star is not anchor-good")
    _inner_reduction_case1(
        drv,
        X,
        tau_II,
        ctx,
        c1,
        c2,
        mid_row=3,
        end_row=2,
        minimal_row=0,
        free_row=1,
        phase="II",
    )


# -------------------------------------------------------------- phase three


def _total_order(tri: Triangulation, i1: int, i2: int) -> tuple[int, ...]:
    return restriction_order(tri, i1, i2).as_total()


def _sync_lower_pair(drv: _Driver) -> None:
    """Square flips on rows {2,3} until their order matches the {0,1} order."""
    while True:
        o12 = _total_order(drv.T, 0, 1)
        o34 = _total_order(drv.T, 2, 3)
        if o12 == o34:
            return
        rank = {j: p for p, j in enumerate(o12)}
        p = next(
            q for q in range(len(o34) - 1) if rank[o34[q]] > rank[o34[q + 1]]
        )
        j, j2 = o34[p], o34[p + 1]
        X = Circuit.from_edges(drv.T.dims, [(3, j), (2, j2)], [(2, j), (3, j2)])
        drv.flip(X, "III")
        new34 = _total_order(drv.T, 2, 3)
        _ensure(
            new34 == o34[:p] + (j2, j) + o34[p + 2 :],
            "phase three: square flip did not swap the expected pair",
        )
        _ensure(
            _total_order(drv.T, 0, 1) == o12,
            "phase three: square flip disturbed the upper order",
        )
        _ensure(not compute_TII(drv.T), "phase three: defect set reappeared")


def _transpose_upper(drv: _Driver, j: int, j2: int) -> None:
    """Five-flip macro swapping consecutive columns in the {0,1} order while
    leaving the {2,3} order alone."""
    o12 = _total_order(drv.T, 0, 1)
    o34 = _total_order(drv.T, 2, 3)
    _ensure(o12 == o34, "phase three: macro requires synchronised orders")
    p = o12.index(j)
    _ensure(p + 1 < len(o12) and o12[p + 1] == j2, "phase three: columns not consecutive")
    d = drv.T.dims
    macro = [
        ([(2, j), (0, j2)], [(0, j), (2, j2)]),
        ([(1, j), (3, j2)], [(3, j), (1, j2)]),
        ([(1, j), (0, j2)], [(0, j), (1, j2)]),
        ([(1, j), (2, j2)], [(2, j), (1, j2)]),
        ([(3, j), (0, j2)], [(0, j), (3, j2)]),
    ]
    for minus, plus in macro:
        drv.flip(Circuit.from_edges(d, minus, plus), "III")
    _ensure(
        _total_order(drv.T, 0, 1) == o12[:p] + (j2, j) + o12[p + 2 :],
        "phase three: macro did not swap the upper pair",
    )
    _ensure(
        _total_order(drv.T, 2, 3) == o34,
        "phase three: macro disturbed the lower order",
    )
    _ensure(not compute_TII(drv.T), "phase three: defect set reappeared after macro")


def phase_three(tri: Triangulation, check: bool = True) -> tuple[FlipSequence, Triangulation]:
    """Sort both column orders to the identity and land on the staircase."""
    _require_m4(tri)
    _ensure(not compute_TII(tri), "phase three requires an empty weak defect set")
    o12 = _total_order(tri, 0, 1)
    for i1, i2 in ((0, 2), (0, 3), (2, 1), (3, 1)):
        _ensure(
            _total_order(tri, i1, i2) == o12,
            "phase three: the five upper orders disagree",
            pair=(i1, i2),
        )
    drv = _Driver(tri, check)
    identity = tuple(range(tri.dims.n))
    while True:
        _sync_lower_pair(drv)
        o12 = _total_order(drv.T, 0, 1)
        if o12 == identity:
            break
        p = next(q for q in range(len(o12) - 1) if o12[q] > o12[q + 1])
        _transpose_upper(drv, o12[p], o12[p + 1])
    _ensure(
        drv.T == staircase(tri.dims.n),
        "phase three: sorted orders but not the staircase",
    )
    seq = FlipSequence(tri.dims, tri.digest(), drv.T.digest(), tuple(drv.steps))
    return seq, drv.T


def connect(tri: Triangulation, check: bool = True) -> FlipSequence:
    """Flip sequence from the given triangulation to the staircase.

    Concatenates the three phases; to connect two arbitrary triangulations,
    chain one sequence with the reversal of the other."""
    seq1, t1 = phase_one(tri, check)
    seq2, t2 = phase_two(t1, check)
    seq3, _ = phase_three(t2, check)
    return seq1 + seq2 + seq3
