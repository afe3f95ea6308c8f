"""JSON file formats.

All documents use 1-based [row, col] pairs, matching the usual notation;
the library is 0-based internally.  Writers emit canonically sorted
structures so that digests are stable across platforms; readers accept
unsorted input.
"""

from __future__ import annotations

import json
from typing import Optional

from .core import Circuit, Dims, Simplex, is_forest
from .phases import FlipSequence, FlipStep
from .triangulation import Triangulation, ValidityReport, validate


class ParseError(ValueError):
    """Structurally bad document; carries line/column when known."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        where = f" (line {line}, column {col})" if line is not None else ""
        super().__init__(message + where)
        self.line = line
        self.col = col


class NotAForest(ParseError):
    """A listed simplex contains a cycle."""


class InvalidTriangulation(ValueError):
    """Document parsed but the collection fails validation."""

    def __init__(self, report: ValidityReport):
        super().__init__(f"invalid triangulation: {report.violations[:3]}")
        self.report = report


def _loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError as exc:  # an integer literal past the int-to-str digit limit
        raise ParseError(str(exc)) from exc
    except RecursionError as exc:  # arrays or objects nested past the stack limit
        raise ParseError(f"document nested too deeply: {exc}") from exc


def _int(value) -> int:
    """value if it is an int and no bool, else TypeError (each reader's
    ParseError): no number is rounded and no string read as one."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _str(value) -> str:
    if type(value) is not str:
        raise TypeError(f"{value!r} is not a string")
    return value


# The most rows or columns a document may declare.  Declared dimensions size
# every edge mask and the count C(m+n-2, m-1) that validation computes, so
# without a bound a short document could ask for unbounded work.
MAX_DIM = 64


def _dims_of(doc: dict) -> Dims:
    try:
        dims = Dims(_int(doc["m"]), _int(doc["n"])).check()
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad dimensions: {exc}") from exc
    if dims.m > MAX_DIM or dims.n > MAX_DIM:
        raise ParseError(f"bad dimensions: more than {MAX_DIM} rows or columns")
    return dims


def _edge_in(pair, dims: Dims) -> tuple[int, int]:
    """The 0-based edge of a document's 1-based [row, col] pair, its range
    checked in the document's terms."""
    r, c = (_int(x) for x in pair)
    if not (1 <= r <= dims.m and 1 <= c <= dims.n):
        raise ValueError(f"edge ({r},{c}) out of range for {dims}")
    return r - 1, c - 1


def _edges_in(doc_edges, dims: Dims) -> Simplex:
    try:
        pairs = [_edge_in(e, dims) for e in doc_edges]
        simplex = Simplex.from_edges(dims, pairs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad edge list: {exc}") from exc
    if len(simplex) != len(pairs):
        listed = sorted([i + 1, j + 1] for i, j in pairs)
        raise ParseError(f"simplex {listed} lists an edge twice")
    if not is_forest(simplex):
        listed = sorted([i + 1, j + 1] for i, j in pairs)
        raise NotAForest(f"simplex {listed} contains a cycle")
    return simplex


def _edges_out(simplex: Simplex) -> list[list[int]]:
    return [[i + 1, j + 1] for i, j in simplex.edges]


def triangulation_to_dict(tri: Triangulation) -> dict:
    return {
        "m": tri.dims.m,
        "n": tri.dims.n,
        "maximal_simplices": [_edges_out(t) for t in tri.maximal],
    }


def triangulation_from_dict(doc: dict, require_valid: bool = True) -> Triangulation:
    dims = _dims_of(doc)
    try:
        raw = doc["maximal_simplices"]
    except KeyError as exc:
        raise ParseError("missing maximal_simplices") from exc
    try:
        simplices = [_edges_in(e, dims) for e in raw]
    except TypeError as exc:  # raw is no list
        raise ParseError(f"bad maximal_simplices: {exc}") from exc
    if len({s.mask for s in simplices}) != len(simplices):
        raise ParseError("a maximal simplex is listed twice")
    tri = Triangulation(dims, simplices)
    if require_valid:
        report = validate(tri)
        if not report.ok:
            raise InvalidTriangulation(report)
    return tri


def write_triangulation(path, tri: Triangulation) -> None:
    with open(path, "w") as fh:
        json.dump(triangulation_to_dict(tri), fh, indent=1)
        fh.write("\n")


def read_triangulation(path, require_valid: bool = True) -> Triangulation:
    with open(path) as fh:
        return triangulation_from_dict(_loads(fh.read()), require_valid)


def circuit_to_dict(X: Circuit) -> dict:
    return {
        "minus": [[i + 1, j + 1] for i, j in sorted(X.minus)],
        "plus": [[i + 1, j + 1] for i, j in sorted(X.plus)],
    }


def circuit_from_dict(doc: dict, dims: Dims) -> Circuit:
    try:
        minus = [_edge_in(e, dims) for e in doc["minus"]]
        plus = [_edge_in(e, dims) for e in doc["plus"]]
        X = Circuit.from_edges(dims, minus, plus)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # NotACycle too
        raise ParseError(f"bad circuit: {exc}") from exc
    if len(X) != len(minus) + len(plus):
        raise ParseError("bad circuit: an edge is listed twice")
    return X


def sequence_to_dict(seq: FlipSequence) -> dict:
    return {
        "m": seq.dims.m,
        "n": seq.dims.n,
        "start": seq.start,
        "end": seq.end,
        "steps": [
            {
                "phase": s.phase,
                **circuit_to_dict(s.circuit),
                "measures": dict(s.measures),
            }
            for s in seq.steps
        ],
    }


def sequence_from_dict(doc: dict) -> FlipSequence:
    dims = _dims_of(doc)
    try:
        steps = tuple(
            FlipStep(
                circuit_from_dict(s, dims),
                _str(s.get("phase", "")),
                tuple(sorted((k, _int(v)) for k, v in s.get("measures", {}).items())),
            )
            for s in doc["steps"]
        )
        return FlipSequence(dims, _str(doc["start"]), _str(doc["end"]), steps)
    # AttributeError: measures that are no mapping
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise ParseError(f"bad sequence: {exc}") from exc


def write_sequence(path, seq: FlipSequence) -> None:
    with open(path, "w") as fh:
        json.dump(sequence_to_dict(seq), fh, indent=1)
        fh.write("\n")


def read_sequence(path) -> FlipSequence:
    with open(path) as fh:
        return sequence_from_dict(_loads(fh.read()))
