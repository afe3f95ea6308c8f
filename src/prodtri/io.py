"""JSON file formats.

All documents use 1-based [row, col] pairs, matching the usual notation;
the library is 0-based internally.  Writers emit canonically sorted
structures so that digests are stable across platforms; readers accept
unsorted input.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .core import Circuit, Dims, Simplex, is_forest
from .phases import FlipSequence, FlipStep
from .oracle import Corpus
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


def _dims_of(doc: dict) -> Dims:
    try:
        return Dims(int(doc["m"]), int(doc["n"])).check()
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad dimensions: {exc}") from exc


def _edges_in(doc_edges, dims: Dims) -> Simplex:
    try:
        pairs = [(int(r) - 1, int(c) - 1) for r, c in doc_edges]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad edge list: {exc}") from exc
    simplex = Simplex.from_edges(dims, pairs)
    if not is_forest(simplex):
        raise NotAForest(f"simplex {sorted(doc_edges)} contains a cycle")
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
    tri = Triangulation(dims, [_edges_in(e, dims) for e in raw])
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
        minus = [(int(r) - 1, int(c) - 1) for r, c in doc["minus"]]
        plus = [(int(r) - 1, int(c) - 1) for r, c in doc["plus"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad circuit: {exc}") from exc
    return Circuit.from_edges(dims, minus, plus)


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
                str(s.get("phase", "")),
                tuple(sorted((k, int(v)) for k, v in s.get("measures", {}).items())),
            )
            for s in doc["steps"]
        )
        return FlipSequence(dims, str(doc["start"]), str(doc["end"]), steps)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad sequence: {exc}") from exc


def write_sequence(path, seq: FlipSequence) -> None:
    with open(path, "w") as fh:
        json.dump(sequence_to_dict(seq), fh, indent=1)
        fh.write("\n")


def read_sequence(path) -> FlipSequence:
    with open(path) as fh:
        return sequence_from_dict(_loads(fh.read()))


def corpus_to_dict(corpus: Corpus) -> dict:
    return {
        "m": corpus.dims.m,
        "n": corpus.dims.n,
        "count": len(corpus),
        "triangulations": [
            [_edges_out(t) for t in tri.maximal] for tri in corpus.triangulations
        ],
    }


def corpus_from_dict(doc: dict) -> Corpus:
    """The corpus of a document, every member checked by ``validate``; a
    malformed document or an invalid member raises ParseError."""
    dims = _dims_of(doc)
    try:
        tris = tuple(
            Triangulation(dims, [_edges_in(e, dims) for e in payload])
            for payload in doc["triangulations"]
        )
        count = int(doc.get("count", len(tris)))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad corpus: {type(exc).__name__}: {exc}") from exc
    if len(tris) != count:
        raise ParseError("corpus count disagrees with payload")
    for k, tri in enumerate(tris):
        report = validate(tri)
        if not report.ok:
            kinds = sorted({kind for kind, _ in report.violations})
            raise ParseError(f"corpus member {k} is not a triangulation: {', '.join(kinds)}")
    return Corpus(dims=dims, triangulations=tris)


def cache_path(cache_dir: Optional[str], dims: Dims) -> str:
    base = cache_dir or os.environ.get("PRODTRI_CACHE") or os.path.join(
        os.path.expanduser("~"), ".cache", "prodtri"
    )
    return os.path.join(base, f"corpus_{dims.m}x{dims.n}.json")


def load_cached_corpus(cache_dir: Optional[str], dims: Dims) -> Optional[Corpus]:
    path = cache_path(cache_dir, dims)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        corpus = corpus_from_dict(_loads(fh.read()))
    if corpus.dims != Dims(*dims):
        raise ParseError(
            f"cached corpus {path} holds {corpus.dims.m}x{corpus.dims.n},"
            f" not {dims[0]}x{dims[1]}"
        )
    return corpus


def store_corpus(cache_dir: Optional[str], corpus: Corpus) -> str:
    path = cache_path(cache_dir, corpus.dims)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(corpus_to_dict(corpus), fh)
        fh.write("\n")
    return path
