"""The package namespace: ``__all__`` lists what ``__init__`` imports and no
submodule."""

import ast
import re
import types
from pathlib import Path

import prodtri

ROOT = Path(__file__).resolve().parent.parent


def _is_module(value) -> bool:
    return isinstance(value, types.ModuleType)


# The public names, pinned so that every removal or addition is explicit.
PUBLIC = [
    "BudgetExceeded", "Circuit", "ColumnQuasiorder", "Corpus", "Dims", "EQUIVALENT",
    "EmptyInput", "FlipCertificate", "FlipGraph", "FlipSequence", "FlipStep", "GREATER",
    "GoodnessContext", "LESS", "LocalTriangulation", "MalformedLocal", "NoMinimal",
    "NotACycle", "NotInComplex", "NotMaximal", "Obstruction", "PrecedenceDigraph",
    "ProofGap", "SegmentDecomposition", "Simplex", "StaleCertificate", "Triangulation",
    "ValidityReport", "WrongDims", "all_circuits", "alternating_path", "apply_flip",
    "apply_sequence", "build_flip_graph", "build_precedence", "col_neighbors",
    "compare_columns", "compute_TI", "compute_TII", "connect", "connecting_edges",
    "enumerate_flips", "enumerate_triangulations", "free_equivalent", "geometric_validate",
    "goodness", "is_connected", "is_forest", "is_spanning_tree", "noncrossing",
    "order_effect", "phase_one", "phase_three", "phase_two", "proper", "psi",
    "restriction_order", "row_neighbors", "segment_decompose", "select_extremal", "shape",
    "spanning_trees", "staircase", "star", "supports_flip", "toward_row", "toward_row_free",
    "tree_path", "unique_minimal", "validate",
]


def test_all_holds_every_imported_name_and_no_module():
    with open(prodtri.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(prodtri.__all__) == sorted(public) == PUBLIC
    assert not [name for name in prodtri.__all__ if _is_module(getattr(prodtri, name))]


def test_star_import_binds_no_module():
    ns: dict = {}
    exec("from prodtri import *", ns)
    assert "connect" in ns and "Triangulation" in ns
    assert not [name for name, value in ns.items() if _is_module(value)]
    assert _is_module(prodtri.phases)  # still reachable as an attribute


def test_sources_parse_at_the_declared_floor():
    """Every Python file under src/, tests/, demos/ and perfbench/ parses
    with the grammar of the oldest Python that pyproject.toml declares, so
    a construct of a later version, such as ``except*`` before 3.11, fails
    here without an interpreter of that version.  Only the grammar is
    checked: a library call added in a later version parses."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M)
    version = (int(floor[1]), int(floor[2]))
    dirs = ("src", "tests", "demos", "perfbench")
    files = sorted(path for d in dirs for path in (ROOT / d).rglob("*.py"))
    assert len(files) > 30
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
