import json

import pytest
from hypothesis import given, settings, strategies as st

import prodtri.io as pio
from prodtri.cli import main
from prodtri.core import Dims
from prodtri.phases import connect, staircase


def test_triangulation_roundtrip(tmp_path):
    T = staircase(3)
    path = tmp_path / "t.json"
    pio.write_triangulation(path, T)
    again = pio.read_triangulation(path)
    assert again.digest() == T.digest()


def test_reject_cyclic_simplex(tmp_path):
    doc = {
        "m": 2,
        "n": 2,
        "maximal_simplices": [[[1, 1], [1, 2], [2, 1], [2, 2]]],
    }
    with pytest.raises(pio.NotAForest):
        pio.triangulation_from_dict(doc)


def test_reject_wrong_cardinality(corpus43, tmp_path):
    T = corpus43.triangulations[0]
    doc = pio.triangulation_to_dict(T)
    doc["maximal_simplices"] = doc["maximal_simplices"][:9]
    with pytest.raises(pio.InvalidTriangulation) as err:
        pio.triangulation_from_dict(doc)
    assert any(k == "cardinality" for k, _ in err.value.report.violations)
    # reading without validation still parses
    assert len(pio.triangulation_from_dict(doc, require_valid=False).maximal) == 9


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"m": 2,\n "n": }')
    with pytest.raises(pio.ParseError) as err:
        pio.read_triangulation(path)
    assert err.value.line == 2


def test_sequence_roundtrip(tmp_path, corpus42):
    T = next(t for t in corpus42.triangulations if t != staircase(2))
    seq = connect(T)
    path = tmp_path / "seq.json"
    pio.write_sequence(path, seq)
    again = pio.read_sequence(path)
    assert again == seq


def run_cli(capsys, *args):
    code = 0
    try:
        main(list(args))
    except SystemExit as exc:
        code = exc.code or 0
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_staircase_validate_connect(tmp_path, capsys):
    f = tmp_path / "t.json"
    code, _, _ = run_cli(capsys, "staircase", "--n", "2", "--out", str(f))
    assert code == 0
    code, out, _ = run_cli(capsys, "validate", str(f))
    assert code == 0 and "VALID" in out
    code, out, _ = run_cli(capsys, "connect", str(f))
    assert code == 0 and out.startswith("0 flips")


def test_cli_flip_roundtrip(tmp_path, capsys):
    f = tmp_path / "t.json"
    run_cli(capsys, "staircase", "--n", "2", "--out", str(f))
    code, out, _ = run_cli(capsys, "flips", str(f))
    assert code == 0
    circuits = out.strip().splitlines()
    assert circuits
    f2 = tmp_path / "t2.json"
    code, _, _ = run_cli(
        capsys, "apply", str(f), "--circuit", circuits[0], "--out", str(f2)
    )
    assert code == 0
    seqf = tmp_path / "seq.json"
    code, out, _ = run_cli(capsys, "connect", str(f2), "--emit-sequence", str(seqf))
    assert code == 0 and "== staircase(2)" in out
    seq = pio.read_sequence(seqf)
    T2 = pio.read_triangulation(f2)
    from prodtri.phases import apply_sequence

    final = apply_sequence(T2, seq)
    assert final == staircase(2)
    # replayed endpoint serialises byte-identically to the staircase command
    replayed, direct = tmp_path / "replayed.json", tmp_path / "direct.json"
    pio.write_triangulation(replayed, final)
    run_cli(capsys, "staircase", "--n", "2", "--out", str(direct))
    assert replayed.read_bytes() == direct.read_bytes()


def test_cli_enumerate_and_flip_graph(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--m", "2", "--n", "3")
    assert code == 0 and "6 triangulations" in out
    code, out, _ = run_cli(capsys, "flip-graph", "--m", "2", "--n", "2")
    assert code == 0 and "2 nodes, 1 edges: connected" in out


def test_cli_enumerate_and_flip_graph_of_4x3(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--m", "4", "--n", "3")
    assert code == 0 and out == "4x3: 4488 triangulations\n"
    code, out, _ = run_cli(capsys, "flip-graph", "--m", "4", "--n", "3")
    assert code == 0 and out == "4488 nodes, 14184 edges: connected\n"


def test_cli_orders(tmp_path, capsys):
    f = tmp_path / "t.json"
    run_cli(capsys, "staircase", "--n", "3", "--out", str(f))
    code, out, _ = run_cli(capsys, "orders", str(f), "--rows", "3", "4")
    assert code == 0 and out.strip() == "{f1} < {f2} < {f3}"


def test_cli_error_is_json(tmp_path, capsys):
    f = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "validate", str(f))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError"


def test_cli_malformed_circuit_gives_parse_error(tmp_path, capsys):
    f = tmp_path / "t.json"
    run_cli(capsys, "staircase", "--n", "2", "--out", str(f))
    code, _, err = run_cli(capsys, "apply", str(f), "--circuit", '{"minus": [[1,2],[3,1]]')
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"


def test_cli_staircase_past_max_dim_writes_nothing(tmp_path, capsys):
    f = tmp_path / "t.json"
    code, _, err = run_cli(capsys, "staircase", "--n", str(pio.MAX_DIM + 1), "--out", str(f))
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"
    assert not f.exists()


def test_cli_enumerate_past_max_dim_gives_parse_error(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--m", str(pio.MAX_DIM + 1), "--n", "2")
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"


def test_cli_enumerate_past_the_tree_budget(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--m", "2", "--n", "12")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "BudgetExceeded"
    assert payload["message"] == "Dims(m=2, n=12) has 24576 spanning trees > budget 1024"


def test_integer_past_the_digit_limit_gives_parse_error(tmp_path, capsys):
    """json reads a 5,001-digit integer by int(), which refuses literals past
    the interpreter's 4,300-digit limit with a plain ValueError."""
    f = tmp_path / "long_int.json"
    f.write_text('{"m": 1' + "0" * 5000 + ', "n": 3, "maximal_simplices": []}')
    with pytest.raises(pio.ParseError, match="digits"):
        pio.read_triangulation(f)
    code, _, err = run_cli(capsys, "validate", str(f))
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"


def test_deep_nesting_gives_parse_error(tmp_path, capsys):
    """json decodes nested arrays recursively, so 200,000 levels pass the
    interpreter's recursion limit."""
    f = tmp_path / "deep.json"
    f.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(pio.ParseError, match="nested too deeply"):
        pio.read_triangulation(f)
    code, _, err = run_cli(capsys, "validate", str(f))
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("m", [float("inf"), float("nan"), 0, [4], 4.7, "4", True])
def test_malformed_dimensions_give_parse_error(m):
    with pytest.raises(pio.ParseError, match="bad dimensions"):
        pio.triangulation_from_dict({"m": m, "n": 3, "maximal_simplices": []})


@pytest.mark.parametrize(
    "m,n", [(10**5, 10**5), (pio.MAX_DIM + 1, 3), (4, 10**4000)], ids=["1e5x1e5", "max+1x3", "4x1e4000"]
)
def test_huge_declared_dimensions_give_parse_error(m, n):
    with pytest.raises(pio.ParseError, match="bad dimensions"):
        pio.triangulation_from_dict({"m": m, "n": n, "maximal_simplices": []})


def test_the_largest_declared_dimensions_are_read():
    doc = {"m": pio.MAX_DIM, "n": pio.MAX_DIM, "maximal_simplices": []}
    assert len(pio.triangulation_from_dict(doc, require_valid=False)) == 0
    with pytest.raises(pio.InvalidTriangulation):
        pio.triangulation_from_dict(doc)


@pytest.mark.parametrize(
    "simplices",
    [
        5,
        [[[9, 1]]],
        [[[0, 1]]],
        [[[1, 1], ["x", 2]]],
        [[[1, 1], [2, float("inf")]]],
        [[[1.5, 1]]],
        [[["1", "1"]]],
        [["11"]],
        [[[True, 1]]],
    ],
)
def test_malformed_maximal_simplices_give_parse_error(simplices):
    with pytest.raises(pio.ParseError):
        pio.triangulation_from_dict({"m": 4, "n": 3, "maximal_simplices": simplices})


@pytest.mark.parametrize(
    "doc",
    [
        {"minus": [[1, 1], [2, 2]], "plus": [[1, 2], [2, 3]]},  # no cycle
        {"minus": [[1, 1], [1, 2]], "plus": [[2, 1], [2, 2]]},  # does not alternate
        {"minus": [[1, 1], [5, 2]], "plus": [[1, 2], [5, 1]]},  # row out of range
        {"minus": [[1, 1], [2.0, 2]], "plus": [[1, 2], [2, 1]]},  # a float
        {"minus": [[1, 1], ["2", "2"]], "plus": [[1, 2], [2, 1]]},  # strings
        {"minus": [[True, 1], [2, 2]], "plus": [[1, 2], [2, 1]]},  # a bool
    ],
)
def test_malformed_circuit_gives_parse_error(doc):
    with pytest.raises(pio.ParseError):
        pio.circuit_from_dict(doc, Dims(4, 3))


def _assert_cli_parse_error(capsys, *args):
    code, _, err = run_cli(capsys, *args)
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("reorder", [False, True], ids=["as-listed", "edges-reordered"])
def test_repeated_maximal_simplex_gives_parse_error(tmp_path, capsys, reorder):
    doc = pio.triangulation_to_dict(staircase(3))
    first = doc["maximal_simplices"][0]
    doc["maximal_simplices"].append(first[::-1] if reorder else first)
    assert len(doc["maximal_simplices"]) == 11
    for require_valid in (True, False):
        with pytest.raises(pio.ParseError, match="listed twice"):
            pio.triangulation_from_dict(doc, require_valid)
    f = tmp_path / "repeat.json"
    f.write_text(json.dumps(doc))
    _assert_cli_parse_error(capsys, "validate", str(f))


def test_repeated_edge_in_a_simplex_gives_parse_error(tmp_path, capsys):
    doc = pio.triangulation_to_dict(staircase(3))
    first = doc["maximal_simplices"][0]
    first.append(first[0])
    for require_valid in (True, False):
        with pytest.raises(pio.ParseError, match="lists an edge twice"):
            pio.triangulation_from_dict(doc, require_valid)
    f = tmp_path / "repeat.json"
    f.write_text(json.dumps(doc))
    _assert_cli_parse_error(capsys, "validate", str(f))


def test_repeated_circuit_edge_gives_parse_error(tmp_path, capsys):
    doc = {"minus": [[1, 1], [2, 2], [1, 1]], "plus": [[1, 2], [2, 1]]}
    with pytest.raises(pio.ParseError, match="listed twice"):
        pio.circuit_from_dict(doc, Dims(4, 3))
    f = tmp_path / "t.json"
    pio.write_triangulation(f, staircase(3))
    _assert_cli_parse_error(capsys, "apply", str(f), "--circuit", json.dumps(doc))


@pytest.mark.parametrize(
    "measures",
    [[1, 2], {"star_X": float("inf")}, {"star_X": "two"}, {"star_X": "2"}, {"star_X": 2.5},
     {"star_X": True}],
)
def test_malformed_measures_give_parse_error(measures):
    seq = pio.sequence_to_dict(connect(staircase(2)))
    seq["steps"] = [{"minus": [[1, 1], [2, 2]], "plus": [[1, 2], [2, 1]], "measures": measures}]
    with pytest.raises(pio.ParseError, match="bad sequence"):
        pio.sequence_from_dict(seq)


@pytest.mark.parametrize(
    "field,value", [("start", 5), ("end", None), ("start", ["a"]), ("phase", 3)]
)
def test_non_string_fields_give_parse_error(field, value):
    seq = pio.sequence_to_dict(connect(staircase(2)))
    seq["steps"] = [{"minus": [[1, 1], [2, 2]], "plus": [[1, 2], [2, 1]]}]
    (seq["steps"][0] if field == "phase" else seq)[field] = value
    with pytest.raises(pio.ParseError, match="bad sequence"):
        pio.sequence_from_dict(seq)


# JSON-shaped values (infinities and NaN included: the json module reads
# them).  Integers are drawn small, so that documents get past the
# dimensions, and of any size, which the readers' dimension bound refuses.
_numbers = (
    st.integers(-2, 6)
    | st.integers()
    | st.floats(-2.0, 6.0)
    | st.sampled_from([float("inf"), float("-inf"), float("nan")])
)
_json = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
# each document strategy has a well-formed branch, so that the fuzzer gets
# past the dimensions and the edge lists
_dim = st.integers(-1, 5) | st.integers(-1, 10**6) | _json
_pair = st.lists(st.integers(-1, 6), min_size=2, max_size=2)
_edges = st.lists(_pair, max_size=6) | st.lists(_pair | _json, max_size=6) | _json
_tri_docs = (
    st.fixed_dictionaries(
        {
            "m": st.integers(1, 5),
            "n": st.integers(1, 5),
            "maximal_simplices": st.lists(_edges, max_size=4),
        }
    )
    | st.fixed_dictionaries({"m": _dim, "n": _dim, "maximal_simplices": _json})
    | _json
)
_circuit_docs = st.fixed_dictionaries({"minus": _edges, "plus": _edges}) | _json
_step_docs = st.fixed_dictionaries(
    {"minus": _edges, "plus": _edges},
    optional={"phase": _json, "measures": st.dictionaries(st.text(max_size=2), _json) | _json},
)
_sequence_docs = (
    st.fixed_dictionaries(
        {
            "m": st.integers(1, 5),
            "n": st.integers(1, 5),
            "start": _json,
            "end": _json,
            "steps": st.lists(_step_docs, max_size=3),
        }
    )
    | st.fixed_dictionaries(
        {
            "m": _dim,
            "n": _dim,
            "start": _json,
            "end": _json,
            "steps": st.lists(_json, max_size=3) | _json,
        }
    )
    | _json
)
_fuzz = settings(max_examples=300, deadline=None, derandomize=True)


@_fuzz
@given(_tri_docs, st.booleans())
def test_fuzzed_triangulation_documents(doc, require_valid):
    try:
        pio.triangulation_from_dict(doc, require_valid)
    except (pio.ParseError, pio.InvalidTriangulation):
        pass


@_fuzz
@given(_circuit_docs, st.sampled_from([Dims(2, 2), Dims(4, 3)]))
def test_fuzzed_circuit_documents(doc, dims):
    try:
        pio.circuit_from_dict(doc, dims)
    except pio.ParseError:
        pass


@_fuzz
@given(_sequence_docs)
def test_fuzzed_sequence_documents(doc):
    try:
        pio.sequence_from_dict(doc)
    except pio.ParseError:
        pass
