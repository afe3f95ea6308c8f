import json
import os

import pytest

import prodtri.io as pio
from prodtri.cli import main
from prodtri.core import Dims, Simplex
from prodtri.mixed import export_mixed, mixed_cell, render_svg, star_members
from prodtri.oracle import enumerate_triangulations
from prodtri.phases import connect, staircase
from prodtri.triangulation import Triangulation


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


def test_corpus_roundtrip(tmp_path, corpus22):
    cache = tmp_path / "cache"
    stored = pio.store_corpus(str(cache), corpus22)
    loaded = pio.load_cached_corpus(str(cache), corpus22.dims)
    assert loaded is not None
    assert loaded.digests() == corpus22.digests()
    assert stored.endswith("corpus_2x2.json")


def test_cached_corpus_with_other_dims_is_refused(tmp_path, corpus33):
    cache = tmp_path / "cache"
    path = pio.cache_path(str(cache), Dims(4, 3))
    os.makedirs(os.path.dirname(path))
    with open(path, "w") as fh:
        json.dump(pio.corpus_to_dict(corpus33), fh)
    with pytest.raises(pio.ParseError, match="3x3"):
        pio.load_cached_corpus(str(cache), Dims(4, 3))


def test_cache_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("PRODTRI_CACHE", str(tmp_path / "envcache"))
    assert pio.load_cached_corpus(None, Dims(2, 2)) is None
    corpus = enumerate_triangulations(Dims(2, 2))
    pio.store_corpus(None, corpus)
    assert pio.load_cached_corpus(None, Dims(2, 2)) is not None


def test_mixed_cells_of_segment_staircase(seg_staircase):
    doc = export_mixed(seg_staircase)
    maximal = [c for c in doc["cells"] if c["maximal"]]
    assert len(maximal) == 3
    labeled = sorted((c["label"], c) for c in maximal if c["label"] is not None)
    assert [l for l, _ in labeled] == [1, 2, 3]
    # cells are unit segments lined up along the dilated segment, in label order
    spans = []
    for _, cell in labeled:
        xs = sorted(v[1] for v in cell["vertices"])
        assert xs[1] - xs[0] == 1
        spans.append(tuple(xs))
    assert spans == sorted(spans)


def test_unmixed_cells_biject_with_columns(corpus33):
    for T in corpus33.triangulations[:12]:
        doc = export_mixed(T)
        labels = [c["label"] for c in doc["cells"] if c["label"] is not None]
        assert sorted(labels) == [1, 2, 3]


def test_unmixed_cell_is_translated_simplex():
    T = staircase(3)
    for sigma in star_members(T):
        cell = mixed_cell(sigma)
        if cell.label is None:
            continue
        offset = [0] * T.dims.m
        for j, s in enumerate(cell.summands):
            if j != cell.label:
                assert len(s) == 1
                offset[s[0]] += 1
        expected = set()
        for i in range(T.dims.m):
            v = list(offset)
            v[i] += 1
            expected.add(tuple(v))
        assert set(cell.vertices) == expected


def test_render_svg_small_and_reject_m4():
    d = Dims(3, 2)
    corpus = enumerate_triangulations(d)
    svg = render_svg(corpus.triangulations[0])
    assert svg.startswith("<svg") and "polygon" in svg
    with pytest.raises(ValueError):
        render_svg(staircase(2))


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


def test_cli_enumerate_and_flip_graph(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--m", "2", "--n", "3")
    assert code == 0 and "6 triangulations" in out
    code, out, _ = run_cli(capsys, "flip-graph", "--m", "2", "--n", "2")
    assert code == 0 and "2 nodes, 1 edges: connected" in out
    cache = tmp_path / "cache"
    code, _, _ = run_cli(
        capsys, "enumerate", "--m", "2", "--n", "2", "--cache", str(cache)
    )
    assert code == 0 and (cache / "corpus_2x2.json").exists()


def test_cli_orders_and_export(tmp_path, capsys):
    f = tmp_path / "t.json"
    run_cli(capsys, "staircase", "--n", "3", "--out", str(f))
    code, out, _ = run_cli(capsys, "orders", str(f), "--rows", "3", "4")
    assert code == 0 and out.strip() == "{f1} < {f2} < {f3}"
    g = tmp_path / "seg.json"
    d = Dims(2, 3)
    pio.write_triangulation(
        g,
        Triangulation(
            d,
            [
                Simplex.from_edges(d, [(0, 0), (0, 1), (0, 2), (1, 0)]),
                Simplex.from_edges(d, [(0, 1), (0, 2), (1, 0), (1, 1)]),
                Simplex.from_edges(d, [(0, 2), (1, 0), (1, 1), (1, 2)]),
            ],
        ),
    )
    svg = tmp_path / "m.svg"
    code, _, _ = run_cli(
        capsys, "export-mixed", str(g), "--svg", str(svg), "--out", str(tmp_path / "m.json")
    )
    assert code == 0 and svg.exists()


def test_cli_error_is_json(tmp_path, capsys):
    f = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "validate", str(f))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError"
