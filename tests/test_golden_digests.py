"""Byte-identical ``connect`` sequences on a golden input set.

``data/golden_digests.json`` holds the committed walk ``walk_4x8.json``, 200
seeded 4x3 triangulations, four seeded walks at n = 5 and n = 6 and eight
branch witnesses (seeded walks that reach the case-2 loop, the case-3 side
path and subclaim, and the long path of phase two), each with the sha256 of
its ``connect`` sequence (``data/make_golden_digests.py`` writes it).  A change that should leave the flip walk alone must keep every
digest, with and without the runtime checks.
"""

import hashlib
import json
import os

import pytest

from prodtri import io
from prodtri.core import Dims, Simplex
from prodtri.phases import connect
from prodtri.triangulation import Triangulation

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_digests.json")


def _inputs():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["inputs"]


def _digest(seq) -> str:
    doc = io.sequence_to_dict(seq)
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def test_golden_set_covers_every_kind():
    names = [e["name"] for e in _inputs()]
    assert names[0] == "walk_4x8"
    assert sum(name.startswith("corpus_4x3[") for name in names) == 200
    assert sum(name.startswith("walk:") for name in names) == 4
    assert [name for name in names if name.startswith("witness:")] == [
        "witness:5:10:7",
        "witness:5:10:84",
        "witness:5:10:15",
        "witness:5:10:206",
        "witness:5:10:28",
        "witness:5:10:310",
        "witness:6:20:385",
        "witness:7:10:232",
    ]


@pytest.mark.parametrize("check", [True, False])
def test_connect_sequences_are_byte_identical(check):
    for e in _inputs():
        dims = Dims(e["m"], e["n"])
        tri = Triangulation(dims, [Simplex(dims, int(x, 16)) for x in e["trees"]])
        assert tri.digest() == e["start"], e["name"]
        assert _digest(connect(tri, check=check)) == e["sequence_digest"], e["name"]
