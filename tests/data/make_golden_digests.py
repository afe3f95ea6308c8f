"""Write ``golden_digests.json``: the inputs of the golden-digest test and the
sha256 of each input's ``connect`` sequence.

    PYTHONPATH=src python tests/data/make_golden_digests.py

The branch witnesses are seeded walks, each reaching a reduction branch
(case-2 loop, case-3 side path and subclaim, case-1 long path in phase two)
that the corpus members and the first walks never enter.  The inputs are
stored as hex tree masks, so the test needs neither the enumeration nor a
walk generator.  A sequence digest is the sha256 of
``io.sequence_to_dict(connect(tri, check=True))`` as compact JSON with sorted
keys, the format the benchmark also digests.  Rerun only for a change that is
meant to change the sequences ``connect`` emits; a slow test asserts that
``build()`` gives the committed file byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from prodtri import io
from prodtri.core import Dims, Simplex
from prodtri.flips import FlipCertificate, all_circuits, apply_flip, supports_flip
from prodtri.oracle import enumerate_triangulations
from prodtri.phases import connect, staircase
from prodtri.triangulation import Triangulation

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "golden_digests.json")
CORPUS_MEMBERS = 200
WALKS = ((5, 30, "walk:5:0"), (5, 30, "walk:5:1"), (6, 30, "walk:6:0"), (6, 30, "walk:6:1"))
# Branch witnesses: seeded walks of mult * n steps, each the first found to
# reach a branch of the case analysis that no input above enters.
WITNESSES = (
    (5, 10, "witness:5:10:7"),  # case-1 long path, phase two
    (5, 10, "witness:5:10:84"),  # case-2 loop, short form
    (5, 10, "witness:5:10:15"),  # case-2 long form
    (5, 10, "witness:5:10:206"),  # case-3 two-step side path
    (5, 10, "witness:5:10:28"),  # case-3 subclaim, short
    (5, 10, "witness:5:10:310"),  # subclaim, long
    (6, 20, "witness:6:20:385"),  # subclaim short with two-step side
    (7, 10, "witness:7:10:232"),  # subclaim long with two-step side
)


def sequence_digest(seq) -> str:
    doc = io.sequence_to_dict(seq)
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def random_walk(rng: random.Random, n: int, steps: int) -> Triangulation:
    """``steps`` flips from ``staircase(n)``, each drawn uniformly from the
    supported flips (circuits drawn uniformly until one is certified)."""
    tri = staircase(n)
    circuits = all_circuits(tri.dims)
    for _ in range(steps):
        while True:
            cert = supports_flip(tri, rng.choice(circuits))
            if isinstance(cert, FlipCertificate):
                tri = apply_flip(tri, cert)
                break
    return tri


def entry(name: str, tri: Triangulation) -> dict:
    return {
        "name": name,
        "m": tri.dims.m,
        "n": tri.dims.n,
        "trees": [format(t.mask, "x") for t in tri.maximal],
        "start": tri.digest(),
        "sequence_digest": sequence_digest(connect(tri, check=True)),
    }


def build() -> str:
    """The text of ``golden_digests.json``, one input per line."""
    with open(os.path.join(HERE, "walk_4x8.json")) as fh:
        doc = json.load(fh)
    dims = Dims(doc["m"], doc["n"])
    inputs = [("walk_4x8", Triangulation(dims, [Simplex(dims, int(x, 16)) for x in doc["trees"]]))]
    corpus = enumerate_triangulations(Dims(4, 3)).triangulations
    picks = sorted(random.Random("golden:4x3").sample(range(len(corpus)), CORPUS_MEMBERS))
    inputs += [(f"corpus_4x3[{k}]", corpus[k]) for k in picks]
    for n, steps, seed in WALKS:
        inputs.append((seed, random_walk(random.Random(seed), n, steps)))
    for n, mult, seed in WITNESSES:
        inputs.append((seed, random_walk(random.Random(seed), n, mult * n)))
    entries = [entry(name, tri) for name, tri in inputs]
    return '{"inputs": [\n' + ",\n".join(json.dumps(e) for e in entries) + "\n]}\n"


def main() -> None:
    text = build()
    with open(OUT, "w") as fh:
        fh.write(text)
    print(f"wrote {len(json.loads(text)['inputs'])} digests to {OUT}")


if __name__ == "__main__":
    main()
