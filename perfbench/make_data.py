"""Regenerate the benchmark's committed data from the package itself.

    python3 perfbench/make_data.py

Writes ``perfbench/data/corpus_4x3.txt`` (every triangulation of the 4x3
product with its BFS distance to the staircase in the flip graph and the
digest of its ``connect`` sequence) and ``perfbench/golden.json`` (the
corpus checksum, the flip-graph digest and the golden n = 8 walks).  Only run
it when a change to the package is meant to change these outputs; the
benchmark's correctness gate compares against them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from collections import deque

from run import import_package

if import_package() is None:
    sys.exit("error: run from a checkout with src/prodtri")

import workloads as wl  # noqa: E402
from prodtri import build_flip_graph, connect, enumerate_triangulations, is_connected, staircase  # noqa: E402

GOLDEN_WALKS = 2


def bfs(graph, source: int) -> list[int]:
    adj = [[] for _ in graph.corpus.triangulations]
    for a, b in (tuple(e) for e in graph.edges):
        adj[a].append(b)
        adj[b].append(a)
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def main() -> None:
    corpus = enumerate_triangulations(wl.ORACLE_DIMS)
    graph = build_flip_graph(corpus)
    if not is_connected(graph):
        sys.exit("error: the 4x3 flip graph is not connected")
    digests = corpus.digests()
    dist = bfs(graph, digests.index(staircase(wl.ORACLE_DIMS.n).digest()))
    lines = [
        "# every triangulation of the 4x3 product, in enumeration order:",
        "# tree masks (hex), BFS distance to staircase(3), sha256[:16] of connect's sequence",
    ]
    for tri, d in zip(corpus.triangulations, dist):
        wl.fresh_caches()
        seq = wl.sequence_digest(connect(tri, check=True))[:16]
        lines.append(f"{','.join(format(t.mask, 'x') for t in tri.maximal)} {d} {seq}")
    raw = ("\n".join(lines) + "\n").encode()
    os.makedirs(os.path.dirname(wl.CORPUS_PATH), exist_ok=True)
    with open(wl.CORPUS_PATH, "wb") as fh:
        fh.write(raw)

    walks = []
    for k in range(GOLDEN_WALKS):
        start = wl.random_walk(random.Random(f"walk-4x8:golden:{k}"), wl.WALK_N, wl.WALK_STEPS)
        wl.fresh_caches()
        walks.append({
            "start": start.digest(),
            "trees": [format(t.mask, "x") for t in start.maximal],
            "sequence_digest": wl.sequence_digest(connect(start, check=False)),
        })
    golden = {
        "corpus_4x3": {
            "sha256": hashlib.sha256(raw).hexdigest(),
            "graph_digest": wl.graph_digest(corpus, graph),
        },
        "walk_4x8": walks,
    }
    with open(wl.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
