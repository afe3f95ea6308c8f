"""The three benchmark workloads and the checks on their outputs.

Every workload has the same end-to-end metrics, read per workload as:

* ``certify_ms_p50``: median latency of one certifying call (see
  ``median_ms``), which is ``connect(check=True)`` on corpus-4x3 and walk-4x8
  and ``geometric_validate`` of one member on oracle-4x3;
* ``build_ms_p50``: median latency of one unchecked build, which is
  ``connect(check=False)`` on corpus-4x3 and walk-4x8 and
  ``enumerate_triangulations`` + ``build_flip_graph`` + ``is_connected`` of
  the 4x3 product on oracle-4x3;
* ``certified_per_s``: inputs certified per second of certifying time.  An
  input counts when its call succeeded and every check on its output passed;
* ``flips_mean``: flips per emitted sequence, or on oracle-4x3 flips per
  corpus member found by ``enumerate_flips`` (twice the edges per member);
* ``setup_s``: median time to build the workload's inputs;
* ``peak_rss_mb``: the process's peak resident set size.

Each timed call starts with the package's caches as a fresh ``prodtri``
process would find them (see ``fresh_caches``).

Times are wall-clock seconds rescaled to a fixed reference speed: a reference
kernel is timed just before and just after each call and every
``PROBE_PERIOD`` seconds during it, and the call's time (less the samples
taken inside it) is multiplied by ``REF_SECONDS`` over the kernel's mean
duration.  On a shared host the same work can take twice as long from one
minute to the next; the kernel slows down with it, so the rescaled figures
follow the program rather than the host.  ``speed_p50`` in the notes is the median factor applied, so a
raw wall time is the reported time divided by it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

from prodtri import (
    FlipCertificate,
    Triangulation,
    all_circuits,
    apply_flip,
    apply_sequence,
    build_flip_graph,
    connect,
    enumerate_triangulations,
    geometric_validate,
    is_connected,
    staircase,
    supports_flip,
)
from prodtri import io as pio
from prodtri.core import Dims, Simplex

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
CORPUS_PATH = os.path.join(HERE, "data", "corpus_4x3.txt")

WALK_N = 8
WALK_STEPS = 40
ORACLE_DIMS = Dims(4, 3)
CORPUS_MEMBERS = 4488
FLIP_GRAPH_EDGES = 14184
SETUP_REPEATS = 5
REF_LOOPS = 3000
REF_SECONDS = 0.001  # the kernel's duration at the reference speed
PROBE_PERIOD = 0.1  # seconds between kernel samples inside a long call


# ------------------------------------------------------------------ helpers


def fresh_caches(tracer=None) -> None:
    """Empty every module-level ``*_cache`` dict of the package (today
    ``triangulation._proper_cache`` and ``geometry._improper_cache``), the
    state a new ``prodtri`` process starts in.  Memoised pure tables such as
    ``all_circuits`` are kept: ``connect`` never reads them."""
    for name, mod in list(sys.modules.items()):
        if name == "prodtri" or name.startswith("prodtri."):
            for attr, value in vars(mod).items():
                if attr.endswith("_cache") and isinstance(value, dict):
                    value.clear()
    if tracer is not None:
        tracer.seen_pairs.clear()


def sequence_digest(seq) -> str:
    """sha256 of the sequence in the package's JSON sequence format."""
    doc = pio.sequence_to_dict(seq)
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def graph_digest(corpus, graph) -> str:
    edges = sorted(tuple(sorted(e)) for e in graph.edges)
    doc = {"members": list(corpus.digests()), "edges": edges}
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


def random_walk(rng: random.Random, n: int, steps: int) -> Triangulation:
    """``steps`` flips from the staircase, each drawn uniformly from the
    supported flips: circuits are drawn uniformly until one is certified."""
    tri = staircase(n)
    circuits = all_circuits(tri.dims)
    for _ in range(steps):
        while True:
            cert = supports_flip(tri, rng.choice(circuits))
            if isinstance(cert, FlipCertificate):
                tri = apply_flip(tri, cert)
                break
    return tri


def tri_from_hex(dims: Dims, masks) -> Triangulation:
    return Triangulation(dims, [Simplex(dims, int(x, 16)) for x in masks])


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def load_corpus(golden: dict) -> list[tuple[Triangulation, int, str]]:
    """The committed 4x3 corpus as (triangulation, BFS distance to the
    staircase, digest prefix of its connect sequence), verified against the
    checksum in golden.json."""
    with open(CORPUS_PATH, "rb") as fh:
        raw = fh.read()
    if hashlib.sha256(raw).hexdigest() != golden["corpus_4x3"]["sha256"]:
        raise ValueError(f"{CORPUS_PATH} does not match its committed checksum")
    out = []
    for line in raw.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        masks, dist, digest = line.split()
        out.append((tri_from_hex(ORACLE_DIMS, masks.split(",")), int(dist), digest))
    return out


def median_ms(timings) -> float:
    """Median over inputs of each input's median time, in ms.

    timings: (input key, seconds) pairs.  Taking each input's median first
    keeps a fixed set of unequal inputs timed several times (walk-4x8) from
    putting the median in the gap between two inputs' times."""
    per_input: dict = {}
    for key, dt in timings:
        per_input.setdefault(key, []).append(dt)
    if not per_input:
        return float("nan")
    return 1000.0 * statistics.median(statistics.median(v) for v in per_input.values())


def quantile(values, q: float) -> float:
    """Inclusive quantile q of the values, as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _reference_kernel() -> int:
    """Fixed pure-Python work of the kind the package's hot loops do:
    dict updates, bit operations and integer arithmetic."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(REF_LOOPS):
        key = (i * 40503) & 1023
        counts[key] = counts.get(key, 0) + (i & 7)
        acc ^= key << (i & 15)
    return acc + len(set(counts))


def reference_seconds() -> float:
    """Median of three timings of the reference kernel, now."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Run:
    """What one benchmark run attempted, what failed, and why."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    busy: float = 0.0  # rescaled seconds spent inside timed calls
    speeds: list = field(default_factory=list)

    def _scaled(self, fn, args, catch: bool):
        """Time fn(*args), sampling the kernel before, during and after it.

        During the call a SIGALRM every PROBE_PERIOD seconds runs the kernel
        once; the time those samples take is taken out of the call's time."""
        probes: list[float] = []

        def probe(signum, frame):
            t = time.perf_counter()
            _reference_kernel()
            probes.append(time.perf_counter() - t)

        kernels = [reference_seconds()]
        previous = signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        t0 = time.perf_counter()
        try:
            res = fn(*args)
        except Exception as exc:  # a ProofGap or a crash is a failed operation
            if not catch:
                raise
            self.problems.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            res = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            dt = time.perf_counter() - t0  # every probe taken lies inside dt
            signal.signal(signal.SIGALRM, previous)
        kernels += probes
        kernels.append(reference_seconds())
        speed = REF_SECONDS / statistics.fmean(kernels)
        self.speeds.append(speed)
        return res, (dt - sum(probes)) * speed

    def timed(self, fn, *args):
        """(result, rescaled seconds); a raised exception is recorded and
        gives None."""
        res, dt = self._scaled(fn, args, catch=True)
        self.busy += dt
        return res, dt

    def set_up(self, fn, *args):
        """Run one set-up step, recording its rescaled time."""
        res, dt = self._scaled(fn, args, catch=False)
        self.setup.append(dt)
        return res

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def _replays_to_staircase(tri, seq, target) -> bool:
    try:
        return apply_sequence(tri, seq, check=False) == target
    except Exception:
        return False


# ------------------------------------------------------------ connect runs


class _Workload:
    def checked_sequences(self, records) -> list:
        """The checked connect outputs among the records."""
        return [seq for _, seq, _ in records[1] if seq is not None]

    def final_checks(self, run: Run) -> None:
        """Checks made once per run, after the timed work."""


def _connect_item(run: Run, tri, tracer, kind: str, check: bool, req: int):
    """(tri, sequence or None, rescaled seconds) of one timed connect."""
    fresh_caches(tracer)
    if tracer is not None:
        tracer.request = (kind, req)
    seq, dt = run.timed(connect, tri, check)
    return tri, seq, dt


def _connect_records(run: Run, records, target, gold_of=None) -> dict:
    """Untimed checks of the connect outputs, and the connect metrics.

    records: (unchecked items, checked items), each item (tri, seq, seconds).
    Every checked sequence must replay to the target, equal the unchecked
    sequence of the same input and, where gold_of gives one, start with the
    committed digest."""
    nocheck, check = records
    certify, build, flips, digests = [], [], [], []
    unchecked = {}
    for pos, (tri, seq, dt) in enumerate(nocheck):
        if run.op(seq is not None, f"unchecked item {pos}: connect(check=False) raised"):
            build.append((tri.digest(), dt))
            unchecked.setdefault(tri.digest(), seq)
    certified = 0
    for pos, (tri, seq, dt) in enumerate(check):
        if seq is None:
            run.op(False, f"checked item {pos}: connect(check=True) raised")
            continue
        certify.append((tri.digest(), dt))
        flips.append(len(seq))
        digest = sequence_digest(seq)
        digests.append(digest)
        replayed = _replays_to_staircase(tri, seq, target)
        same = unchecked.get(tri.digest()) == seq
        match = gold_of is None or digest.startswith(gold_of(tri))
        if run.op(
            replayed and same and match,
            f"checked item {pos}: replay_ok={replayed} check_equals_nocheck={same} golden_match={match}",
        ):
            certified += 1
    return {
        "metrics": {
            "certify_ms_p50": median_ms(certify),
            "build_ms_p50": median_ms(build),
            "certified_per_s": certified / sum(dt for _, dt in certify) if certify else 0.0,
            "flips_mean": statistics.fmean(flips) if flips else float("nan"),
        },
        "notes": {
            "connect_calls_checked": len(certify),
            "certify_ms_p90": 1000.0 * quantile([dt for _, dt in certify], 0.9) if certify else None,
            "flips_max": max(flips) if flips else None,
            "sequence_digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        },
    }


# ------------------------------------------------------------------ corpus


class Corpus4x3(_Workload):
    """connect(check=False) then connect(check=True) over a seeded uniform
    sample of the 4488 triangulations of the tetrahedron times a triangle."""

    name = "corpus-4x3"
    trace_items = 60

    def __init__(self, seed: int, run: Run):
        golden = load_golden()
        for _ in range(SETUP_REPEATS):
            members = run.set_up(load_corpus, golden)
        self.members = members
        self.gold = {tri.digest(): g for tri, _, g in members}
        self.dist = {tri.digest(): d for tri, d, _ in members}
        rng = random.Random(f"{self.name}:{seed}")
        self.order = rng.sample(range(len(members)), len(members))
        self.target = staircase(3)

    def work(self, run: Run, budget: float, fixed=None, tracer=None):
        nocheck, check = [], []
        t0 = time.perf_counter()
        for k in self.order[:fixed]:
            if fixed is None and time.perf_counter() - t0 >= budget:
                break
            tri = self.members[k][0]
            nocheck.append(_connect_item(run, tri, tracer, "nocheck", False, k))
            check.append(_connect_item(run, tri, tracer, "check", True, k))
        return nocheck, check

    def check(self, run: Run, records) -> dict:
        out = _connect_records(run, records, self.target, lambda t: self.gold[t.digest()])
        stretch = [
            len(seq) / self.dist[tri.digest()]
            for tri, seq, _ in records[1]
            if seq is not None and self.dist[tri.digest()] >= 1
        ]
        out["notes"]["stretch_mean"] = statistics.fmean(stretch) if stretch else None
        return out


# -------------------------------------------------------------------- walk


class Walk4x8(_Workload):
    """The committed 40-step random walks from staircase(8): unchecked
    connect passes over all of them while within 30% of the budget,
    then checked passes while the next one should end within it.

    One walk's connect time varies about twofold with the walk, so timing
    walks drawn from the run's seed would measure the draw, not the program.
    The seed instead draws fresh walks in set-up; each is connected
    (unchecked) and replayed to the staircase as an untimed check."""

    name = "walk-4x8"
    trace_items = 2
    fresh_walks = 3
    nocheck_share = 0.3  # a checked connect costs about four unchecked ones

    def __init__(self, seed: int, run: Run):
        golden = load_golden()["walk_4x8"]
        self.target = staircase(WALK_N)
        all_circuits(self.target.dims)  # one-off table, outside every set-up sample

        def set_up(k: int):
            walks = [tri_from_hex(self.target.dims, g["trees"]) for g in golden]
            rng = random.Random(f"{self.name}:{seed}:{k}")
            return walks, random_walk(rng, WALK_N, WALK_STEPS)

        self.fresh = []
        for k in range(self.fresh_walks):
            self.walks, fresh = run.set_up(set_up, k)
            self.fresh.append(fresh)
        self.gold = {g["start"]: g["sequence_digest"] for g in golden}

    def work(self, run: Run, budget: float, fixed=None, tracer=None):
        walks = self.walks[:fixed]
        t0 = time.perf_counter()

        def passes(kind: str, check: bool, until: float) -> list:
            """Whole passes over the walks while the next one should end by `until`."""
            out, last = [], 0.0
            while not out or (fixed is None and time.perf_counter() - t0 + last <= until):
                t1 = time.perf_counter()
                out += [_connect_item(run, w, tracer, kind, check, k) for k, w in enumerate(walks)]
                last = time.perf_counter() - t1
            return out

        nocheck = passes("nocheck", False, self.nocheck_share * budget)
        return nocheck, passes("check", True, budget)

    def check(self, run: Run, records) -> dict:
        return _connect_records(run, records, self.target, lambda t: self.gold[t.digest()])

    def final_checks(self, run: Run) -> None:
        """The seed's fresh walks connect and replay to the staircase."""
        for k, start in enumerate(self.fresh):
            fresh_caches()
            seq, _ = run.timed(connect, start, False)
            run.op(
                seq is not None and _replays_to_staircase(start, seq, self.target),
                f"fresh walk {k}: connect failed or did not replay to the staircase",
            )


# ------------------------------------------------------------------ oracle


class Oracle4x3(_Workload):
    """Enumeration, flip graph and connectivity of the 4x3 product, then the
    exact-rational geometric check on a seeded sample of members."""

    name = "oracle-4x3"
    trace_items = 10
    build_share = 0.55
    min_members = 5

    def __init__(self, seed: int, run: Run):
        golden = load_golden()
        self.golden = golden["corpus_4x3"]
        for _ in range(SETUP_REPEATS):
            members = run.set_up(load_corpus, golden)
        self.reference = tuple(tri.digest() for tri, _, _ in members)
        self.rng = random.Random(f"{self.name}:{seed}")

    def _verify(self, corpus, graph, connected) -> bool:
        return (
            corpus is not None
            and graph is not None
            and len(corpus) == CORPUS_MEMBERS
            and len(graph.edges) == FLIP_GRAPH_EDGES
            and connected is True
            and corpus.digests() == self.reference
            and graph_digest(corpus, graph) == self.golden["graph_digest"]
        )

    def work(self, run: Run, budget: float, fixed=None, tracer=None):
        t0 = time.perf_counter()
        builds = []  # (verified, seconds); one build in memory at a time
        last = 0.0
        # another build only when it is expected to end within its share
        while not builds or (
            fixed is None and time.perf_counter() - t0 + last <= self.build_share * budget
        ):
            t1 = time.perf_counter()
            corpus = graph = connected = None
            fresh_caches(tracer)
            if tracer is not None:
                tracer.request = ("build", len(builds))
            corpus, t_enum = run.timed(enumerate_triangulations, ORACLE_DIMS)
            t_graph = t_conn = 0.0
            if corpus is not None:
                graph, t_graph = run.timed(build_flip_graph, corpus)
            if graph is not None:
                connected, t_conn = run.timed(is_connected, graph)
            builds.append((self._verify(corpus, graph, connected), t_enum + t_graph + t_conn))
            last = time.perf_counter() - t1
        graph = None
        members = corpus.triangulations if corpus is not None else ()
        order = self.rng.sample(range(len(members)), len(members))
        geo = []
        for k in order[:fixed]:
            if fixed is None and len(geo) >= self.min_members and time.perf_counter() - t0 >= budget:
                break
            fresh_caches(tracer)
            if tracer is not None:
                tracer.request = ("geometric", k)
            ok, dt = run.timed(geometric_validate, members[k])
            geo.append((k, ok, dt))
        return builds, geo

    def checked_sequences(self, records) -> list:
        return []

    def check(self, run: Run, records) -> dict:
        builds, geo = records
        build_s = [
            (ORACLE_DIMS, dt)
            for ok, dt in builds
            if run.op(ok, "enumeration or flip graph differs from the committed oracle")
        ]
        certify = [
            (k, dt) for k, ok, dt in geo if run.op(ok is True, f"member {k} not geometrically valid")
        ]
        return {
            "metrics": {
                "certify_ms_p50": median_ms(certify),
                "build_ms_p50": median_ms(build_s),
                "certified_per_s": len(certify) / sum(dt for _, _, dt in geo) if geo else 0.0,
                # the verified graph has FLIP_GRAPH_EDGES edges on CORPUS_MEMBERS nodes
                "flips_mean": 2 * FLIP_GRAPH_EDGES / CORPUS_MEMBERS if build_s else float("nan"),
            },
            "notes": {
                "builds": len(builds),
                "members_validated": len(certify),
                "certify_ms_p90": 1000.0 * quantile([dt for _, dt in certify], 0.9) if certify else None,
            },
        }


WORKLOADS = {w.name: w for w in (Corpus4x3, Walk4x8, Oracle4x3)}
