"""Benchmark of the prodtri package: one workload per run.

    python3 perfbench/run.py --workload corpus-4x3 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  ``--trace 0`` times the workload with nothing wrapped and
reports the end-to-end metrics; ``--trace 1`` runs a fixed-size slice of the
workload twice, plain and with every public function of the traced modules
wrapped, and reports per-layer call counts, self times and ratios.  Every
output is checked; the last line of standard output is one JSON object.
A report with provenance goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

E2E_UNITS = {
    "setup_s": "s",
    "certify_ms_p50": "ms",
    "build_ms_p50": "ms",
    "certified_per_s": "1/s",
    "flips_mean": "count",
    "peak_rss_mb": "MB",
}

# layer -> the per-layer stats reported for it
LAYERS = {
    "triangulation.validate": ("calls", "self_s"),
    "triangulation.proper": ("calls", "self_s", "repeat_rate"),
    "orders.build_precedence": ("calls", "self_s"),
    "orders.classify_adjacency": ("calls", "self_s", "adjacent_rate"),
    "orders.restriction_order": ("calls", "self_s"),
    "orders.unique_minimal": ("calls", "self_s"),
    "orders.select_extremal": ("self_s",),
    "phases.phase_one": ("self_s",),
    "phases.phase_two": ("self_s",),
    "phases.phase_three": ("self_s",),
    "phases.defect_sets": ("calls", "self_s"),
    "phases.goodness": ("calls", "self_s"),
    "flips.supports_flip": ("calls", "self_s", "certified_rate"),
    "flips.apply_flip": ("calls", "self_s"),
    "flips.enumerate_flips": ("calls", "self_s", "yield"),
    "core.components": ("calls", "self_s"),
    "core.tree_path": ("calls",),
    "oracle.enumerate_triangulations": ("self_s",),
    "oracle.build_flip_graph": ("self_s",),
    "geometry.simplex_volume": ("calls", "self_s"),
    "geometry.improper_geometric": ("calls", "self_s"),
}
# ratio stat -> (numerator counter, denominator counter or None for calls)
RATIOS = {
    "repeat_rate": ("triangulation.proper.repeats", None),
    "adjacent_rate": ("orders.classify_adjacency.adjacent", None),
    "certified_rate": ("flips.supports_flip.certified", None),
    "yield": ("flips.enumerate_flips.found", "flips.enumerate_flips.tried"),
}
ALIASES = {"phases.defect_sets": ("phases.compute_TI", "phases.compute_TII")}
UNITS = {"calls": "count", "self_s": "s"}


def per_layer_metrics(tracer, sequences, overhead: float, speed: float) -> dict:
    """The per-layer metrics of a traced pass; self times are rescaled by the
    pass's median speed factor, like the end-to-end times."""
    out = {}
    for layer, stats in LAYERS.items():
        calls = self_s = 0
        for part in ALIASES.get(layer, (layer,)):
            c, s = tracer.layer(part)
            calls += c
            self_s += s
        for stat in stats:
            if stat == "calls":
                value = calls
            elif stat == "self_s":
                value = self_s * speed
            else:
                num, den = RATIOS[stat]
                den_value = tracer.count(den) if den else calls
                value = tracer.count(num) / den_value if den_value else 0.0
            out[f"{layer}.{stat}"] = (value, UNITS.get(stat, "ratio"))
    for phase in ("I", "II", "III"):
        n = sum(1 for seq in sequences for step in seq.steps if step.phase == phase)
        out[f"phases.flips_{phase}"] = (n, "count")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def provenance() -> dict:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "prodtri")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "machine": platform.node(),
        "platform": platform.platform(),
        "cpu": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": revision,
        "source_sha256": h.hexdigest(),
    }


def import_package():
    """Import prodtri from this checkout's src, or return None."""
    if not os.path.isfile(os.path.join(SRC, "prodtri", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import prodtri

    if not os.path.abspath(prodtri.__file__).startswith(SRC + os.sep):
        return None
    return prodtri


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if import_package() is None:
        print(f"error: no prodtri sources under {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run = workloads.Run()
    wl = workloads.WORKLOADS[args.workload](args.seed, run)
    notes: dict = {}
    if not args.trace:
        out = wl.check(run, wl.work(run, args.seconds))
        wl.final_checks(run)
        metrics = {k: (v, E2E_UNITS[k]) for k, v in out["metrics"].items()}
        metrics["setup_s"] = (statistics.median(run.setup), "s")
        metrics["peak_rss_mb"] = (workloads.peak_rss_mb(), "MB")
        notes.update(out["notes"], setup_samples=len(run.setup))
    else:
        busy0 = run.busy
        plain = wl.work(run, math.inf, fixed=wl.trace_items)
        busy1 = run.busy
        first = len(run.speeds)
        tracer = Tracer()
        tracer.install()
        try:
            traced = wl.work(run, math.inf, fixed=wl.trace_items, tracer=tracer)
        finally:
            tracer.uninstall()
        speed = statistics.median(run.speeds[first:])
        overhead = (run.busy - busy1) / (busy1 - busy0) - 1.0
        wl.check(run, plain)
        out = wl.check(run, traced)
        wl.final_checks(run)
        metrics = per_layer_metrics(tracer, wl.checked_sequences(traced), overhead, speed)
        notes.update(out["notes"], trace_items=wl.trace_items, spans_dropped=tracer.dropped)
        for label, inclusive in (("top_self_s", False), ("top_span_s", True)):
            notes[label] = {
                kind: [[layer, round(s, 4)] for layer, s in tracer.top(kind, 6, inclusive)]
                for kind in tracer.kinds()
            }
    notes["speed_p50"] = statistics.median(run.speeds) if run.speeds else None
    correct = run.failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())

    prov = provenance()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov, "correct": correct,
        "attempted": run.attempted, "failed": run.failed,
        "failed_frac": run.failed / max(run.attempted, 1),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes, "problems": run.problems[:50],
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    if args.trace:
        tracer.write(stem + ".spans.jsonl")

    print(f"# prodtri benchmark: {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# provenance: " + json.dumps(prov))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print("# notes: " + json.dumps(notes, default=str))
    print(f"# attempted={run.attempted} failed={run.failed} "
          f"failed_frac={report['failed_frac']:.6g}")
    for problem in run.problems[:10]:
        print(f"# problem: {problem}")
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {
            k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
            for k, (v, u) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
