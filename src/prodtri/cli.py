"""Command-line front end.

Subcommands mirror the library: validate, flips, apply, connect,
staircase, enumerate, flip-graph, orders.  Failures print a machine-readable
JSON object on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import io as pio
from .flips import FlipCertificate, apply_flip, enumerate_flips, supports_flip
from .oracle import build_flip_graph, enumerate_triangulations, is_connected
from .orders import restriction_order
from .phases import apply_sequence, connect, staircase
from .triangulation import validate


def _fail(exc: BaseException):
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )
    raise SystemExit(1)


def _emit(doc, out):
    text = json.dumps(doc, indent=1) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args):
    tri = pio.read_triangulation(args.file, require_valid=False)
    report = validate(tri)
    for kind, payload in report.violations:
        print(f"violation[{kind}]: {payload}")
    print(
        f"{tri.dims.m}x{tri.dims.n}, {len(tri.maximal)} maximal simplices: "
        + ("VALID" if report.ok else "INVALID")
    )
    raise SystemExit(0 if report.ok else 1)


def _cmd_flips(args):
    tri = pio.read_triangulation(args.file)
    for cert in enumerate_flips(tri):
        print(json.dumps(pio.circuit_to_dict(cert.circuit)))


def _cmd_apply(args):
    tri = pio.read_triangulation(args.file)
    X = pio.circuit_from_dict(pio._loads(args.circuit), tri.dims)
    res = supports_flip(tri, X)
    if not isinstance(res, FlipCertificate):
        raise ValueError(f"circuit does not support a flip: {res}")
    _emit(pio.triangulation_to_dict(apply_flip(tri, res)), args.out)


def _cmd_connect(args):
    tri = pio.read_triangulation(args.file)
    seq = connect(tri)
    counts = Counter(s.phase for s in seq.steps)
    print(f"{len(seq)} flips (I: {counts['I']}, II: {counts['II']}, III: {counts['III']})")
    for pos, step in enumerate(seq.steps):
        ms = " ".join(f"{k}={v}" for k, v in step.measures)
        print(f"  {pos:3d} [{step.phase:>3}] {step.circuit!r} {ms}")
    final = apply_sequence(tri, seq)
    landed = final == staircase(tri.dims.n)
    verdict = "==" if landed else "!="
    print(f"endpoint digest {final.digest()[:16]} {verdict} staircase({tri.dims.n})")
    if args.emit_sequence:
        pio.write_sequence(args.emit_sequence, seq)
    raise SystemExit(0 if landed else 1)


def _cmd_staircase(args):
    n = pio._dims_of({"m": 4, "n": args.n}).n
    _emit(pio.triangulation_to_dict(staircase(n)), args.out)


def _corpus(args):
    return enumerate_triangulations(pio._dims_of({"m": args.m, "n": args.n}))


def _cmd_enumerate(args):
    corpus = _corpus(args)
    print(f"{corpus.dims.m}x{corpus.dims.n}: {len(corpus)} triangulations")


def _cmd_flip_graph(args):
    corpus = _corpus(args)
    graph = build_flip_graph(corpus)
    verdict = "connected" if is_connected(graph) else "DISCONNECTED"
    print(f"{len(corpus)} nodes, {len(graph.edges)} edges: {verdict}")
    raise SystemExit(0 if verdict == "connected" else 1)


def _cmd_orders(args):
    tri = pio.read_triangulation(args.file)
    i1, i2 = args.rows
    m = tri.dims.m
    if not (1 <= i1 <= m and 1 <= i2 <= m):
        raise ValueError(f"rows {i1}, {i2} out of range for {m} rows")
    order = restriction_order(tri, i1 - 1, i2 - 1)
    text = " < ".join(
        "{" + ", ".join(f"f{j + 1}" for j in sorted(s)) + "}" for s in order.strata
    )
    print(text)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="prodtri",
        description="triangulations of a product of two simplices: flips and connectivity",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a triangulation file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("flips", help="list supported flips")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_flips)

    p = sub.add_parser("apply", help="apply one flip")
    p.add_argument("file")
    p.add_argument("--circuit", required=True, help='JSON {"minus": [[r,c]..], "plus": ...}')
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser("connect", help="flip to the staircase triangulation")
    p.add_argument("file")
    p.add_argument("--emit-sequence")
    p.set_defaults(fn=_cmd_connect)

    p = sub.add_parser("staircase", help="write the staircase triangulation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_staircase)

    p = sub.add_parser("enumerate", help="count all triangulations")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("flip-graph", help="build the flip graph and test connectivity")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_flip_graph)

    p = sub.add_parser("orders", help="column order of a two-row restriction")
    p.add_argument("file")
    p.add_argument("--rows", type=int, nargs=2, required=True, metavar=("I1", "I2"))
    p.set_defaults(fn=_cmd_orders)
    return top


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except SystemExit:
        raise
    except BrokenPipeError:
        raise SystemExit(0)
    except Exception as exc:  # noqa: BLE001 - boundary: report and exit nonzero
        _fail(exc)


if __name__ == "__main__":
    main()
