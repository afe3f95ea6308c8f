"""Per-layer tracing installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules with
a timing wrapper, at every place a loaded module binds it: the defining
module, each module that did ``from .x import y``, and the benchmark's own.
Because the package's own calls look names up in module globals, calls made
inside the package go through the wrappers too.  ``uninstall`` restores the
originals, so timed runs never pay for a wrapper.

Each call records a span (id, parent id, request id, name, start, end).  A
layer's self time is its span minus the wrapped child spans inside it.
Aggregates are kept per request kind; spans are kept in memory up to a cap
and written out at the end.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("core", "triangulation", "flips", "orders", "phases", "oracle", "geometry")
# beyond this many retained spans only the aggregates grow, to bound memory
MAX_SPANS = 100_000


class Tracer:
    def __init__(self):
        # (request kind, layer) -> [calls, total_s, self_s]
        self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (request kind, counter) -> value, for the ratio metrics
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.request = ("setup", 0)
        self.seen_pairs: set = set()
        self._child = []  # child-time accumulator per open span
        self._ids = []  # span id per open span
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "triangulation.proper": self._proper_hook,
            "orders.classify_adjacency": self._adjacency_hook,
            "flips.supports_flip": self._supports_hook,
            "flips.enumerate_flips": self._enumerate_hook,
        }

    # ------------------------------------------------------------ install

    def install(self) -> None:
        wrapped = {}  # id(original) -> wrapper
        for short in TRACED_MODULES:
            mod = sys.modules[f"prodtri.{short}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue  # imported from elsewhere; wrapped at its home
                wrapped[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        # every module holding one of them, the benchmark's own included
        for mod in list(sys.modules.values()):
            for attr, value in list(getattr(mod, "__dict__", {}).items()):
                w = wrapped.get(id(value))
                if w is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats
        child = self._child
        ids = self._ids
        spans = self.spans
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = ids[-1] if ids else None
            ids.append(sid)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ids.pop()
                inner = child.pop()
                dur = end - start
                st = stats[(self.request[0], name)]
                st[0] += 1
                st[1] += dur
                st[2] += dur - inner
                if child:
                    child[-1] += dur
                if len(spans) < MAX_SPANS:
                    spans.append((sid, parent, self.request, name, start, end))
                else:
                    self.dropped += 1
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------- hooks

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[(self.request[0], key)] += n

    def _proper_hook(self, args, result):
        s1, s2 = args[0], args[1]
        a, b = sorted((s1.mask, s2.mask))
        key = (s1.dims, a, b)
        if key in self.seen_pairs:
            self._count("triangulation.proper.repeats")
        else:
            self.seen_pairs.add(key)

    def _adjacency_hook(self, args, result):
        if result is not None:
            self._count("orders.classify_adjacency.adjacent")

    def _supports_hook(self, args, result):
        if type(result).__name__ == "FlipCertificate":
            self._count("flips.supports_flip.certified")

    def _enumerate_hook(self, args, result):
        from prodtri import flips

        circuits = getattr(flips.all_circuits, "__wrapped__", flips.all_circuits)
        self._count("flips.enumerate_flips.found", len(result))
        self._count("flips.enumerate_flips.tried", len(circuits(args[0].dims)))

    # ------------------------------------------------------------ reports

    def layer(self, name: str, kinds=None) -> tuple[int, float]:
        calls, self_s = 0, 0.0
        for (kind, layer), st in self.stats.items():
            if layer == name and (kinds is None or kind in kinds):
                calls += st[0]
                self_s += st[2]
        return calls, self_s

    def count(self, key: str) -> int:
        return sum(v for (_, k), v in self.counts.items() if k == key)

    def top(self, kind: str, k: int = 5, inclusive: bool = False) -> list[tuple[str, float]]:
        """The k layers with the most self time (or span time) in one request kind."""
        col = 1 if inclusive else 2
        rows = [(layer, st[col]) for (kd, layer), st in self.stats.items() if kd == kind]
        return sorted(rows, key=lambda r: -r[1])[:k]

    def kinds(self) -> list[str]:
        return sorted({kind for kind, _ in self.stats})

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "request", "name", "start", "end"],
                                 "dropped_spans": self.dropped}) + "\n")
            for sid, parent, (kind, req), name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, f"{kind}:{req}", name, start, end]) + "\n")
