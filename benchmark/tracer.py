"""Timing wrappers around the program's public functions, installed from
the benchmark's own files.

A wrapper replaces a function at every binding a caller looks it up through:
each ``shallowtd`` module attribute that holds the original function object
(``from .graph import embed`` leaves one copy per importing module).  Spans
(op id, layer, parent span, start, end) stay in memory until the run writes
them out.  A layer's self time is its span minus its child spans.

Counters are computed by the wrappers from arguments and return values.
The time spent computing them is kept out of every layer's self time and
reported as part of the tracing overhead.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

LAYERS = [
    "cli.run",
    "graph.parse_graph", "graph.bfs_layering", "graph.triangulate",
    "graph.induced_embedded_subgraph", "graph.contract_connected_set",
    "graph.embed",
    "kernels.three_path_bags", "kernels.bfs_levels",
    "planar_td.planar_bfs_td", "planar_td.tree_cotree",
    "planar_td.min_eccentricity_root", "planar_td.slice_td",
    "genus_td.cut_graph", "genus_td.contract_cut_graph", "genus_td.genus_td",
    "decomp.validate", "decomp.emit_td", "decomp.make_nice",
    "decomp.heuristic_td",
    "dp.dp_mis", "dp.dp_vc", "dp.dp_ds", "dp.dp_subiso", "dp.subiso_driver",
    "baker.build_slices",
]

MODULES = sorted({name.split(".")[0] for name in LAYERS})


def _module(short: str) -> str:
    """Module name for a layer prefix (metric names may not start with _)."""
    return "_kernels" if short == "kernels" else short


# Reported as counts; the hook also counts dp.subiso_hits for the hit ratio.
COUNTERS = ["planar_td.faces", "planar_td.bag_entries", "decomp.nice_nodes",
            "decomp.join_nodes", "decomp.max_bag", "dp.state_bound",
            "baker.slices", "baker.slice_vertices", "dp.subiso_windows_tried"]


def _count_td(c: Counter, args, result) -> None:
    c["planar_td.faces"] += result.nodes
    c["planar_td.bag_entries"] += sum(map(len, result.bags))


def _count_nice(c: Counter, args, result) -> None:
    c["decomp.nice_nodes"] += result.node_count
    c["decomp.join_nodes"] += result.kind.count("join")
    c["decomp.max_bag"] = max(c["decomp.max_bag"], max(map(len, result.bag)))


def _state_bound(base: int):
    def count(c: Counter, args, result) -> None:
        c["dp.state_bound"] += sum(base ** len(b) for b in args[0].bag)
    return count


def _count_slices(c: Counter, args, result) -> None:
    c["baker.slices"] += len(result.slices)
    c["baker.slice_vertices"] += sum(s.graph.n for s in result.slices)


def _count_window(c: Counter, args, result) -> None:
    c["dp.subiso_windows_tried"] += 1
    c["dp.subiso_hits"] += result is not None


HOOKS = {
    "planar_td.planar_bfs_td": _count_td,
    "decomp.make_nice": _count_nice,
    "dp.dp_mis": _state_bound(2), "dp.dp_vc": _state_bound(2),
    "dp.dp_ds": _state_bound(3),
    "baker.build_slices": _count_slices,
    "dp.dp_subiso": _count_window,
}


class Tracer:
    """Collects spans and counters while installed; ``op`` is the id that
    new spans are filed under."""

    def __init__(self):
        self.spans: list = []       # [op, layer, parent, start, end, hook_s]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._last_error: BaseException | None = None
        self._saved: list[tuple[dict, str, object]] = []

    def _wrap(self, index: int, fn, module: str, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:   # count where it surfaced
                    self._last_error = exc
                    self.errors[module] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[me] = [self.op, index, parent, start, end, 0.0]
            if hook is not None:
                hook(counts, args, result)
                spans[me][5] = clock() - end
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "shallowtd") -> None:
        modules = [m for name, m in sys.modules.items()
                   if (name == package or name.startswith(package + "."))
                   and m is not None]
        for index, layer in enumerate(LAYERS):
            mod_name, fn_name = layer.split(".")
            original = getattr(sys.modules[f"{package}.{_module(mod_name)}"],
                               fn_name)
            wrapper = self._wrap(index, original, mod_name, HOOKS.get(layer))
            for m in modules:
                namespace = vars(m)
                for attr in [a for a, v in namespace.items() if v is original]:
                    self._saved.append((namespace, attr, original))
                    namespace[attr] = wrapper

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._saved):
            namespace[attr] = original
        self._saved.clear()

    def summarize(self):
        """Per layer [calls, total seconds, self seconds], the seconds spent
        in counter hooks, and the sum of self times per op id.  No traced
        function calls itself, so no span is counted twice in a total."""
        layers = [[0, 0.0, 0.0] for _ in LAYERS]
        per_op: dict[int, float] = {}
        child = [0.0] * len(self.spans)
        hooks = 0.0
        for i in reversed(range(len(self.spans))):
            op, layer, parent, start, end, hook_s = self.spans[i]
            dur = end - start
            layers[layer][0] += 1
            layers[layer][1] += dur
            layers[layer][2] += dur - child[i]
            per_op[op] = per_op.get(op, 0.0) + dur - child[i]
            if parent >= 0:
                child[parent] += dur + hook_s
            hooks += hook_s
        return layers, hooks, per_op

    def write(self, path) -> None:
        """Spans as JSON lines: a header naming the layers, then one span
        per line as [op, layer index, parent span, start, end, hook_s]."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"layers": LAYERS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
