"""Scaling benchmark for the planar decomposition pipeline.

Runs ``planar_bfs_td`` on square grids whose edge counts double from
roughly 10^3 up to 10^5 and reports the growth ratio per doubling.
Near-linear behaviour means ratios stay around 2; the acceptance suite
reports ratios above 2.5 without failing.

It also times ``triangulate`` on hosts with one long face (a cycle, a path,
a star and a random tree) at 1k to 8k vertices, where quadratic ear cutting
would show as ratios near 4, and ``heuristic_td`` (min-degree elimination)
on the same hosts, where a full rescan per elimination would show the same
way.  Those four hosts give elimination almost no fill, so ``heuristic_td``
is also timed on square grids of about the same vertex counts, where the
fill grows faster than the vertex count (the width grows with the side), so
ratios up to about 3 are expected there.

Level slicing is timed on those grids too: one ``band_host`` and the
delete-mode bands of every offset for k = 3 (``build_slices``).  Each band
merges its vertices from the host's BFS level lists of its window, reads
the edges of the subgraph it induces from its vertices' rotations, runs
min-degree elimination on that subgraph, and restricts the host's
root-path bags only when elimination is wider than the band's bound, so
building a band costs its own size, not the host's.
"""

from __future__ import annotations

import math
import random
import time

from .baker import build_slices
from .decomp import heuristic_td
from .generators import grid
from .graph import build_graph, embed, triangulate
from .planar_td import band_host, planar_bfs_td

RATIO_BOUND = 2.5
LONG_FACE_SIZES = (1000, 2000, 4000, 8000)


def _grid_for_edges(target: int) -> int:
    # an n x n grid has 2*n*(n-1) edges
    return max(2, round((target / 2) ** 0.5) + 1)


def _best_time(fn, e, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(e)
        best = min(best, time.perf_counter() - t0)
    return best


def _long_face_host(kind: str, n: int):
    """An n-vertex cycle, path, star or seeded random tree, embedded with
    each vertex's darts in edge order (planar for all four)."""
    if kind == "cycle":
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "star":
        edges = [(0, i) for i in range(1, n)]
    else:
        rng = random.Random(n)
        edges = [(rng.randrange(i), i) for i in range(1, n)]
    rotation = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        rotation[u].append(2 * eid)
        rotation[v].append(2 * eid + 1)
    return embed(build_graph(n, edges), rotation)


def _slice_every_offset(e) -> None:
    host = band_host(e, 0)
    for offset in range(3):
        build_slices(host, 3, offset, "delete")


def _doubling_ratios(times: list[float]) -> list[float]:
    return [round(cur / max(prev, 1e-9), 3) for prev, cur in zip(times, times[1:])]


def run_bench(max_edges: int = 100_000, repeats: int = 3) -> dict:
    targets = []
    t = 1000
    while t <= max_edges:
        targets.append(t)
        t *= 2
    rows = []
    for target in targets:
        n = _grid_for_edges(target)
        e = grid(n, n)
        rows.append({
            "target_edges": target,
            "grid_side": n,
            "edges": e.graph.m,
            "time": round(_best_time(lambda h: planar_bfs_td(h, 0), e,
                                     repeats), 6),
        })
    ratios = _doubling_ratios([row["time"] for row in rows])
    long_faces, min_degree = {}, {}
    for kind in ("cycle", "path", "star", "tree"):
        hosts = [_long_face_host(kind, n) for n in LONG_FACE_SIZES]
        for fn, out in ((triangulate, long_faces),
                        (lambda h: heuristic_td(h.graph), min_degree)):
            times = [round(_best_time(fn, h, repeats), 6) for h in hosts]
            out[kind] = {"times": times,
                         "doubling_ratios": _doubling_ratios(times)}
    sides = [round(n ** 0.5) for n in LONG_FACE_SIZES]
    grids = [grid(side, side) for side in sides]
    times = [round(_best_time(heuristic_td, h.graph, repeats), 6)
             for h in grids]
    min_degree["grid"] = {"times": times,
                          "doubling_ratios": _doubling_ratios(times)}
    times = [round(_best_time(_slice_every_offset, h, repeats), 6)
             for h in grids]
    band_slicing = {"grid_sides": sides, "times": times,
                    "doubling_ratios": _doubling_ratios(times)}
    return {
        "rows": rows,
        "doubling_ratios": ratios,
        "ratio_bound": RATIO_BOUND,
        "within_bound": all(r <= RATIO_BOUND for r in ratios),
        "triangulate_sizes": list(LONG_FACE_SIZES),
        "triangulate": long_faces,
        "heuristic_td": min_degree,
        "band_slicing": band_slicing,
    }
