"""Scaling benchmark for the planar decomposition pipeline.

Runs ``planar_bfs_td`` on square grids whose edge counts double from
roughly 10^3 up to 10^5 and reports the growth ratio per doubling.
Near-linear behaviour means ratios stay around 2; the acceptance suite
reports ratios above 2.5 without failing.
"""

from __future__ import annotations

import math
import time

from .generators import grid
from .planar_td import planar_bfs_td

RATIO_BOUND = 2.5


def _grid_for_edges(target: int) -> int:
    # an n x n grid has 2*n*(n-1) edges
    return max(2, round((target / 2) ** 0.5) + 1)


def _time_once(e, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        planar_bfs_td(e, 0)
        best = min(best, time.perf_counter() - t0)
    return best


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
            "time": round(_time_once(e, repeats), 6),
        })
    ratios = []
    for prev, cur in zip(rows, rows[1:]):
        ratio = cur["time"] / max(prev["time"], 1e-9)
        ratios.append(round(ratio, 3))
    return {
        "rows": rows,
        "doubling_ratios": ratios,
        "ratio_bound": RATIO_BOUND,
        "within_bound": all(r <= RATIO_BOUND for r in ratios),
    }
