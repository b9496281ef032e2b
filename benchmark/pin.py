"""Recompute benchmark/pins.json: the optimum MIS and DS sizes of every host
that a ``solve`` or ``ptas`` op of the benchmark can draw (VC is n - MIS).

    python3 benchmark/pin.py

Values come from closed forms where one is proven and otherwise from the
program's exact DP over ``heuristic_td`` (stacked triangulations have
treewidth 3, so this is fast).  Each value is cross-checked against a
second source: the DP against the closed form where both exist, and an
integer program (scipy) for every host except the grid DS values from the
literature, whose exact programs take minutes.  The program's brute-force
oracles stop at 24 vertices, below every pinned host.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from shallowtd import build_graph, dp_ds, dp_mis, heuristic_td, make_nice  # noqa: E402

# Domination numbers of n x n grids, n = 1..15 (Chang 1992; Goncalves,
# Pinlou, Rao, Thomasse 2011); n >= 16 follows their closed form.
GRID_DS = [1, 2, 3, 4, 7, 10, 12, 16, 20, 24, 29, 35, 40, 47, 53]


def grid_ds(side: int) -> int:
    if side >= 16:
        return (side + 2) ** 2 // 5 - 4
    return GRID_DS[side - 1]


def dp_values(h: inputs.Host) -> dict:
    g = build_graph(h.n, h.edges)
    nice = make_nice(heuristic_td(g))
    return {"mis": len(dp_mis(nice, g)),
            "ds": len(dp_ds(nice, g, set(range(g.n))))}


def closed_form(h: inputs.Host) -> dict | None:
    if h.kind == "grid":
        side = math.isqrt(h.n)
        return {"mis": (h.n + 1) // 2, "ds": grid_ds(side)}
    if h.kind == "apex":   # ceil(side^2 / 2); the apex alone dominates
        return {"mis": h.n // 2, "ds": 1}
    return None


def milp_values(h: inputs.Host, problems) -> dict:
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix
    out = {}
    ones = np.ones(h.n)
    if "mis" in problems:
        rows = [i for i, _ in enumerate(h.edges) for _ in (0, 1)]
        cols = [v for e in h.edges for v in e]
        a = coo_matrix((np.ones(len(rows)), (rows, cols)), (len(h.edges), h.n))
        res = milp(-ones, constraints=LinearConstraint(a, ub=1),
                   integrality=ones, bounds=Bounds(0, 1))
        out["mis"] = round(-res.fun)
    if "ds" in problems:
        pairs = [(v, v) for v in range(h.n)]
        pairs += [p for u, v in h.edges for p in ((u, v), (v, u))]
        a = coo_matrix((np.ones(len(pairs)), tuple(zip(*pairs))), (h.n, h.n))
        res = milp(ones, constraints=LinearConstraint(a, lb=1),
                   integrality=ones, bounds=Bounds(0, 1))
        out["ds"] = round(res.fun)
    return out


def pinned_hosts() -> list[inputs.Host]:
    rng = random.Random(0)
    hosts, tri_sizes = {}, set()
    for op in inputs.slicing_ops(rng) + inputs.exact_ops(rng):
        if op.problem is None:
            continue
        if op.host.kind == "tri":
            tri_sizes.add(op.host.n)
        else:
            hosts[op.host.name] = op.host
    for n in sorted(tri_sizes):
        for index in range(inputs.CATALOGUE):
            h = inputs.triangulation(n, index)
            hosts[h.name] = h
    return list(hosts.values())


def main() -> int:
    pins = {}
    for h in pinned_hosts():
        known = closed_form(h)
        small = h.kind != "grid" or h.n <= 49     # DP on wide grids is slow
        computed = dp_values(h) if small else None
        if known and computed and known != computed:
            raise SystemExit(f"{h.name}: closed form {known} != DP {computed}")
        value = known or computed
        checked = ["mis"] + (["ds"] if computed else [])
        got = milp_values(h, checked)
        if any(got[q] != value[q] for q in checked):
            raise SystemExit(f"{h.name}: milp {got} != {value}")
        pins[h.name] = value
        print(h.name, value, flush=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(pins.items())]
    (HERE / "pins.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
