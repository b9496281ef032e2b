"""Deterministic graph family constructors.

Grids, apex-over-grid counterexamples, hexagon-set graphs and walls,
seeded random planar triangulations, and toroidal grids.  All generators are
pure functions of their parameters.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .graph import (
    EmbeddedGraph,
    Graph,
    GraphInputError,
    build_graph,
    embed,
)

# corner offsets of a hexagon around its integer center (3q, 2r + q),
# in counterclockwise order
_CORNER_OFFSETS = [(2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)]
# axial directions to the six edge-adjacent hexagons
_HEX_DIRS = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]


def _lattice(rows: int, cols: int, wrap: bool) -> EmbeddedGraph:
    """rows x cols lattice in row-major order: each vertex lists its right
    edge, then its down edge, and rotates right, down, left, up, skipping
    absent edges.  With `wrap` the last column and row join the first."""
    vid = lambda r, c: (r % rows) * cols + (c % cols)
    edges = []
    right = {}
    down = {}
    for r in range(rows):
        for c in range(cols):
            if wrap or c + 1 < cols:
                right[r, c] = len(edges)
                edges.append((vid(r, c), vid(r, c + 1)))
            if wrap or r + 1 < rows:
                down[r, c] = len(edges)
                edges.append((vid(r, c), vid(r + 1, c)))
    rotation = []
    for r in range(rows):
        for c in range(cols):
            left = (r, (c - 1) % cols) if wrap else (r, c - 1)
            up = ((r - 1) % rows, c) if wrap else (r - 1, c)
            cyc = []
            if (r, c) in right:
                cyc.append(2 * right[r, c])
            if (r, c) in down:
                cyc.append(2 * down[r, c])
            if left in right:
                cyc.append(2 * right[left] + 1)
            if up in down:
                cyc.append(2 * down[up] + 1)
            rotation.append(cyc)
    return embed(build_graph(rows * cols, edges), rotation)


def grid(rows: int, cols: int) -> EmbeddedGraph:
    """rows x cols grid with the canonical right/down/left/up rotation."""
    if rows < 1 or cols < 1:
        raise GraphInputError("grid dimensions must be positive")
    return _lattice(rows, cols, wrap=False)


def apex_over_grid(n: int) -> Graph:
    """n x n grid plus an apex vertex adjacent to every grid vertex."""
    if n < 1:
        raise GraphInputError("n must be positive")
    base = grid(n, n).graph
    edges = list(base.edges)
    apex = n * n
    for v in range(n * n):
        edges.append((apex, v))
    return build_graph(n * n + 1, edges)


def hex_distance(a: tuple[int, int], b: tuple[int, int] = (0, 0)) -> int:
    dq = a[0] - b[0]
    dr = a[1] - b[1]
    return (abs(dq) + abs(dr) + abs(dq + dr)) // 2


def hexagon_corners(coord: tuple[int, int]) -> list[tuple[int, int]]:
    q, r = coord
    cx, cy = 3 * q, 2 * r + q
    return [(cx + dx, cy + dy) for dx, dy in _CORNER_OFFSETS]


def corner_hexagons(corner: tuple[int, int]) -> list[tuple[int, int]]:
    """The three tiling hexagons incident to a corner point."""
    out = []
    for dx, dy in _CORNER_OFFSETS:
        cx, cy = corner[0] - dx, corner[1] - dy
        if cx % 3 == 0:
            q = cx // 3
            if (cy - q) % 2 == 0:
                out.append((q, (cy - q) // 2))
    return out


def hex_set_graph(coords) -> EmbeddedGraph:
    """Planar graph of a connected set of hexagonal tiles: a vertex per
    covered corner point, an edge per covered hexagon side."""
    coords = sorted(set(coords))
    if not coords:
        raise GraphInputError("empty hexagon set")
    # connectivity under edge-adjacency
    seen = {coords[0]}
    stack = [coords[0]]
    cset = set(coords)
    while stack:
        q, r = stack.pop()
        for dq, dr in _HEX_DIRS:
            nb = (q + dq, r + dr)
            if nb in cset and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(coords):
        raise GraphInputError("hexagon set is not edge-connected")

    corner_pts = sorted({c for h in coords for c in hexagon_corners(h)})
    vid = {c: i for i, c in enumerate(corner_pts)}
    edge_pairs = set()
    for h in coords:
        cs = hexagon_corners(h)
        for i in range(6):
            a, b = cs[i], cs[(i + 1) % 6]
            edge_pairs.add((min(a, b), max(a, b)))
    edge_pairs = sorted(edge_pairs)
    g = build_graph(len(corner_pts), [(vid[a], vid[b]) for a, b in edge_pairs])
    # geometric counterclockwise rotation; corner lattice point (X, Y) sits
    # at Cartesian (X/2, Y*sqrt(3)/2)
    darts: list[list[tuple[float, int]]] = [[] for _ in corner_pts]
    for eid, pair in enumerate(edge_pairs):
        for side, (c, other) in enumerate((pair, pair[::-1])):
            ang = math.atan2((other[1] - c[1]) * math.sqrt(3) / 2,
                             (other[0] - c[0]) / 2)
            darts[vid[c]].append((ang, 2 * eid + side))
    return embed(g, [[d for _, d in sorted(ds)] for ds in darts])


@dataclass
class WallSpec:
    """Wall of size s: the hexagons within hex-distance s-1 of the center,
    with per-vertex inner/outer classification."""

    size: int
    hex_coords: frozenset[tuple[int, int]]
    corner_points: list[tuple[int, int]]
    inner_level: list[int]   # smallest t for which the vertex is t-inner
    outer: list[bool]

    def t_inner(self, t: int) -> set[int]:
        return {v for v, lvl in enumerate(self.inner_level) if lvl <= t}

    def outer_vertices(self) -> set[int]:
        return {v for v, o in enumerate(self.outer) if o}


def wall(s: int) -> tuple[WallSpec, EmbeddedGraph]:
    """Unsubdivided wall of size s (subdivided walls are minors of it)."""
    if s < 1:
        raise GraphInputError("wall size must be positive")
    coords = [(q, r) for q in range(-s + 1, s) for r in range(-s + 1, s)
              if hex_distance((q, r)) <= s - 1]
    e = hex_set_graph(coords)
    corner_pts = sorted({c for h in coords for c in hexagon_corners(h)})
    cset = set(coords)
    inner_level = []
    outer = []
    for c in corner_pts:
        incident = corner_hexagons(c)
        dists = [hex_distance(h) for h in incident if h in cset]
        inner_level.append(min(dists) + 1)
        outer.append(any(h not in cset for h in incident))
    spec = WallSpec(size=s, hex_coords=frozenset(coords), corner_points=corner_pts,
                    inner_level=inner_level, outer=outer)
    return spec, e


def random_planar_triangulation(n: int, seed: int) -> EmbeddedGraph:
    """Seeded triangulation: start from a triangle, repeatedly insert a new
    vertex into a uniformly random face, joined to the face's three corners."""
    if n < 3:
        raise GraphInputError("need at least 3 vertices")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = [(0, 1), (1, 2), (2, 0)]
    rot: list[list[int]] = [[0, 5], [2, 1], [4, 3]]
    # faces as dart triples (a->b, b->c, c->a)
    faces: list[tuple[int, int, int]] = [(0, 2, 4), (5, 3, 1)]
    tails = {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 0}

    for w in range(3, n):
        fi = rng.randrange(len(faces))
        d0, d1, d2 = faces[fi]
        a, b, c = tails[d0], tails[d1], tails[d2]
        base = len(edges)
        edges.extend([(w, a), (w, b), (w, c)])
        wa, aw = 2 * base, 2 * base + 1
        wb, bw = 2 * (base + 1), 2 * (base + 1) + 1
        wc, cw = 2 * (base + 2), 2 * (base + 2) + 1
        for d, t in ((wa, w), (aw, a), (wb, w), (bw, b), (wc, w), (cw, c)):
            tails[d] = t
        rot[a].insert(rot[a].index(d0), aw)
        rot[b].insert(rot[b].index(d1), bw)
        rot[c].insert(rot[c].index(d2), cw)
        rot.append([wb, wa, wc])
        faces[fi] = (d0, bw, wa)
        faces.append((d1, cw, wb))
        faces.append((d2, aw, wc))

    return embed(build_graph(n, edges), rot)


def toroidal_grid(rows: int, cols: int) -> EmbeddedGraph:
    """C_rows x C_cols with the standard genus-1 rotation."""
    if rows < 3 or cols < 3:
        raise GraphInputError("toroidal grid dimensions must be at least 3")
    return _lattice(rows, cols, wrap=True)


def subdivide(e: EmbeddedGraph, factor: int) -> EmbeddedGraph:
    """Replace every edge by a path of `factor` edges (uniform subdivision)."""
    if factor < 1:
        raise GraphInputError("factor must be positive")
    g = e.graph
    nxt = g.n
    edges = []
    chains = []  # per old edge: list of new edge ids along the path u -> v
    for u, v in g.edges:
        inner = list(range(nxt, nxt + factor - 1))
        nxt += factor - 1
        path = [u] + inner + [v]
        chain = []
        for i in range(factor):
            chain.append(len(edges))
            edges.append((path[i], path[i + 1]))
        chains.append(chain)
    new_g = build_graph(nxt, edges)
    rotation = []
    for v in range(g.n):
        cyc = []
        for d in e.rotation[v]:
            eid, side = d >> 1, d & 1
            new_eid = chains[eid][0] if side == 0 else chains[eid][-1]
            cyc.append(2 * new_eid + side)
        rotation.append(cyc)
    for eid in range(g.m):
        chain = chains[eid]
        for i in range(factor - 1):
            # interior vertex between chain[i] and chain[i+1]
            rotation.append([2 * chain[i] + 1, 2 * chain[i + 1]])
    return embed(new_g, rotation)
