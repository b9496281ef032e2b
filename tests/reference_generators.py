"""Reference copies of ``grid``, ``toroidal_grid``, ``hex_set_graph`` and
``wall`` from ``shallowtd.generators``.

These are the constructors as they ran before grids and tori shared one
lattice builder: each builds its own edge and rotation lists, and
``hex_set_graph`` scans every edge for each corner's rotation, which takes
quadratic time.  The property tests require the library's generators to
emit the same edges and rotations and, for walls, the same ``WallSpec``.
"""

import math

from shallowtd.generators import (_HEX_DIRS, WallSpec, corner_hexagons,
                                  hex_distance, hexagon_corners)
from shallowtd.graph import EmbeddedGraph, GraphInputError, build_graph, embed


def grid(rows: int, cols: int) -> EmbeddedGraph:
    """rows x cols grid with the canonical right/down/left/up rotation."""
    if rows < 1 or cols < 1:
        raise GraphInputError("grid dimensions must be positive")
    vid = lambda r, c: r * cols + c
    edges = []
    right = {}
    down = {}
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                right[(r, c)] = len(edges)
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                down[(r, c)] = len(edges)
                edges.append((vid(r, c), vid(r + 1, c)))
    g = build_graph(rows * cols, edges)
    rotation = []
    for r in range(rows):
        for c in range(cols):
            cyc = []
            if (r, c) in right:
                cyc.append(2 * right[(r, c)])
            if (r, c) in down:
                cyc.append(2 * down[(r, c)])
            if (r, c - 1) in right:
                cyc.append(2 * right[(r, c - 1)] + 1)
            if (r - 1, c) in down:
                cyc.append(2 * down[(r - 1, c)] + 1)
            rotation.append(cyc)
    return embed(g, rotation)


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
    eids = {pair: i for i, pair in enumerate(edge_pairs)}
    g = build_graph(len(corner_pts), [(vid[a], vid[b]) for a, b in edge_pairs])
    # geometric counterclockwise rotation; corner lattice point (X, Y) sits
    # at Cartesian (X/2, Y*sqrt(3)/2)
    rotation = []
    for c in corner_pts:
        darts = []
        for pair in edge_pairs:
            if c in pair:
                other = pair[0] if pair[1] == c else pair[1]
                side = 0 if pair[0] == c else 1
                ang = math.atan2((other[1] - c[1]) * math.sqrt(3) / 2,
                                 (other[0] - c[0]) / 2)
                darts.append((ang, 2 * eids[pair] + side))
        rotation.append([d for _, d in sorted(darts)])
    return embed(g, rotation)


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


def toroidal_grid(rows: int, cols: int) -> EmbeddedGraph:
    """C_rows x C_cols with the standard genus-1 rotation."""
    if rows < 3 or cols < 3:
        raise GraphInputError("toroidal grid dimensions must be at least 3")
    vid = lambda r, c: (r % rows) * cols + (c % cols)
    edges = []
    right = {}
    down = {}
    for r in range(rows):
        for c in range(cols):
            right[(r, c)] = len(edges)
            edges.append((vid(r, c), vid(r, c + 1)))
            down[(r, c)] = len(edges)
            edges.append((vid(r, c), vid(r + 1, c)))
    g = build_graph(rows * cols, edges)
    rotation = []
    for r in range(rows):
        for c in range(cols):
            rotation.append([
                2 * right[(r, c)],
                2 * down[(r, c)],
                2 * right[(r, (c - 1) % cols)] + 1,
                2 * down[((r - 1) % rows, c)] + 1,
            ])
    return embed(g, rotation)
