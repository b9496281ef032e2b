"""Seeded input hosts and the op lists of the three workloads.

The benchmark makes its own hosts instead of calling the program's
generators, so that a change to ``shallowtd.generators`` cannot change what
is measured.  Every host is an edge list plus, for embedded hosts, a rotation
system in the program's ``v/e/rot`` text format (dart ``2e`` leaves
``edges[e][0]``, dart ``2e+1`` leaves ``edges[e][1]``).

The seed draws labels and triangulations, never sizes: each workload runs
the same ladder of host sizes under every seed, because op cost grows
steeply with size (validation is quadratic, the DP exponential in the width)
and a seeded size would swamp the change a later PR wants to see.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Host:
    """An input graph as the benchmark knows it (independent of the program)."""

    name: str
    kind: str                                  # grid | wall | tri | torus | apex | pattern
    n: int
    edges: list[tuple[int, int]]
    rotation: list[list[int]] | None = None    # None: written without rot lines
    genus: int = 0                             # orientable genus of the rotation

    def text(self) -> str:
        lines = [f"v {self.n}"]
        lines += [f"e {u} {v}" for u, v in self.edges]
        if self.rotation is not None:
            lines += ["rot " + " ".join(map(str, [v, *cyc]))
                      for v, cyc in enumerate(self.rotation)]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Host families.


def _lattice(rows: int, cols: int, keep_down, wrap: bool) -> tuple[list, list]:
    """Grid-like host with rotation (right, down, left, up) at each vertex."""
    vid = lambda r, c: (r % rows) * cols + (c % cols)
    edges: list[tuple[int, int]] = []
    right: dict[tuple[int, int], int] = {}
    down: dict[tuple[int, int], int] = {}
    for r in range(rows):
        for c in range(cols):
            if wrap or c + 1 < cols:
                right[r, c] = len(edges)
                edges.append((vid(r, c), vid(r, c + 1)))
            if (wrap or r + 1 < rows) and keep_down(r, c):
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
    return edges, rotation


def grid(rows: int, cols: int) -> Host:
    edges, rot = _lattice(rows, cols, lambda r, c: True, wrap=False)
    return Host(f"grid{rows}x{cols}", "grid", rows * cols, edges, rot)


def wall(rows: int, cols: int) -> Host:
    """Brick wall: a grid keeping every other vertical edge (subcubic,
    bipartite, faces are 6-cycles)."""
    edges, rot = _lattice(rows, cols, lambda r, c: (r + c) % 2 == 0, wrap=False)
    return Host(f"wall{rows}x{cols}", "wall", rows * cols, edges, rot)


def torus(rows: int, cols: int) -> Host:
    edges, rot = _lattice(rows, cols, lambda r, c: True, wrap=True)
    return Host(f"torus{rows}x{cols}", "torus", rows * cols, edges, rot, genus=1)


def triangulation(n: int, index: int) -> Host:
    """Stacked planar triangulation: insert each new vertex into a uniformly
    chosen face and join it to the face's three corners.  ``index`` seeds the
    face choices; (n, index) names an entry of the pinned catalogue."""
    rng = random.Random(f"tri-{n}-{index}")
    edges = [(0, 1), (1, 2), (2, 0)]
    rot = [[0, 5], [2, 1], [4, 3]]
    tail = [0, 1, 1, 2, 2, 0]                   # tail of each dart
    faces = [(0, 2, 4), (5, 3, 1)]              # dart triples bounding faces
    for w in range(3, n):
        fi = rng.randrange(len(faces))
        d0, d1, d2 = faces[fi]
        new = []
        for d in (d0, d1, d2):
            corner = tail[d]
            eid = len(edges)
            edges.append((w, corner))
            tail += [w, corner]
            rot[corner].insert(rot[corner].index(d), 2 * eid + 1)
            new.append(2 * eid)
        wa, wb, wc = new
        rot.append([wb, wa, wc])
        faces[fi] = (d0, wb + 1, wa)
        faces.append((d1, wc + 1, wb))
        faces.append((d2, wa + 1, wc))
    return Host(f"tri{n}#{index}", "tri", n, edges, rot)


def apex(side: int) -> Host:
    """side x side grid plus one vertex adjacent to all of it; written
    without rotation lines, so the program takes its non-embedded path."""
    g = grid(side, side)
    a = side * side
    edges = g.edges + [(a, v) for v in range(a)]
    return Host(f"apex{side}", "apex", a + 1, edges, None)


def pattern(name: str) -> Host:
    """Small connected patterns for ``subiso`` (no rotation needed)."""
    edges = {
        "triangle": [(0, 1), (1, 2), (2, 0)],
        "p4": [(0, 1), (1, 2), (2, 3)],
        "c4": [(0, 1), (1, 2), (2, 3), (3, 0)],
        "claw": [(0, 1), (0, 2), (0, 3)],
        "k4": [(a, b) for a in range(4) for b in range(a + 1, 4)],
        "k5": [(a, b) for a in range(5) for b in range(a + 1, 5)],
    }[name]
    n = 1 + max(max(e) for e in edges)
    return Host(name, "pattern", n, edges, None)


def relabel(h: Host, rng: random.Random) -> Host:
    """Isomorphic copy with shuffled vertex ids (vertex 0 stays 0), edge
    order, edge orientations and rotation starting points.

    Vertex 0 is kept because ``ptas`` and ``subiso`` root their BFS at vertex
    0 and ``min_eccentricity_root`` samples from it; moving it would move the
    depth, and with it the cost, by a factor the seed should not control.
    """
    rest = list(range(1, h.n))
    rng.shuffle(rest)
    perm = [0] + rest
    order = list(range(len(h.edges)))
    rng.shuffle(order)
    flip = [rng.random() < 0.5 for _ in h.edges]
    pos = {old: i for i, old in enumerate(order)}
    edges = []
    for old in order:
        u, v = h.edges[old]
        if flip[old]:
            u, v = v, u
        edges.append((perm[u], perm[v]))
    rotation = None
    if h.rotation is not None:
        rotation = [[] for _ in range(h.n)]
        for v, cyc in enumerate(h.rotation):
            new = [2 * pos[d >> 1] + ((d & 1) ^ flip[d >> 1]) for d in cyc]
            k = rng.randrange(len(new)) if new else 0
            rotation[perm[v]] = new[k:] + new[:k]
    return Host(h.name, h.kind, h.n, edges, rotation, h.genus)


# ---------------------------------------------------------------------------
# Workloads: a fixed ladder of (host, command) entries per workload; the
# seed draws triangulations and labelings.

CATALOGUE = 32          # pinned triangulations per size (pins.json)


@dataclass
class Op:
    """One ``cli.run`` call: argv with ``{input}``/``{pattern}``/``{out}``
    placeholders, plus what the checker needs to know."""

    host: Host
    argv: list[str]
    problem: str | None = None        # mis | vc | ds for solve and ptas
    k: int | None = None
    pattern: Host | None = None
    induced: bool = False
    expect_found: bool | None = None  # pinned subiso outcome
    files: dict[str, str] = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def label(self) -> str:
        extra = [self.problem, f"k{self.k}" if self.k else None,
                 self.pattern.name if self.pattern else None,
                 "induced" if self.induced else None]
        return " ".join([self.command, self.host.name] + [x for x in extra if x])


def decompose_ops(rng: random.Random) -> list[Op]:
    """Big single hosts: construction, validate and emit do all the work.
    Grids are deep (many bag entries per face), triangulations shallow (many
    faces with small bags).  The seed draws the triangulations; grids, walls
    and the torus keep their generated labels (see ``exact_ops``)."""
    # Three light, three middle and three heavy hosts: the median op falls
    # in the middle of the middle class and the tail in the heavy class.
    hosts = [grid(30, 30), triangulation(800, rng.randrange(2**31)),
             torus(28, 28),
             grid(40, 40), triangulation(1600, rng.randrange(2**31)),
             wall(40, 40),
             grid(45, 45), triangulation(2000, rng.randrange(2**31)),
             wall(45, 45)]
    ops = []
    for h in hosts:
        argv = ["decompose", "--input", "{input}", "--out", "{out}"]
        if h.kind == "torus":
            argv[1:1] = ["--method", "genus"]
        ops.append(Op(relabel(h, rng) if h.kind == "tri" else h, argv))
    return ops


def slicing_ops(rng: random.Random) -> list[Op]:
    """Many small band decompositions per call: ptas over level bands and
    subiso over level windows, on mid-size grids and triangulations.

    The seed relabels the triangulations but does not pick them: how many
    bands a triangulation has depends on its depth from vertex 0, and op
    times of different triangulations of one size differ by tens of
    percent."""
    ops = []
    plan = [(grid(14, 14), "mis", 4), (grid(16, 16), "vc", 3),
            (grid(16, 16), "ds", 2), (grid(18, 18), "mis", 2),
            (triangulation(200, 0), "ds", 3), (triangulation(300, 0), "vc", 4),
            (triangulation(350, 0), "mis", 2)]
    for h, problem, k in plan:
        ops.append(Op(relabel(h, rng) if h.kind == "tri" else h,
                      ["ptas", "--problem", problem, "--k", str(k),
                       "--input", "{input}"], problem=problem, k=k))
    # Absent patterns scan every offset and window; present ones exit early.
    # Grids are bipartite (no triangle); planar hosts have no K5.
    searches = [(grid(16, 16), "triangle", False, False),
                (grid(18, 18), "c4", True, True),
                (grid(20, 20), "claw", False, True),
                (triangulation(200, 0), "k5", False, False),
                (triangulation(300, 0), "k4", True, True),
                (triangulation(400, 0), "triangle", False, True)]
    for h, pat, induced, found in searches:
        argv = ["subiso", "--pattern", "{pattern}", "--input", "{input}"]
        if induced:
            argv.append("--induced")
        ops.append(Op(relabel(h, rng) if h.kind == "tri" else h, argv,
                      pattern=pattern(pat), induced=induced,
                      expect_found=found))
    return ops


def exact_ops(rng: random.Random) -> list[Op]:
    """Small hosts whose decompositions are wide: the DP tables dominate.

    Grids and walls keep their generated labels: ``solve`` has no root
    option and its default root depends on the labels, and moving it swings
    the width by up to 5 and the op time by 4x on a 10x10 grid.
    """
    # The three heaviest (grid 10 mis and vc, grid 7 ds) give the tail at
    # least 11 samples in the minimum of four cycles.
    plan = [(grid(8, 8), "mis"), (grid(8, 8), "vc"), (grid(9, 9), "mis"),
            (grid(9, 9), "vc"), (grid(10, 10), "mis"), (grid(10, 10), "vc"),
            (grid(6, 6), "ds"), (grid(7, 7), "ds"), (wall(8, 8), "mis"),
            (wall(8, 8), "vc"), (wall(6, 6), "ds")]
    # Small solves, where argument parsing, file reading and the report
    # weigh as much as the DP; they hold the median op.
    for h in (grid(4, 4), grid(5, 5), wall(4, 4)):
        plan += [(h, p) for p in ("mis", "vc", "ds")]
    plan += [(grid(6, 6), "mis"), (grid(6, 6), "vc"), (wall(6, 6), "mis"),
             (wall(6, 6), "vc")]
    ops = [Op(h, ["solve", "--problem", p, "--input", "{input}"], problem=p)
           for h, p in plan]
    relabelled = []
    for n in (40, 60, 80):
        t = triangulation(n, rng.randrange(CATALOGUE))
        relabelled += [(t, p) for p in ("mis", "vc", "ds")]
    for side in (5, 6, 7):
        relabelled += [(apex(side), p) for p in ("mis", "vc")]
    relabelled += [(apex(5), "ds"), (apex(6), "ds")]
    ops += [Op(relabel(h, rng), ["solve", "--problem", p, "--input", "{input}"],
               problem=p) for h, p in relabelled]
    return ops


WORKLOADS = {"decompose": decompose_ops, "slicing": slicing_ops,
             "exact": exact_ops}
