"""Undirected multigraphs, combinatorial embeddings, and BFS layerings.

Edges carry stable integer ids (their position in the edge list).  A graph
keeps one adjacency, ``nbrs``: per vertex, the other end of each incident
edge in edge-id order, built together with the edge list.  A *dart*
is a directed half of edge ``e``: dart ``2*e`` points from ``edges[e][0]`` to
``edges[e][1]``, dart ``2*e + 1`` the other way.  An embedding is a rotation
system: the cyclic sequence of outgoing darts around each vertex.  Faces are
the orbits of ``d -> rotation-successor of reverse(d)``, and the Euler genus
follows from ``n - m + f = 2 - 2g`` on each connected component.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, repeat
from operator import eq, itemgetter, ne, sub

from . import _kernels


# The input-size budget: the most vertices a parsed graph or decomposition
# header may declare, checked before anything of that size is allocated.
MAX_VERTICES = 1 << 20


class GraphInputError(ValueError):
    """Malformed construction input (bad endpoint, bad rotation, ...)."""


class EmbeddingError(ValueError):
    """A rotation system inconsistent with the edge set, or a genus failure."""


@dataclass
class Graph:
    """Undirected multigraph.  ``nbrs[v]`` lists the other end of each edge
    at v in edge-id order; a loop lists its vertex twice."""

    n: int
    edges: list[tuple[int, int]]
    nbrs: list[list[int]]
    _nbr_sets: list[set[int]] | None = field(default=None, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbor_sets(self) -> list[set[int]]:
        if self._nbr_sets is None:
            self._nbr_sets = [set(nb) - {v} for v, nb in enumerate(self.nbrs)]
        return self._nbr_sets

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.neighbor_sets()[u]


def build_graph(n: int, edges) -> Graph:
    """Build a multigraph from an edge list; edge ids follow input order."""
    if n < 0:
        raise GraphInputError("vertex count must be nonnegative")
    edge_list: list[tuple[int, int]] = []
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u}, {v}) has an endpoint out of range [0, {n})")
        edge_list.append((u, v))
        nbrs[u].append(v)
        nbrs[v].append(u)
    return Graph(n=n, edges=edge_list, nbrs=nbrs)


# ---------------------------------------------------------------------------
# BFS layering

@dataclass
class Layering:
    """BFS tree, as the BFS kernel gives it: levels are graph distances
    from the root, ``parent`` the tree, and ``levels[d]`` lists the
    vertices at level d in ascending order.  The tree's edges are not
    kept; ``planar_td.tree_cotree`` picks them on the graph it partitions.

    As in the BFS kernel, -1 is the level of a vertex outside the root's
    component, and the parent of it and of the root; such a vertex is in
    no list of `levels`.
    """

    root: int
    level: list[int]
    parent: list[int]
    levels: list[list[int]]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def complete(self) -> bool:
        return -1 not in self.level


def bfs_layering(g: Graph, root: int) -> Layering:
    """BFS from `root`; the parent of a vertex is its lowest-numbered
    neighbor in the preceding level.  Reads the adjacency only, no edge."""
    if not (0 <= root < g.n):
        raise GraphInputError(f"root {root} out of range [0, {g.n})")
    level, parent, levels = _kernels.bfs_levels(g.nbrs, root)
    return Layering(root=root, level=level, parent=parent, levels=levels)


def eccentricity(g: Graph, v: int) -> float:
    """Largest distance from v; infinite when g is disconnected."""
    if not (0 <= v < g.n):
        raise GraphInputError(f"vertex {v} out of range [0, {g.n})")
    level, _parent, levels = _kernels.bfs_levels(g.nbrs, v)
    return math.inf if min(level) < 0 else len(levels) - 1


def diameter(g: Graph) -> float:
    """Max eccentricity over all vertices; infinite when disconnected."""
    if g.n == 0:
        return 0
    best = 0
    for v in range(g.n):
        ecc = eccentricity(g, v)
        if ecc == math.inf:
            return math.inf
        best = max(best, ecc)
    return best


def component_labels(g: Graph) -> tuple[list[int], list[int]]:
    """(label, sizes): per vertex the index of its connected component,
    the components numbered in order of their lowest vertex, and per
    component its vertex count; one walk, nothing sorted."""
    label = [-1] * g.n
    sizes: list[int] = []
    for s in range(g.n):
        if label[s] >= 0:
            continue
        c = len(sizes)
        label[s] = c
        size = 1
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.nbrs[v]:
                if label[w] < 0:
                    label[w] = c
                    size += 1
                    stack.append(w)
        sizes.append(size)
    return label, sizes


def connected_components(g: Graph) -> list[list[int]]:
    """The components as ascending vertex lists, in order of their lowest
    vertex."""
    label, sizes = component_labels(g)
    comps: list[list[int]] = [[] for _ in sizes]
    for v, c in enumerate(label):
        comps[c].append(v)
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


# ---------------------------------------------------------------------------
# Embeddings

@dataclass
class EmbeddedGraph:
    """A multigraph with an orientable rotation system and its derived faces."""

    graph: Graph
    rotation: list[list[int]]
    faces: list[list[int]]
    euler_genus: int

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m


def _rotation_successors(m: int, rotation: list[list[int]]) -> list[int]:
    """Per dart, the next dart in the rotation at its tail."""
    succ = [0] * (2 * m)
    for cyc in rotation:
        if cyc:
            prev = cyc[-1]
            for d in cyc:
                succ[prev] = d
                prev = d
    return succ


def _trace_faces(g: Graph, rotation: list[list[int]]) -> list[list[int]]:
    """Faces in order of their lowest dart, each starting there."""
    succ = _rotation_successors(g.m, rotation)
    faces = []
    visited = bytearray(2 * g.m)
    for d0 in range(2 * g.m):
        if visited[d0]:
            continue
        cyc = []
        d = d0
        while not visited[d]:
            visited[d] = 1
            cyc.append(d)
            d = succ[d ^ 1]
        faces.append(cyc)
    return faces


def embed(g: Graph, rotation: list[list[int]]) -> EmbeddedGraph:
    """Attach a rotation system and compute faces and Euler genus.

    Raises EmbeddingError if the rotation does not cover each dart exactly
    once with the correct tail, or if the genus comes out negative or
    non-integral on some component.
    """
    ndarts = 2 * g.m
    tails = [v for uv in g.edges for v in uv]
    seen = bytearray(ndarts)
    covered = 0
    for v in range(g.n):
        for d in rotation[v]:
            if not (0 <= d < ndarts):
                raise EmbeddingError(f"dart {d} out of range at vertex {v}")
            if tails[d] != v:
                raise EmbeddingError(f"dart {d} listed at vertex {v} but its tail is {tails[d]}")
            if seen[d]:
                raise EmbeddingError(f"dart {d} appears more than once in the rotation")
            seen[d] = 1
        covered += len(rotation[v])
    if covered != ndarts:
        raise EmbeddingError(f"rotation covers {covered} darts, expected {ndarts}")

    faces = _trace_faces(g, rotation)

    vertex_comp, sizes = component_labels(g)
    genus = 0
    m_per = [0] * len(sizes)
    for u, v in g.edges:
        m_per[vertex_comp[u]] += 1
    f_per = [0] * len(sizes)
    for cyc in faces:
        f_per[vertex_comp[tails[cyc[0]]]] += 1
    for ci, size in enumerate(sizes):
        if m_per[ci] == 0:
            continue
        chi = size - m_per[ci] + f_per[ci]
        if (2 - chi) % 2 != 0 or chi > 2:
            raise EmbeddingError(
                f"component has Euler characteristic {chi}: non-orientable or invalid rotation")
        genus += (2 - chi) // 2
    return EmbeddedGraph(graph=g, rotation=rotation, faces=faces, euler_genus=genus)


def planar_is_connected(e: EmbeddedGraph) -> bool:
    """is_connected(e.graph) for a genus-0 embedding, in O(1) without a
    walk: each component with an edge has n - m + f = 2 and an isolated
    vertex adds 1, so the sum is 2 for a connected graph with an edge and
    also for two isolated vertices, which the edge count rules out."""
    g = e.graph
    return g.n <= 1 or (g.m > 0 and g.n - g.m + len(e.faces) == 2)


# ---------------------------------------------------------------------------
# Minor operations

def induced_edges(e: EmbeddedGraph,
                  keep: list[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """(edges, ids): the edges of `e` with both ends in the ascending vertex
    list `keep`, renumbered to positions there with their orientation, and
    their ids in `e`, ascending.  Each edge is read at its first end's dart
    in that end's rotation (a loop once), so the cost follows the kept
    vertices' degrees, not the size of `e`."""
    new_id = {v: i for i, v in enumerate(keep)}
    ends, rotation = e.graph.edges, e.rotation
    edges, ids = [], []
    for eid in sorted([d >> 1 for v in keep for d in rotation[v]
                       if not d & 1]):
        u, w = ends[eid]
        if w in new_id:
            edges.append((new_id[u], new_id[w]))
            ids.append(eid)
    return edges, ids


def reembed(n: int, edges: list[tuple[int, int]], new_eid: dict[int, int],
            rotation) -> EmbeddedGraph:
    """Embed the graph of `edges` on `n` vertices.  `rotation` gives each new
    vertex a cycle of old darts; a dart survives when its edge is a key of
    `new_eid` (old edge id -> new edge id) and keeps its side."""
    return embed(build_graph(n, edges),
                 [[2 * new_eid[d >> 1] + (d & 1) for d in cyc if d >> 1 in new_eid]
                  for cyc in rotation])


def simple_edge_ids(edges) -> list[int]:
    """Ids of the non-loop edges that come first for their endpoint pair.
    Deleting the rest keeps a genus-0 embedding at genus 0: on the sphere
    a loop or a later parallel edge is never a bridge, so the two faces
    beside it are distinct and deleting it merges them."""
    kept: list[int] = []
    pairs: set[tuple[int, int]] = set()
    for eid, (u, v) in enumerate(edges):
        key = (u, v) if u < v else (v, u)
        if u != v and key not in pairs:
            pairs.add(key)
            kept.append(eid)
    return kept


def simple_embedding(e: EmbeddedGraph) -> EmbeddedGraph:
    """`e` without its loops and later parallel edges (``simple_edge_ids``),
    kept edges and darts in order; `e` itself when it has none."""
    edges = e.graph.edges
    keep = simple_edge_ids(edges)
    if len(keep) == len(edges):
        return e
    return reembed(e.n, [edges[eid] for eid in keep],
                   {old: i for i, old in enumerate(keep)}, e.rotation)


def induced_embedded_subgraph(e: EmbeddedGraph, keep) -> tuple[EmbeddedGraph, list[int]]:
    """Induced embedded subgraph: surviving darts keep their cyclic order;
    `e` itself when `keep` is every vertex.  The kept edges are read by
    ``induced_edges``, so the cost follows the kept vertices' degrees."""
    keep = sorted(set(keep))
    if keep and not (0 <= keep[0] and keep[-1] < e.n):
        bad = keep[0] if keep[0] < 0 else keep[-1]
        raise GraphInputError(f"vertex {bad} out of range")
    if len(keep) == e.n:
        return e, keep
    edges, ids = induced_edges(e, keep)
    return reembed(len(keep), edges, {eid: i for i, eid in enumerate(ids)},
                   [e.rotation[v] for v in keep]), keep


def contract_connected_set(e: EmbeddedGraph, vertices) -> tuple[EmbeddedGraph, list[int]]:
    """Contract a connected vertex set of a planar embedding to a single
    vertex, splicing rotations.

    Loops are deleted and parallel edges merged down to their lowest edge id
    (``simple_edge_ids``).  Returns (contracted embedding, old_to_new map).
    The Euler genus of the result is recomputed from the surviving rotation.
    """
    if e.euler_genus != 0:
        raise EmbeddingError("contract_connected_set requires a planar embedding")
    g = e.graph
    sset = sorted(set(vertices))
    if not sset:
        raise GraphInputError("cannot contract an empty set")
    for v in sset:
        if not (0 <= v < g.n):
            raise GraphInputError(f"vertex {v} out of range")

    # spanning tree of the induced subgraph on sset, by BFS
    in_set = set(sset)
    tree_edges: list[int] = []
    seen = {sset[0]}
    queue = deque([sset[0]])
    while queue:
        v = queue.popleft()
        for eid in sorted(d >> 1 for d in e.rotation[v]):
            w = sum(g.edges[eid]) - v            # the other end
            if w in in_set and w not in seen:
                seen.add(w)
                tree_edges.append(eid)
                queue.append(w)
    if len(seen) != len(sset):
        raise GraphInputError("vertex set does not induce a connected subgraph")

    # mutable working copies
    rot = [list(c) for c in e.rotation]
    merged_into = list(range(g.n))  # union-find with path compression

    def find(v: int) -> int:
        while merged_into[v] != v:
            merged_into[v] = merged_into[merged_into[v]]
            v = merged_into[v]
        return v

    for eid in tree_edges:
        u, v = find(g.edges[eid][0]), find(g.edges[eid][1])
        du, dv = 2 * eid, 2 * eid + 1
        iu = rot[u].index(du)
        iv = rot[v].index(dv)
        # splice rot[v] (minus dv) into rot[u] at du's position
        spliced = rot[v][iv + 1:] + rot[v][:iv]
        rot[u] = rot[u][:iu] + spliced + rot[u][iu + 1:]
        rot[v] = []
        merged_into[v] = u

    # Compact, deleting every loop (the contracted tree edges among them)
    # and every parallel duplicate after the lowest edge id.
    survivors = sorted(v for v in range(g.n) if find(v) == v)
    new_vid = {v: i for i, v in enumerate(survivors)}
    ends = [(find(u), find(v)) for u, v in g.edges]
    kept = simple_edge_ids(ends)
    new_edges = [(new_vid[ends[eid][0]], new_vid[ends[eid][1]]) for eid in kept]
    new_eid = {old: i for i, old in enumerate(kept)}
    result = reembed(len(survivors), new_edges, new_eid, [rot[v] for v in survivors])
    old_to_new = [new_vid[find(v)] for v in range(g.n)]
    return result, old_to_new


# ---------------------------------------------------------------------------
# Triangulation

def triangulate(e: EmbeddedGraph) -> tuple[Graph, list[list[int]]]:
    """(graph, triangles): `e`'s graph with chords added until every face
    has exactly three darts, and those faces (planar only).

    Original edges keep their ids; added chords may duplicate existing edges
    (the result is a multigraph) but never create loops.  The triangles are
    the faces of a genus-0 embedding of the result: each starts at its
    lowest dart and they are sorted by it, as ``embed`` would give them.
    Only ``e.faces`` and the graph are read, never ``e.rotation``.

    The chord rule: each face of ``e.faces``, in order, is a ring of corners
    anchored at the first occurrence of its lowest vertex.  The ear at a
    corner c is the triangle of c and the next two corners, cut off by a
    chord from c to the corner two ahead.  It is valid when those two are
    different vertices.  Scanning forward from the last cut (from the anchor
    at first), the first valid ear is cut, even when its chord doubles an
    edge; the chord's dart takes c's place in the ring and the middle corner
    leaves it.  Each cut is O(1) and a scan stops at the first valid ear.

    Raises EmbeddingError for a nonzero genus, a face of fewer than three
    darts or a face with no valid ear, and GraphInputError for a
    disconnected host or fewer than three vertices.
    """
    if e.euler_genus != 0:
        raise EmbeddingError("triangulate requires a planar embedding")
    g = e.graph
    n = g.n
    if not planar_is_connected(e):
        raise GraphInputError("triangulate requires a connected graph")
    if n < 3:
        raise GraphInputError("triangulate requires at least 3 vertices")

    edges = list(g.edges)
    nbrs = [list(nb) for nb in g.nbrs]
    tail = [v for uv in edges for v in uv]
    triangles: list[list[int]] = []
    for face in e.faces:
        size = len(face)
        if size < 3:
            raise EmbeddingError("cannot triangulate a face with fewer than 3 darts")
        if size == 3:
            triangles.append(list(face))
            continue
        # the ring: position k holds dart[k] at corner[k], followed by nxt[k]
        dart = list(face)
        corner = [tail[d] for d in dart]
        nxt = list(range(1, size))
        nxt.append(0)
        x = corner.index(min(corner))
        while size > 3:
            for _ in range(size):
                x2 = nxt[nxt[x]]
                a, b = corner[x], corner[x2]
                if a != b:
                    break
                x = nxt[x]
            else:
                raise EmbeddingError("no valid ear in face; embedding is degenerate")
            # Cut the ear (da, db, q): the chord's dart q = b->a closes it,
            # and its dart a->b takes da's place in the ring.
            da, db = dart[x], dart[nxt[x]]
            q = 2 * len(edges) + 1
            edges.append((a, b))
            nbrs[a].append(b)
            nbrs[b].append(a)
            triangles.append([da, db, q] if da < db else [db, q, da])
            dart[x] = q - 1
            nxt[x] = x2
            size -= 1
        t = [dart[x], dart[nxt[x]], dart[nxt[nxt[x]]]]
        k = t.index(min(t))
        triangles.append(t[k:] + t[:k])
    triangles.sort()
    return Graph(n=n, edges=edges, nbrs=nbrs), triangles


# ---------------------------------------------------------------------------
# Text interchange format

def emit_graph(obj: Graph | EmbeddedGraph) -> str:
    """Emit the `v/e/rot` line format.  Rotation lines only for embeddings."""
    if isinstance(obj, EmbeddedGraph):
        g, rot = obj.graph, obj.rotation
    else:
        g, rot = obj, None
    lines = [f"v {g.n}"]
    for u, v in g.edges:
        lines.append(f"e {u} {v}")
    if rot is not None:
        for v in range(g.n):
            lines.append("rot " + str(v) + "".join(f" {d}" for d in rot[v]))
    return "\n".join(lines) + "\n"


# Lines per block of `text_columns`; 512 to 4096 read alike.
BLOCK_LINES = 2048


def text_columns(text: str, shapes: dict[str, int | None]):
    """The non-blank lines of `text` without ``#`` comments, as one dict
    per block of BLOCK_LINES lines: keyword -> (line numbers, column, ...)
    of the block's lines with that keyword, in file order.

    `shapes` maps each keyword to its number of integer fields, which give
    one column of ints each, or to None for one or more fields, which give
    a column of first fields and a column of lists of the rest.  A block's
    lines are split once and grouped by keyword, and each keyword's fields
    are converted by one ``map(int, ...)`` (``_columns``).  A block with a
    faulty line is scanned once more, line by line in file order, under the
    per-line rule: another keyword or field count ("cannot parse"), else a
    field that is not an integer.  The first line that breaks it raises a
    GraphInputError naming it, right after the dict of the lines before it
    in its block; so a caller that checks each dict in turn raises the
    error of the first faulty line.  The line list lives until the last
    block is read."""
    lines = text.splitlines()
    comments = "#" in text
    for lo in range(0, len(lines), BLOCK_LINES):
        raw = lines[lo:lo + BLOCK_LINES]
        body = (map(itemgetter(0), map(str.partition, raw, repeat("#")))
                if comments else raw)
        rows = list(map(str.split, body))
        nums = range(lo + 1, lo + 1 + len(rows))
        if not all(rows):                           # blank lines
            nums = list(compress(nums, rows))
            rows = list(filter(None, rows))
        columns = _columns(nums, rows, shapes)
        if columns is None:     # the ordered scan for the first faulty line
            for i, (lineno, row) in enumerate(zip(nums, rows)):
                arity = shapes.get(row[0], 0)
                if row[0] not in shapes or (len(row) < 2 if arity is None
                                            else len(row) != arity + 1):
                    what = "cannot parse {!r}"
                else:
                    try:
                        list(map(int, row[1:]))
                        continue
                    except ValueError:
                        what = "a field of {!r} is not an integer"
                yield _columns(nums[:i], rows[:i], shapes)
                raise GraphInputError(f"line {lineno}: "
                                      + what.format(lines[lineno - 1]))
        yield columns


def _columns(nums, rows: list[list[str]], shapes: dict[str, int | None]):
    """`text_columns`' dict of the split non-blank lines `rows`, numbered
    `nums`, or None as soon as one of them is faulty."""
    keys = list(map(itemgetter(0), rows))
    kinds = set(keys)
    if not kinds <= shapes.keys():
        return None
    columns = {}
    for key in kinds:
        if len(kinds) == 1:
            knums, krows = nums, rows
        else:
            chosen = list(map(key.__eq__, keys))
            knums, krows = list(compress(nums, chosen)), list(compress(rows, chosen))
        arity = shapes[key]
        least, most = (2, math.inf) if arity is None else (arity + 1, arity + 1)
        sizes = set(map(len, krows))
        if not least <= min(sizes) <= max(sizes) <= most:
            return None
        try:
            values = list(map(int, chain.from_iterable(
                map(itemgetter(slice(1, None)), krows))))
        except ValueError:
            return None
        if arity is not None:
            columns[key] = (knums, *(values[j::arity] for j in range(arity)))
        else:       # row i's fields are values[starts[i]:starts[i + 1]]
            starts = list(accumulate(map(sub, map(len, krows), repeat(1)),
                                     initial=0))
            columns[key] = (knums, [values[s] for s in starts[:-1]],
                            [values[s + 1:t] for s, t in zip(starts, starts[1:])])
    return columns


def parse_graph(text: str) -> Graph | EmbeddedGraph:
    """Parse the `v/e/rot` format; returns an EmbeddedGraph when rotation
    lines are present.  Self-loop lines are rejected as malformed input; a
    loop that a library caller passes to ``build_graph`` constrains no
    solver, checker or oracle.  Each block of ``text_columns`` is checked
    before the next is read, so the first faulty line in file order is the
    one named."""
    n = None
    edges: list[tuple[int, int]] = []
    rot: dict[int, list[int]] = {}
    rot_line: dict[int, int] = {}       # vertex -> its rot line's number
    for block in text_columns(text, {"v": 1, "e": 2, "rot": None}):
        faults = []             # the first (line number, fault) per keyword
        if "v" in block:
            for lineno, count in zip(*block["v"]):
                if n is not None:
                    faults.append((lineno, "duplicate v line"))
                    break
                n = count
                if n > MAX_VERTICES:
                    faults.append((lineno, f"{n} vertices exceed the budget "
                                           f"of {MAX_VERTICES}"))
                    break
        if "e" in block:
            nums, us, vs = block["e"]
            if not all(map(ne, us, vs)):
                i = list(map(eq, us, vs)).index(True)
                faults.append((nums[i], f"self-loop at vertex {us[i]}"))
            edges.extend(zip(us, vs))
        if "rot" in block:
            nums, heads, tails = block["rot"]
            known = len(rot)
            rot.update(zip(heads, tails))
            if len(rot) != known + len(heads):
                for lineno, v in zip(nums, heads):
                    if v in rot_line:
                        faults.append((lineno, "duplicate rot line for "
                                               f"vertex {v}"))
                        break
                    rot_line[v] = lineno
            rot_line.update(zip(heads, nums))
        if faults:
            lineno, fault = min(faults)
            raise GraphInputError(f"line {lineno}: {fault}")
    if n is None:
        raise GraphInputError("missing v line")
    stray = next((v for v in rot if not 0 <= v < n), None)
    if stray is not None:
        raise GraphInputError(f"line {rot_line[stray]}: rot line for vertex "
                              f"{stray}, outside [0, {n})")
    g = build_graph(n, edges)
    if not rot:
        return g
    rotation = [rot.get(v, []) for v in range(n)]
    return embed(g, rotation)
