"""Undirected multigraphs, combinatorial embeddings, and BFS layerings.

Edges carry stable integer ids (their position in the edge list).  A *dart*
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

from . import _kernels


class GraphInputError(ValueError):
    """Malformed construction input (bad endpoint, bad rotation, ...)."""


class EmbeddingError(ValueError):
    """A rotation system inconsistent with the edge set, or a genus failure."""


@dataclass
class Graph:
    """Undirected multigraph.  Loops appear twice in their vertex's adjacency."""

    n: int
    edges: list[tuple[int, int]]
    adj: list[list[int]]
    _nbr_sets: list[set[int]] | None = field(default=None, repr=False, compare=False)
    _nbr_lists: list[list[int]] | None = field(default=None, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.edges[eid]
        return w if v == u else u

    def neighbors(self, v: int) -> list[int]:
        return self.neighbor_lists()[v]

    def neighbor_lists(self) -> list[list[int]]:
        """Per vertex, the other end of each incident edge in `adj` order (a
        loop lists its vertex twice).  Cached and shared: do not mutate."""
        if self._nbr_lists is None:
            edges = self.edges
            self._nbr_lists = [[edges[e][1] if edges[e][0] == v else edges[e][0]
                                for e in incident]
                               for v, incident in enumerate(self.adj)]
        return self._nbr_lists

    def neighbor_sets(self) -> list[set[int]]:
        if self._nbr_sets is None:
            self._nbr_sets = [set(nb) - {v}
                              for v, nb in enumerate(self.neighbor_lists())]
        return self._nbr_sets

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.neighbor_sets()[u]


def build_graph(n: int, edges) -> Graph:
    """Build a multigraph from an edge list; edge ids follow input order."""
    if n < 0:
        raise GraphInputError("vertex count must be nonnegative")
    edge_list: list[tuple[int, int]] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u}, {v}) has an endpoint out of range [0, {n})")
        edge_list.append((u, v))
        adj[u].append(eid)
        adj[v].append(eid)
    return Graph(n=n, edges=edge_list, adj=adj)


# ---------------------------------------------------------------------------
# BFS layering

@dataclass
class Layering:
    """BFS tree: levels are graph distances from the root.

    As in the BFS kernel, -1 is the level of a vertex outside the root's
    component, and the parent and parent edge of it and of the root.
    """

    root: int
    level: list[int]
    parent: list[int]
    parent_edge: list[int]
    depth: int

    @property
    def complete(self) -> bool:
        return -1 not in self.level

    def path_to_root(self, v: int) -> list[int]:
        path = [v]
        while self.parent[path[-1]] >= 0:
            path.append(self.parent[path[-1]])
        return path


def bfs_layering(g: Graph, root: int) -> Layering:
    """BFS from `root`; the parent of a vertex is its lowest-numbered
    neighbor in the preceding level, and its parent edge the lowest-id edge
    between the two."""
    if not (0 <= root < g.n):
        raise GraphInputError(f"root {root} out of range [0, {g.n})")
    level, parent = _kernels.bfs_levels(g.neighbor_lists(), root)
    parent_edge = [-1] * g.n
    for eid, (u, v) in enumerate(g.edges):      # ascending: the first wins
        if parent[v] == u and parent_edge[v] < 0:
            parent_edge[v] = eid
        elif parent[u] == v and parent_edge[u] < 0:
            parent_edge[u] = eid
    depth = max((l for l in level if l >= 0), default=0)
    return Layering(root=root, level=level, parent=parent, parent_edge=parent_edge, depth=depth)


def eccentricity(g: Graph, v: int) -> float:
    """Largest distance from v; infinite when g is disconnected."""
    if not (0 <= v < g.n):
        raise GraphInputError(f"vertex {v} out of range [0, {g.n})")
    level, _parent = _kernels.bfs_levels(g.neighbor_lists(), v)
    return math.inf if min(level) < 0 else max(level)


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


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
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

    comps = connected_components(g)
    genus = 0
    vertex_comp = [0] * g.n
    for ci, comp in enumerate(comps):
        for v in comp:
            vertex_comp[v] = ci
    m_per = [0] * len(comps)
    for u, v in g.edges:
        m_per[vertex_comp[u]] += 1
    f_per = [0] * len(comps)
    for cyc in faces:
        f_per[vertex_comp[tails[cyc[0]]]] += 1
    for ci, comp in enumerate(comps):
        if m_per[ci] == 0:
            continue
        chi = len(comp) - m_per[ci] + f_per[ci]
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

def induced_subgraph(g: Graph, keep: list[int]) -> tuple[Graph, list[int]]:
    keep = sorted(set(keep))
    new_id = {v: i for i, v in enumerate(keep)}
    edges = [(new_id[u], new_id[v]) for (u, v) in g.edges if u in new_id and v in new_id]
    return build_graph(len(keep), edges), keep


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
    """Induced embedded subgraph: surviving darts keep their cyclic order."""
    keep = sorted(set(keep))
    new_id = {v: i for i, v in enumerate(keep)}
    edge_map: dict[int, int] = {}
    edges = []
    for eid, (u, v) in enumerate(e.graph.edges):
        if u in new_id and v in new_id:
            edge_map[eid] = len(edges)
            edges.append((new_id[u], new_id[v]))
    return reembed(len(keep), edges, edge_map, [e.rotation[v] for v in keep]), keep


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
        for eid in g.adj[v]:
            w = g.other_end(eid, v)
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

def triangulate(e: EmbeddedGraph) -> EmbeddedGraph:
    """Add chords until every face has exactly three darts (planar only).

    Original edges keep their ids; added chords may duplicate existing edges
    (the result is a multigraph) but never create loops.  Genus stays 0.

    The chord rule: each face of ``e.faces``, in order, is a ring of corners
    anchored at the first occurrence of its lowest vertex.  The ear at a
    corner c is the triangle of c and the next two corners, cut off by a
    chord from c to the corner two ahead.  It is valid when those two are
    different vertices, and fresh when no edge or chord joins them yet.
    Scanning forward from the last cut (from the anchor at first), the first
    fresh valid ear is cut, or the first valid one when none is fresh; the
    chord's dart takes c's place in the ring and the middle corner leaves
    it.  Each cut is O(1) and a scan stops at the first fresh ear, so the
    run is O(m) unless a face keeps offering chords that already exist (a
    scan that finds no fresh ear visits the whole ring).  The result is
    built directly, not re-embedded: each triangle starts at its lowest dart
    and the faces are sorted by it, as ``embed`` would give them.

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
    adj = [list(incident) for incident in g.adj]
    tail = [v for uv in edges for v in uv]
    succ = _rotation_successors(g.m, e.rotation)
    head = [cyc[0] for cyc in e.rotation]
    pairs = {u * n + v if u < v else v * n + u for u, v in edges}
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
        i = corner.index(min(corner))
        prev = i - 1 if i else size - 1
        while size > 3:
            x, px = i, prev
            first = -1
            for _ in range(size):
                x2 = nxt[nxt[x]]
                a, b = corner[x], corner[x2]
                if a != b:
                    key = a * n + b if a < b else b * n + a
                    if key not in pairs:
                        break
                    if first < 0:
                        first, pfirst = x, px
                px, x = x, nxt[x]
            else:
                if first < 0:
                    raise EmbeddingError("no valid ear in face; embedding is degenerate")
                x, px = first, pfirst
                x2 = nxt[nxt[x]]
                a, b = corner[x], corner[x2]
                key = a * n + b if a < b else b * n + a
            # Cut the ear (q, da, db): chord p = a->b goes before da at a,
            # q = b->a before dart[x2] at b.  In a face, the dart before
            # dart[y] in its tail's rotation is the reverse of the ring dart
            # before it.
            da, db, dc = dart[x], dart[nxt[x]], dart[x2]
            eid = len(edges)
            p, q = 2 * eid, 2 * eid + 1
            edges.append((a, b))
            adj[a].append(eid)
            adj[b].append(eid)
            succ[dart[px] ^ 1] = p
            succ.append(da)
            succ[db ^ 1] = q
            succ.append(dc)
            if head[a] == da:
                head[a] = p
            if head[b] == dc:
                head[b] = q
            pairs.add(key)
            triangles.append([da, db, q] if da < db else [db, q, da])
            dart[x] = p
            nxt[x] = x2
            i, prev = x, px
            size -= 1
        t = [dart[i], dart[nxt[i]], dart[nxt[nxt[i]]]]
        k = t.index(min(t))
        triangles.append(t[k:] + t[:k])

    rotation = []
    for h in head:
        cyc = [h]
        d = succ[h]
        while d != h:
            cyc.append(d)
            d = succ[d]
        rotation.append(cyc)
    triangles.sort()
    return EmbeddedGraph(graph=Graph(n=n, edges=edges, adj=adj),
                         rotation=rotation, faces=triangles, euler_genus=0)


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


def text_records(text: str, shapes: dict[str, tuple[int, float]]):
    """(line number, keyword, integer fields) per non-blank line of `text`
    without ``#`` comments; `shapes` maps keywords to least and most field
    counts.  Any other line raises GraphInputError naming its number."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        shape = shapes.get(parts[0])
        if shape is None or not shape[0] <= len(parts) - 1 <= shape[1]:
            raise GraphInputError(f"line {lineno}: cannot parse {raw!r}")
        try:
            fields = list(map(int, parts[1:]))
        except ValueError:
            raise GraphInputError(f"line {lineno}: a field of {raw!r} is not "
                                  "an integer") from None
        yield lineno, parts[0], fields


def parse_graph(text: str) -> Graph | EmbeddedGraph:
    """Parse the `v/e/rot` format; returns an EmbeddedGraph when rotation
    lines are present.  Self-loop lines are rejected as malformed input; a
    loop that a library caller passes to ``build_graph`` constrains no
    solver, checker or oracle."""
    n = None
    edges: list[tuple[int, int]] = []
    rot: dict[int, list[int]] = {}
    rot_line: dict[int, int] = {}       # vertex -> its rot line's number
    for lineno, key, fields in text_records(
            text, {"v": (1, 1), "e": (2, 2), "rot": (1, math.inf)}):
        if key == "v":
            if n is not None:
                raise GraphInputError(f"line {lineno}: duplicate v line")
            n = fields[0]
        elif key == "e":
            u, v = fields
            if u == v:
                raise GraphInputError(f"line {lineno}: self-loop at vertex {u}")
            edges.append((u, v))
        else:
            v = fields[0]
            if v in rot:
                raise GraphInputError(f"line {lineno}: duplicate rot line "
                                      f"for vertex {v}")
            rot[v], rot_line[v] = fields[1:], lineno
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
