"""Width <= 3*depth tree decompositions of embedded planar graphs.

The construction: triangulate, take a BFS tree from the root, build the
spanning tree of the dual (triangles) crossing only non-BFS-tree edges, and
give each triangle the bag formed by the union of its three corners' root
paths.  The BFS tree and the dual tree interdigitate, so the dual tree
reaches every triangle; this is checked at runtime.  Any spanning tree of the
triangulation gives a valid decomposition; a BFS tree bounds every root path
to one vertex per level.

The root is the one free choice, and the width bound is 3 times its BFS
depth.  The default root (``min_eccentricity_root``) is the midpoint of a
double BFS sweep: BFS from vertex 0 to its farthest vertex u, BFS from u to
its farthest vertex w at distance d, and the root is the vertex ceil(d/2)
steps from w on w's BFS-tree path to u (ties to the lowest id).  Two BFS.
On grids and walls that lowest-id parent chain runs along the boundary, so
the midpoint lands on it, not in the middle: a corner of the 5x5, 9x9 and
224x224 grids (vertices 4, 8 and 223) and an outer vertex of wall 6
(vertex 108).  On the grids its eccentricity is the diameter, so the
reported bound 3 * depth is the largest any root gives; the bags follow the
BFS depth of the triangulation instead, and on the 9x9 and 20x20 grids and
wall 6 they are narrower than from a least-eccentricity root (widths 13,
30 and 18 against 14, 32 and 19), on the 5x5 grid wider (8 against 7).

Neighbouring triangles mostly have nested bags, so ``planar_bfs_td`` first
contracts every dual-tree edge whose one bag is nested in the other (the
subset rule ``restrict_td`` applies to bands), testing nesting on DFS
intervals of the BFS tree, and builds bags only for the triangles that
survive: one node per maximal bag along the dual tree (the 45x45 grid:
4,046 -> 271 nodes, same width).  Whole hosts and level-band hosts share
this construction (``_root_path_td``).

Level bands are solved per connected component (``band_hosts``).  Each
band of levels [lo, hi] of the component's own BFS tree gets the min-degree
elimination decomposition of the subgraph it induces (``heuristic_td``,
the engine ``solve`` uses), which on grids and triangulations is far
narrower than the proven bound.  Only when that decomposition is wider
than 3(hi - lo + 1) - 1 does ``slice_td`` fall back to the proven one: the
root-path construction on the triangulated component (``BandHost.td``, built
on first use and kept for the component's other bands), restricted to the
band with the bags this nests contracted by the same rule
(``restrict_td``).  Restricting a tree decomposition to a vertex set
decomposes the subgraph it induces, and each root path meets the band in at
most hi - lo + 1 vertices, so the fallback's width is at most
3(hi - lo + 1) - 1 (Baker's bounded-treewidth bands); every band's width is
checked against that bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import _kernels
from .decomp import TreeDecomposition, heuristic_td
from .graph import (
    EmbeddedGraph,
    EmbeddingError,
    Graph,
    GraphInputError,
    Layering,
    bfs_layering,
    build_graph,
    connected_components,
    induced_edges,
    induced_embedded_subgraph,
    planar_is_connected,
    simple_embedding,
    triangulate,
)


@dataclass
class DualTreePair:
    """A spanning tree of the host and the dual spanning tree that crosses
    only edges outside it.  On planar hosts nothing is left over."""

    parent_edge: list[int]          # per vertex, its tree edge (-1 at the root)
    dual_parent: list[int]          # per face, parent face (-1 at the root face)
    leftover_edges: list[int]       # edges in neither tree; empty iff genus 0


def tree_cotree(g: Graph, faces: list[list[int]],
                layering: Layering) -> DualTreePair:
    """Partition the edges of `g` into tree, dual-tree-crossed and leftover,
    where `faces` are the faces of an embedding of `g`.  `layering` must be
    a BFS tree spanning `g`; a vertex's tree edge is the lowest-id edge
    between it and its parent there, so an edge added after it (such as a
    chord that ``triangulate`` appends) never changes the choice.  The dual
    tree grows breadth-first from face 0, each face reading its darts in
    order."""
    if not layering.complete:
        raise GraphInputError("graph is not connected")
    parent = layering.parent
    parent_edge = [-1] * g.n
    side = bytearray(g.m)               # 1: tree edge, 2: crossed, 0: leftover
    for eid, (u, v) in enumerate(g.edges):      # ascending: the first wins
        if parent[v] == u and parent_edge[v] < 0:
            parent_edge[v] = eid
            side[eid] = 1
        elif parent[u] == v and parent_edge[u] < 0:
            parent_edge[u] = eid
            side[eid] = 1
    if not faces:                   # no edge, so no face and no dual tree
        return DualTreePair(parent_edge, [], [])

    face_of = [0] * (2 * g.m)
    for i, cyc in enumerate(faces):
        for d in cyc:
            face_of[d] = i
    dual_parent = [-2] * len(faces)
    dual_parent[0] = -1
    queue = [0]
    for f in queue:                 # runs on as faces are appended
        for d in faces[f]:
            eid = d >> 1
            if side[eid]:
                continue
            f2 = face_of[d ^ 1]
            if dual_parent[f2] == -2:
                side[eid] = 2
                dual_parent[f2] = f
                queue.append(f2)
    if len(queue) < len(faces):
        raise EmbeddingError("dual spanning tree does not reach every face; "
                             "embedding is invalid")
    return DualTreePair(parent_edge=parent_edge, dual_parent=dual_parent,
                        leftover_edges=[eid for eid, s in enumerate(side)
                                        if not s])


def planar_bfs_td(e: EmbeddedGraph, root: int) -> TreeDecomposition:
    """Valid tree decomposition of e.graph with width <= 3 * BFS depth.  The
    BFS runs on the triangulation, whose depth is at most the host's.

    There is one node per maximal bag along the dual tree: every dual-tree
    edge whose one triangle's bag is nested in the other's is contracted
    first, and only the surviving corner triples get their bags built.
    Contracting such an edge keeps the decomposition valid and its width
    unchanged.  Raises EmbeddingError if the width exceeds 3 * depth.
    """
    e = _planar_component(e, root)
    if e.graph.n <= 2:
        return _single_bag(e.graph.n)
    g, triangles = triangulate(e)
    lay = bfs_layering(g, root)
    td = _root_path_td(g, triangles, lay)
    bound = 3 * lay.depth
    if td.width > bound:
        raise EmbeddingError(f"planar decomposition has width {td.width} > "
                             f"3 * depth = {bound}: its bags are not root "
                             "paths of the BFS tree")
    return td


def _planar_component(e: EmbeddedGraph, root: int) -> EmbeddedGraph:
    """`e`, checked to be a connected planar embedding holding `root`, and
    without loops and parallel edges (``simple_embedding``) when a face has
    fewer than three darts, which ``triangulate`` refuses; that changes no
    vertex's level or bag."""
    if e.euler_genus != 0:
        raise EmbeddingError("the three-path decomposition requires a planar "
                             "embedding")
    if not (0 <= root < e.graph.n):
        raise GraphInputError(f"root {root} out of range [0, {e.graph.n})")
    if not planar_is_connected(e):
        raise GraphInputError("graph is not connected")
    return e if all(len(f) >= 3 for f in e.faces) else simple_embedding(e)


def _single_bag(n: int) -> TreeDecomposition:
    return TreeDecomposition(nodes=1, tree_edges=[], bags=[tuple(range(n))])


def _root_path_td(g: Graph, triangles: list[list[int]],
                  lay: Layering) -> TreeDecomposition:
    """One node per maximal bag of the `triangles` of the triangulation `g`,
    joined along the dual tree that avoids the spanning tree of `lay` (its
    edges picked on `g` by ``tree_cotree``), each bag the union of its
    triangle's corners' root paths in that tree."""
    pair = tree_cotree(g, triangles, lay)
    if pair.leftover_edges:
        raise EmbeddingError("tree-cotree left edges over on a planar embedding; "
                             "the embedding is invalid")
    edges = g.edges
    corners = [[edges[d >> 1][d & 1] for d in cyc] for cyc in triangles]
    tree_edges = [(p, f) for f, p in enumerate(pair.dual_parent) if p >= 0]
    corners, tree_edges = _contract_nested(lay.parent, lay.root, corners,
                                           tree_edges)
    return TreeDecomposition(nodes=len(corners), tree_edges=tree_edges,
                             bags=_kernels.three_path_bags(lay.parent, corners))


def _contract_nested(parent: list[int], root: int, corners: list[list[int]],
                     tree_edges: list[tuple[int, int]]
                     ) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """``_contract`` on the triangles whose corners are `corners`, where a
    representative's bag is that of its own corners.  Returns the corners of
    the kept triangles in ascending order and the renumbered tree edges.

    A bag is the union of its corners' root paths, so bag(a) is a subset of
    bag(b) iff every corner of a is an ancestor-or-self of some corner of b.
    With DFS preorder numbers `pre` and subtree ends `end`, x is an
    ancestor-or-self of y iff pre[x] <= pre[y] < end[x]: at most nine
    comparisons, and no bag is built.
    """
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p >= 0:
            children[p].append(v)
    pre = [0] * n
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        pre[v] = len(order)
        order.append(v)
        stack.extend(children[v])
    size = [1] * n
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    end = [pre[v] + size[v] for v in range(n)]

    def nested(a: int, b: int) -> bool:
        x, y, z = corners[b]
        p, q, r = pre[x], pre[y], pre[z]
        for x in corners[a]:
            s, t = pre[x], end[x]
            if not (s <= p < t or s <= q < t or s <= r < t):
                return False
        return True

    kept, tree_edges = _contract(len(corners), tree_edges, nested)
    return [corners[x] for x in kept], tree_edges


def _contract(nodes: int, tree_edges: list[tuple[int, int]], nested
              ) -> tuple[list[int], list[tuple[int, int]]]:
    """Contract each tree edge, in order, whose one representative's bag is
    nested in the other's into the larger one (the first endpoint goes when
    both bags are equal); ``nested(a, b)`` says whether bag(a) is a subset of
    bag(b).  Returns the kept nodes in ascending order and the remaining
    tree edges in their order, renumbered."""
    rep = list(range(nodes))

    def find(x: int) -> int:
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for a, b in tree_edges:
        ra, rb = find(a), find(b)
        if nested(ra, rb):
            rep[ra] = rb
        elif nested(rb, ra):
            rep[rb] = ra
    root = [find(x) for x in range(nodes)]
    kept = [x for x in range(nodes) if root[x] == x]
    new_id = {x: i for i, x in enumerate(kept)}
    return kept, [(new_id[root[a]], new_id[root[b]]) for a, b in tree_edges
                  if root[a] != root[b]]


# ---------------------------------------------------------------------------
# Level bands


@dataclass
class BandHost:
    """One connected planar component, whose BFS levels define its bands.
    Its root-path decomposition (``td``) is built only when a band needs
    it (see ``slice_td``), then kept for the component's other bands."""

    embedding: EmbeddedGraph     # the component, simplified as triangulate needs
    layering: Layering           # BFS levels of graph; they define the bands

    @property
    def graph(self) -> Graph:
        return self.embedding.graph

    @cached_property
    def td(self) -> TreeDecomposition:
        """Decomposition of graph whose bags are root paths of the
        layering's tree; one node per maximal bag."""
        e = self.embedding
        return (_single_bag(e.graph.n) if e.graph.n <= 2
                else _root_path_td(*triangulate(e), self.layering))


def band_host(e: EmbeddedGraph, root: int) -> BandHost:
    """Band host of a connected planar embedding, levelled by the BFS tree
    of e.graph from `root` (not of its triangulation), so that every
    root-path bag meets each level at most three times.  The layering holds
    vertices only: ``td`` has ``tree_cotree`` pick that tree's edges on the
    triangulation it partitions."""
    e = _planar_component(e, root)     # simple where triangulate needs it
    return BandHost(embedding=e, layering=bfs_layering(e.graph, root))


def band_hosts(e: EmbeddedGraph, min_vertices: int = 0):
    """(``band_host`` from its lowest vertex, map to e.graph ids) per
    component of at least `min_vertices` vertices.  The genus is checked
    now; the hosts are built as they are iterated."""
    if e.euler_genus != 0:
        raise GraphInputError("level slicing requires a planar embedding")
    comps = [c for c in connected_components(e.graph)
             if len(c) >= min_vertices]
    return ((band_host(sub, 0), back) for sub, back in
            (induced_embedded_subgraph(e, comp) for comp in comps))


@dataclass
class Slice:
    """A level band [lo, hi] of a host: the subgraph its vertices induce, with
    local ids, and a decomposition of it."""

    window: tuple[int, int]      # inclusive level range
    graph: Graph
    back_map: list[int]          # local id -> host vertex id
    td: TreeDecomposition
    core: tuple[int, ...]        # local ids whose constraint must be met


def slice_td(host: BandHost, lo: int, hi: int,
             core: tuple[int, int] | None = None) -> Slice:
    """Decompose the band of levels [lo, hi]; width <= 3 * (hi - lo + 1) - 1.

    The band's vertices are the host's level lists lo..hi merged in
    ascending order, so collecting them costs the band's size, not the
    host's.  Their induced subgraph, its edges read from the band
    vertices' rotations (``induced_edges``), gets its min-degree
    decomposition (``heuristic_td``) when that is within the bound, and
    the host's root-path decomposition restricted to the band
    (``restrict_td``) otherwise, which the bound holds for.  The core is
    the band's vertices in the inclusive level range `core`, the whole band
    when None.
    """
    if not (0 <= lo <= hi <= host.layering.depth):
        raise GraphInputError(f"invalid level range [{lo}, {hi}]")
    level, levels = host.layering.level, host.layering.levels
    back_map = sorted([v for vs in levels[lo:hi + 1] for v in vs])
    graph = build_graph(len(back_map),
                        induced_edges(host.embedding, back_map)[0])
    bound = 3 * (hi - lo + 1) - 1
    td = heuristic_td(graph)
    if td.width > bound:
        td = restrict_td(host.td, back_map)
    if td.width > bound:
        raise EmbeddingError(f"band [{lo}, {hi}] decomposition has width "
                             f"{td.width} > {bound}: the host bags are not "
                             "root paths of its BFS tree")
    clo, chi = (lo, hi) if core is None else core
    return Slice(window=(lo, hi), graph=graph, back_map=back_map, td=td,
                 core=tuple(i for i, v in enumerate(back_map)
                            if clo <= level[v] <= chi))


def restrict_td(td: TreeDecomposition,
                back_map: list[int]) -> TreeDecomposition:
    """`td` cut to the ascending host vertices `back_map`, renumbered to
    their positions there.  Each tree edge whose one cut bag is a subset of
    the other is contracted into the larger bag, which removes the empty
    bags."""
    band = set(back_map)
    sets = [band.intersection(bag) for bag in td.bags]
    kept, tree_edges = _contract(td.nodes, td.tree_edges,
                                 lambda a, b: sets[a] <= sets[b])
    local = {v: i for i, v in enumerate(back_map)}
    bags = [tuple(sorted(map(local.__getitem__, sets[x]))) for x in kept]
    return TreeDecomposition(nodes=len(kept), tree_edges=tree_edges, bags=bags)


def level_windows(depth: int, k: int, offset: int,
                  mode: str) -> list[tuple[int, int, tuple[int, int]]]:
    """(lo, hi, core-range) triples of the bands of one slicing mode (see
    ``baker``) over the levels [0, depth], for k >= 2 and 0 <= offset < k;
    ranges are inclusive and clipped to [0, depth].  Each mode steps a level
    s by k from offset - k (from 0 when offset is 0).  "delete": the band
    between the removed levels s and s + k is its own core.  "duplicate":
    the band [s, s + k] is its own core, so neighbouring bands share a
    level.  "dominate": the cores [s, s + k - 1] partition the levels and
    each band adds one level on either side."""
    start = offset - k if offset else 0
    if mode == "delete":
        cores = [(max(0, s + 1), min(depth, s + k - 1))
                 for s in range(start, depth, k)]
    elif mode == "duplicate":
        cores = [(max(0, s), min(depth, s + k))
                 for s in range(start, max(depth, 1), k)]
    elif mode == "dominate":
        cores = [(max(0, s), min(depth, s + k - 1))
                 for s in range(start, depth + 1, k)]
        return [(max(0, lo - 1), min(depth, hi + 1), (lo, hi))
                for lo, hi in cores]
    else:
        raise GraphInputError(f"unknown slicing mode {mode!r}")
    return [(lo, hi, (lo, hi)) for lo, hi in cores]


def min_eccentricity_root(g: Graph) -> int:
    """Default root: the midpoint of a double BFS sweep (Corneil, Dragan and
    Köhler, Networks 2003).  BFS from vertex 0; u is the lowest-id vertex
    at its largest level.  BFS from u; w is the lowest-id vertex at its
    largest level d.  The root is the vertex ceil(d/2) steps from w along
    w's BFS parent chain toward u.  Two BFS in all, the first half shared
    with `decomp.narrower_td` (`_kernels.far_sweep`).  On a disconnected graph
    the root is 0, which the constructions then reject.

    On grids and walls the lowest-id parent chain runs along the boundary,
    so the root lands on it: a corner of the k x k grid (vertex k - 1; 4,
    8 and 223 for k = 5, 9 and 224), whose eccentricity is the diameter
    2(k - 1), and an outer vertex of wall 6 (vertex 108, eccentricity 23
    where the least is 13)."""
    if g.n == 0:
        raise GraphInputError("empty graph has no root")
    sweep = _kernels.far_sweep(g.nbrs)
    if sweep is None:
        return 0
    _level, parent, levels = sweep
    v = levels[-1][0]
    for _ in range(len(levels) // 2):
        v = parent[v]
    return v
