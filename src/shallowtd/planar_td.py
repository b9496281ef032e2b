"""Width <= 3*depth tree decompositions of embedded planar graphs.

The construction: triangulate, take a BFS tree from the root, build the
spanning tree of the dual (triangles) crossing only non-BFS-tree edges, and
give each triangle the bag formed by the union of its three corners' root
paths.  The BFS tree and the dual tree interdigitate, so the dual tree
reaches every triangle; this is checked at runtime.  Any spanning tree of the
triangulation gives a valid decomposition; a BFS tree bounds every root path
to one vertex per level.

Neighbouring triangles mostly have nested bags, so ``planar_bfs_td`` first
contracts every dual-tree edge whose one bag is nested in the other (the
subset rule ``slice_td`` applies to bands), testing nesting on DFS intervals
of the BFS tree, and builds bags only for the triangles that survive: one
node per maximal bag along the dual tree (the 45x45 grid: 4,046 -> 271
nodes, same width).  Whole hosts and level-band hosts share this
construction (``_root_path_td``).

Level bands use one host decomposition per connected component
(``band_host``): the same construction on the triangulated component, but
with the BFS tree of the component itself, whose levels define the bands.
``slice_td`` restricts the host bags to the levels [lo, hi] of a band and
contracts the bags that the restriction nests, by the same rule.
Restricting a tree decomposition to a vertex set decomposes the subgraph it
induces, and each root path meets the band in at most hi - lo + 1 vertices,
so the band's width is at most 3(hi - lo + 1) - 1 (Baker's bounded-treewidth
bands).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .decomp import TreeDecomposition
from .graph import (
    EmbeddedGraph,
    EmbeddingError,
    Graph,
    GraphInputError,
    Layering,
    bfs_layering,
    connected_components,
    eccentricity,
    induced_embedded_subgraph,
    induced_subgraph,
    planar_is_connected,
    simple_embedding,
    triangulate,
)


@dataclass
class DualTreePair:
    """The dual spanning tree that crosses only edges outside a given
    spanning tree of the host.  On planar hosts nothing is left over."""

    dual_parent: list[int]          # per face, parent face (-1 at the root face)
    dual_parent_edge: list[int]     # per face, crossed primal edge id
    leftover_edges: list[int]       # edges in neither tree; empty iff genus 0


def tree_cotree(e: EmbeddedGraph, layering: Layering) -> DualTreePair:
    """Partition edges into tree (the parent edges of `layering`, which must
    span e.graph), dual-tree-crossed, and leftover."""
    g = e.graph
    if not layering.complete:
        raise GraphInputError("graph is not connected")
    if not e.faces:                 # no edge, so no face and no dual tree
        return DualTreePair([], [], [])
    is_tree_edge = [False] * g.m
    for pe in layering.parent_edge:
        if pe >= 0:
            is_tree_edge[pe] = True

    face_of = [0] * (2 * g.m)
    for i, cyc in enumerate(e.faces):
        for d in cyc:
            face_of[d] = i
    nfaces = len(e.faces)
    dual_parent = [-2] * nfaces
    dual_parent_edge = [-1] * nfaces
    crossed = [False] * g.m
    dual_parent[0] = -1
    queue = [0]
    head = 0
    while head < len(queue):
        f = queue[head]
        head += 1
        for d in e.faces[f]:
            eid = d >> 1
            if is_tree_edge[eid] or crossed[eid]:
                continue
            f2 = face_of[d ^ 1]
            if dual_parent[f2] == -2:
                crossed[eid] = True
                dual_parent[f2] = f
                dual_parent_edge[f2] = eid
                queue.append(f2)
    if any(p == -2 for p in dual_parent):
        raise EmbeddingError("dual spanning tree does not reach every face; "
                             "embedding is invalid")
    leftover = [eid for eid in range(g.m)
                if not is_tree_edge[eid] and not crossed[eid]]
    return DualTreePair(dual_parent=dual_parent,
                        dual_parent_edge=dual_parent_edge, leftover_edges=leftover)


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
    tri = triangulate(e)
    lay = bfs_layering(tri.graph, root)
    td = _root_path_td(tri, lay)
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
        raise GraphInputError(f"root {root} out of range")
    if not planar_is_connected(e):
        raise GraphInputError("graph is not connected")
    return e if all(len(f) >= 3 for f in e.faces) else simple_embedding(e)


def _single_bag(n: int) -> TreeDecomposition:
    return TreeDecomposition(nodes=1, tree_edges=[], bags=[tuple(range(n))])


def _root_path_td(tri: EmbeddedGraph, lay: Layering) -> TreeDecomposition:
    """One node per maximal bag of the triangles of `tri`, joined along the
    dual tree that avoids the spanning tree of `lay`, each bag the union of
    its triangle's corners' root paths in that tree."""
    pair = tree_cotree(tri, lay)
    if pair.leftover_edges:
        raise EmbeddingError("tree-cotree left edges over on a planar embedding; "
                             "the embedding is invalid")
    edges = tri.graph.edges
    corners = [[edges[d >> 1][d & 1] for d in cyc] for cyc in tri.faces]
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
    kept = [x for x in range(nodes) if find(x) == x]
    new_id = {x: i for i, x in enumerate(kept)}
    return kept, [(new_id[find(a)], new_id[find(b)]) for a, b in tree_edges
                  if find(a) != find(b)]


# ---------------------------------------------------------------------------
# Level bands


@dataclass
class BandHost:
    """One connected planar component, decomposed once for all its bands."""

    graph: Graph
    layering: Layering           # BFS levels of graph; they define the bands
    td: TreeDecomposition        # bags are root paths of the layering's tree


def band_host(e: EmbeddedGraph, root: int) -> BandHost:
    """Host decomposition of a connected planar embedding whose bags are
    root paths in the BFS tree of e.graph from `root` (not of its
    triangulation), so that every bag meets each level at most three times;
    one node per maximal bag, as in ``planar_bfs_td``."""
    e = _planar_component(e, root)     # the layering and bags share its edges
    lay = bfs_layering(e.graph, root)
    td = (_single_bag(e.graph.n) if e.graph.n <= 2
          else _root_path_td(triangulate(e), lay))
    return BandHost(graph=e.graph, layering=lay, td=td)


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
    local ids, and the host decomposition restricted to it."""

    window: tuple[int, int]      # inclusive level range
    graph: Graph
    back_map: list[int]          # local id -> host vertex id
    td: TreeDecomposition
    core: tuple[int, ...]        # local ids whose constraint must be met


def slice_td(host: BandHost, lo: int, hi: int,
             core: tuple[int, int] | None = None) -> Slice:
    """Decompose the band of levels [lo, hi]; width <= 3 * (hi - lo + 1) - 1.

    Every host bag is cut to the band, then each tree edge whose one bag is
    a subset of the other is contracted into the larger bag, which removes
    the empty bags.  The core is the band's vertices in the inclusive level
    range `core`, the whole band when None.
    """
    if not (0 <= lo <= hi <= host.layering.depth):
        raise GraphInputError(f"invalid level range [{lo}, {hi}]")
    level = host.layering.level
    graph, back_map = induced_subgraph(
        host.graph, [v for v in range(len(level)) if lo <= level[v] <= hi])
    band = set(back_map)
    sets = [band.intersection(bag) for bag in host.td.bags]
    kept, tree_edges = _contract(host.td.nodes, host.td.tree_edges,
                                 lambda a, b: sets[a] <= sets[b])
    local = {v: i for i, v in enumerate(back_map)}
    bags = [tuple(sorted(map(local.__getitem__, sets[x]))) for x in kept]
    td = TreeDecomposition(nodes=len(kept), tree_edges=tree_edges, bags=bags)
    bound = 3 * (hi - lo + 1) - 1
    if td.width > bound:
        raise EmbeddingError(f"band [{lo}, {hi}] decomposition has width "
                             f"{td.width} > {bound}: the host bags are not "
                             "root paths of its BFS tree")
    clo, chi = (lo, hi) if core is None else core
    return Slice(window=(lo, hi), graph=graph, back_map=back_map, td=td,
                 core=tuple(i for i, v in enumerate(back_map)
                            if clo <= level[v] <= chi))


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
    """Least-eccentricity vertex of ~16 evenly spaced ids (default root)."""
    if g.n == 0:
        raise GraphInputError("empty graph has no root")
    step = max(1, g.n // 16)
    return min(range(0, g.n, step), key=lambda v: eccentricity(g, v))
