"""Width <= 3*depth tree decompositions of embedded planar graphs.

The construction: triangulate, BFS from the root, build the spanning tree of
the dual (triangles) crossing only non-BFS-tree edges, and give each
triangle the bag formed by the union of its three corners' root paths.  The
BFS tree and the dual tree interdigitate, so the dual tree reaches every
triangle; this is checked at runtime.

``slice_td`` decomposes a BFS level band: outer levels are deleted, inner
levels contracted to a super-root, and the super-root stripped from bags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .decomp import TreeDecomposition
from .graph import (
    EmbeddedGraph,
    EmbeddingError,
    Graph,
    GraphInputError,
    Layering,
    bfs_layering,
    contract_connected_set,
    induced_embedded_subgraph,
    induced_subgraph,
    is_connected,
    triangulate,
)


@dataclass
class DualTreePair:
    """BFS tree of the triangulated host plus the dual spanning tree that
    crosses only non-BFS-tree edges.  On planar hosts nothing is left over."""

    layering: Layering
    dual_parent: list[int]          # per face, parent face (-1 at the root face)
    dual_parent_edge: list[int]     # per face, crossed primal edge id
    leftover_edges: list[int]       # edges in neither tree; empty iff genus 0


def tree_cotree(e: EmbeddedGraph, root: int) -> DualTreePair:
    """Partition edges into BFS-tree, dual-tree-crossed, and leftover."""
    g = e.graph
    lay = bfs_layering(g, root)
    if not lay.complete:
        raise GraphInputError("graph is not connected")
    is_tree_edge = [False] * g.m
    for v in range(g.n):
        pe = lay.parent_edge[v]
        if pe is not None:
            is_tree_edge[pe] = True

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
            f2 = e.face_of(d ^ 1)
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
    return DualTreePair(layering=lay, dual_parent=dual_parent,
                        dual_parent_edge=dual_parent_edge, leftover_edges=leftover)


def planar_bfs_td(e: EmbeddedGraph, root: int) -> TreeDecomposition:
    """Valid tree decomposition of e.graph with width <= 3 * BFS depth."""
    nodes, tree_edges, indptr, data, _depth = _planar_td_arrays(e, root)
    bags = [tuple(int(x) for x in data[indptr[i]:indptr[i + 1]])
            for i in range(nodes)]
    return TreeDecomposition(nodes=nodes, tree_edges=tree_edges, bags=bags)


def _planar_td_arrays(e: EmbeddedGraph, root: int):
    """Raw-array form of planar_bfs_td (the bench path): returns
    (node_count, tree_edges, bag_indptr, bag_data, depth)."""
    if e.euler_genus != 0:
        raise EmbeddingError("planar_bfs_td requires a planar embedding")
    g = e.graph
    if not (0 <= root < g.n):
        raise GraphInputError(f"root {root} out of range")
    if not is_connected(g):
        raise GraphInputError("graph is not connected")
    if g.n <= 2:
        bag = np.arange(g.n, dtype=np.int64)
        return 1, [], np.array([0, g.n], dtype=np.int64), bag, 0

    tri = triangulate(e)
    pair = tree_cotree(tri, root)
    if pair.leftover_edges:
        raise EmbeddingError("tree-cotree left edges over on a planar embedding; "
                             "the embedding is invalid")
    lay = pair.layering
    nfaces = len(tri.faces)
    corners = np.empty((nfaces, 3), dtype=np.int64)
    from .graph import dart_tail
    for f, cyc in enumerate(tri.faces):
        for i in range(3):
            corners[f, i] = dart_tail(tri.graph, cyc[i])
    parent = np.array([-1 if p is None else p for p in lay.parent], dtype=np.int64)
    indptr, data = _kernels.three_path_bags(parent, corners)
    tree_edges = [(pair.dual_parent[f], f) for f in range(nfaces)
                  if pair.dual_parent[f] >= 0]
    return nfaces, tree_edges, indptr, data, lay.depth


@dataclass
class SliceDecomposition:
    """Decomposition of the subgraph induced by a BFS level window."""

    td: TreeDecomposition
    graph: Graph                 # the induced slice, with its own vertex ids
    back_map: list[int]          # slice id -> original vertex id
    window: tuple[int, int]


def slice_td(e: EmbeddedGraph, layering: Layering, lo: int, hi: int) -> SliceDecomposition:
    """Decompose the levels [lo, hi] band; width <= 3 * (hi - lo + 2).

    Levels above hi are deleted, levels below lo contracted to a super-root
    (they are connected: every BFS level hangs off the previous one), and the
    super-root is stripped from the bags.
    """
    if not (0 <= lo <= hi <= layering.depth):
        raise GraphInputError(f"invalid level range [{lo}, {hi}]")
    g = e.graph
    keep = [v for v in range(g.n) if 0 <= layering.level[v] <= hi]
    inner, inner_map = induced_embedded_subgraph(e, keep)
    old_of = inner_map  # new id -> original id
    slice_old = [v for v in old_of if layering.level[v] >= lo]
    slice_graph, slice_back = induced_subgraph(g, slice_old)
    slice_id = {v: i for i, v in enumerate(slice_back)}

    if lo == 0:
        td_inner = planar_bfs_td(inner, old_of.index(layering.root))
        bags = [tuple(sorted(slice_id[old_of[v]] for v in bag))
                for bag in td_inner.bags]
        td = TreeDecomposition(nodes=td_inner.nodes, tree_edges=td_inner.tree_edges,
                               bags=bags)
        return SliceDecomposition(td=td, graph=slice_graph, back_map=slice_back,
                                  window=(lo, hi))

    core = {i for i, v in enumerate(old_of) if layering.level[v] < lo}
    contracted, old_to_new = contract_connected_set(inner, core)
    super_root = old_to_new[next(iter(core))]
    # invert for survivors
    new_to_old: dict[int, int] = {}
    for i, v in enumerate(old_of):
        if i not in core:
            new_to_old[old_to_new[i]] = v
    td_c = planar_bfs_td(contracted, super_root)
    bags = []
    for bag in td_c.bags:
        bags.append(tuple(sorted(slice_id[new_to_old[w]]
                                 for w in bag if w != super_root)))
    td = TreeDecomposition(nodes=td_c.nodes, tree_edges=td_c.tree_edges, bags=bags)
    return SliceDecomposition(td=td, graph=slice_graph, back_map=slice_back,
                              window=(lo, hi))


def min_eccentricity_root(g: Graph, samples: int = 16) -> int:
    """Deterministically sampled low-eccentricity vertex (CLI default root)."""
    if g.n == 0:
        raise GraphInputError("empty graph has no root")
    step = max(1, g.n // samples)
    cands = list(range(0, g.n, step))
    best, best_ecc = cands[0], None
    indptr, indices = g.csr()
    for v in cands:
        level, _parent = _kernels.bfs_levels(indptr, indices, v)
        ecc = float("inf") if (level < 0).any() else int(level.max())
        if best_ecc is None or ecc < best_ecc:
            best, best_ecc = v, ecc
    return best
