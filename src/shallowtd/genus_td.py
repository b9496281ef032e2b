"""Width O(g*D) decompositions of genus-g embedded graphs.

The cut graph X is assembled from the tree-cotree partition: the 2g leftover
edges plus the BFS root paths of their endpoints.  Contracting X must leave
Euler genus 0 (the machine-checked disk condition); the planar construction
then runs on the contracted graph and X is adjoined to every lifted bag.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomp import TreeDecomposition
from .graph import (EmbeddedGraph, _rotation_successors, bfs_layering, reembed,
                    simple_embedding)
from .planar_td import planar_bfs_td, tree_cotree


class GenusPipelineError(RuntimeError):
    """Contracting the cut graph did not yield genus 0: the input embedding
    (or the cut graph) is broken.  Never silently ignored."""


@dataclass
class CutGraph:
    host: EmbeddedGraph
    root: int
    x_vertices: tuple[int, ...]
    x_edges: tuple[int, ...]
    leftover_edges: tuple[int, ...]
    depth: int


def cut_graph(e: EmbeddedGraph, root: int) -> CutGraph:
    """Tree-cotree cut graph; |leftover| = 2g, |X| <= 2g*(2*depth+1) + 1."""
    lay = bfs_layering(e.graph, root)
    pair = tree_cotree(e, lay)
    leftover = list(pair.leftover_edges)
    if len(leftover) != 2 * e.euler_genus:
        raise GenusPipelineError(
            f"tree-cotree leftover count {len(leftover)} != 2g = {2 * e.euler_genus}")

    # X: the leftover edges and the root paths of their ends.  A walk up the
    # BFS tree stops at the first vertex already in X; the root is in X and
    # the layering spans the graph (``tree_cotree`` checks it).
    g = e.graph
    in_x = bytearray(g.n)
    in_x[root] = 1
    xe = set(leftover)
    for eid in leftover:
        for v in g.edges[eid]:
            while not in_x[v]:
                in_x[v] = 1
                xe.add(lay.parent_edge[v])
                v = lay.parent[v]
    return CutGraph(host=e, root=root,
                    x_vertices=tuple(v for v in range(g.n) if in_x[v]),
                    x_edges=tuple(sorted(xe)), leftover_edges=tuple(sorted(leftover)),
                    depth=lay.depth)


def contract_cut_graph(cg: CutGraph) -> tuple[EmbeddedGraph, list[int]]:
    """Contract X to a single vertex and re-embed the quotient in the sphere.

    Splicing rotations preserves genus, so a mechanical contraction would stay
    on the original surface.  Instead we use that the complement of X is a
    disk: the subgraph (x_vertices, x_edges) has exactly one face, and walking
    its boundary visits every angular sector around X exactly once.  The walk
    runs on rotation successors: arriving at a vertex by the X-dart d, it
    follows the rotation from d ^ 1, and the non-X darts it passes before the
    next X-dart, which leaves the corner, are that corner's sector.  The
    sectors in walk order are a valid rotation for the contracted vertex in
    the sphere; every other vertex keeps its rotation.  Both passes re-embed
    through ``graph.reembed``.  The contraction is checked for genus 0 before
    its loops and parallel duplicates are dropped (``graph.simple_embedding``),
    because dropping a loop can lower the genus and so hide a cut graph whose
    complement is not a disk; the simplified embedding is checked again.

    The contracted vertex is 0 and the other vertices follow in their old
    order; returns (embedding, old vertex -> new vertex).
    """
    e = cg.host
    g = e.graph
    in_x = bytearray(g.m)
    for eid in cg.x_edges:
        in_x[eid] = 1

    if cg.x_edges:
        succ = _rotation_successors(g.m, e.rotation)
        start = 2 * cg.x_edges[0]
        sectors: list[int] = []
        walked = 0
        d = start
        while True:
            walked += 1
            d = succ[d ^ 1]
            while not in_x[d >> 1]:
                sectors.append(d)
                d = succ[d]
            if d == start:
                break
        if walked != 2 * len(cg.x_edges):
            raise GenusPipelineError(
                "cut graph complement is not a disk: its boundary splits into "
                f"several walks ({walked} of {2 * len(cg.x_edges)} darts on one)")
    else:
        sectors = list(e.rotation[cg.root])

    expected = sum(len(e.rotation[v]) for v in cg.x_vertices) - 2 * len(cg.x_edges)
    if len(sectors) != expected:
        raise GenusPipelineError(
            f"boundary walk covered {len(sectors)} darts, expected {expected}")

    xv = set(cg.x_vertices)
    rest = [v for v in range(g.n) if v not in xv]
    old_to_new = [0] * g.n
    for i, v in enumerate(rest, 1):
        old_to_new[v] = i
    emap: dict[int, int] = {}
    new_edges = []
    for eid, (u, w) in enumerate(g.edges):
        if not in_x[eid]:
            emap[eid] = len(new_edges)
            new_edges.append((old_to_new[u], old_to_new[w]))
    rotation = [sectors] + [e.rotation[v] for v in rest]
    contracted = reembed(len(rest) + 1, new_edges, emap, rotation)
    if contracted.euler_genus != 0:
        raise GenusPipelineError(
            f"contracting the cut graph left genus {contracted.euler_genus}, expected 0")

    contracted = simple_embedding(contracted)
    if contracted.euler_genus != 0:
        raise GenusPipelineError(
            "dropping loops and parallel edges left genus "
            f"{contracted.euler_genus}, expected 0")
    return contracted, old_to_new


def genus_td(e: EmbeddedGraph, root: int) -> tuple[TreeDecomposition, int]:
    """Decomposition of e.graph and its width bound 3*(depth+1) + |X_vertices|,
    checked with a GenusPipelineError.  Its tree is that of the contracted
    graph's planar decomposition, whose nested bags stay nested once X is
    adjoined to each."""
    cg = cut_graph(e, root)
    contracted, old_to_new = contract_cut_graph(cg)
    new_to_old = [root] + [v for v, w in enumerate(old_to_new) if w]
    td_c = planar_bfs_td(contracted, 0)
    bags = [tuple(sorted([*cg.x_vertices, *(new_to_old[w] for w in bag if w)]))
            for bag in td_c.bags]
    td = TreeDecomposition(nodes=td_c.nodes, tree_edges=td_c.tree_edges, bags=bags)
    bound = 3 * (cg.depth + 1) + len(cg.x_vertices)
    if td.width > bound:
        raise GenusPipelineError(
            f"genus decomposition has width {td.width} > 3 * (depth + 1) + |X| "
            f"= {bound}: the lifted bags are not root paths plus X")
    return td, bound
