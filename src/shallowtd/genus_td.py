"""Width O(g*D) decompositions of genus-g embedded graphs.

The cut graph X is assembled from the tree-cotree partition: the 2g leftover
edges plus the BFS root paths of their endpoints.  Contracting X must leave
Euler genus 0 (the machine-checked disk condition); the planar construction
then runs on the contracted graph and X is adjoined to every lifted bag.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomp import TreeDecomposition
from .graph import EmbeddedGraph, bfs_layering, reembed, simple_embedding
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

    g = e.graph
    xv: set[int] = {root}
    xe: set[int] = set(leftover)
    for eid in leftover:
        for v in g.edges[eid]:
            path = lay.path_to_root(v)
            xv.update(path)
            for w in path:
                pe = lay.parent_edge[w]
                if pe >= 0:
                    xe.add(pe)
    return CutGraph(host=e, root=root, x_vertices=tuple(sorted(xv)),
                    x_edges=tuple(sorted(xe)), leftover_edges=tuple(sorted(leftover)),
                    depth=lay.depth)


def contract_cut_graph(cg: CutGraph) -> tuple[EmbeddedGraph, dict[int, int]]:
    """Contract X to a single vertex and re-embed the quotient in the sphere.

    Splicing rotations preserves genus, so a mechanical contraction would stay
    on the original surface.  Instead we use that the complement of X is a
    disk: the subgraph (x_vertices, x_edges) has exactly one face, and walking
    its boundary visits every angular sector around X exactly once.  Reading
    off the outgoing darts along that walk is a valid rotation for the
    contracted vertex in the sphere; every other vertex keeps its rotation.
    Both passes re-embed through ``graph.reembed``.  The contraction is
    checked for genus 0 before its loops and parallel duplicates are dropped
    (``graph.simple_embedding``), because dropping a loop can lower the genus
    and so hide a cut graph whose complement is not a disk; the simplified
    embedding is checked again.

    The contracted vertex is 0; returns (embedding, old_vertex -> new_vertex).
    """
    e = cg.host
    g = e.graph
    xset = set(cg.x_vertices)
    xeset = set(cg.x_edges)

    if xeset:
        # Boundary walk of the X-subgraph under the inherited rotation.
        x_rot = {v: [d for d in e.rotation[v] if (d >> 1) in xeset]
                 for v in cg.x_vertices}
        x_pos = {v: {d: i for i, d in enumerate(ds)} for v, ds in x_rot.items()}

        def head(d: int) -> int:
            eid, side = d >> 1, d & 1
            return g.edges[eid][1 - side]

        def x_succ(d: int) -> int:
            v = head(d)
            ds = x_rot[v]
            return ds[(x_pos[v][d ^ 1] + 1) % len(ds)]

        start = 2 * cg.x_edges[0]
        walk = [start]
        d = x_succ(start)
        while d != start:
            walk.append(d)
            d = x_succ(d)
        if len(walk) != 2 * len(cg.x_edges):
            raise GenusPipelineError(
                "cut graph complement is not a disk: its boundary splits into "
                f"several walks ({len(walk)} of {2 * len(cg.x_edges)} darts on one)")

        # Collect, per corner of the walk, the outgoing darts strictly between
        # the arrival dart and the next X-dart in the full rotation.
        sectors: list[int] = []
        for d in walk:
            v = head(d)
            rot = e.rotation[v]
            i = rot.index(d ^ 1)
            for step in range(1, len(rot)):
                nxt = rot[(i + step) % len(rot)]
                if (nxt >> 1) in xeset:
                    break
                sectors.append(nxt)
    else:
        sectors = list(e.rotation[cg.root])

    expected = sum(len(e.rotation[v]) for v in cg.x_vertices) - 2 * len(xeset)
    if len(sectors) != expected:
        raise GenusPipelineError(
            f"boundary walk covered {len(sectors)} darts, expected {expected}")

    old_to_new = {v: 0 for v in xset}
    nxt_id = 1
    for v in range(g.n):
        if v not in xset:
            old_to_new[v] = nxt_id
            nxt_id += 1

    emap: dict[int, int] = {}
    new_edges = []
    for eid, (u, w) in enumerate(g.edges):
        if eid not in xeset:
            emap[eid] = len(new_edges)
            new_edges.append((old_to_new[u], old_to_new[w]))
    rotation = [sectors] + [e.rotation[v] for v in range(g.n) if v not in xset]
    contracted = reembed(nxt_id, new_edges, emap, rotation)
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
    super_v = old_to_new[root]
    xset = set(cg.x_vertices)
    new_to_old = {old_to_new[v]: v for v in range(e.graph.n) if v not in xset}
    td_c = planar_bfs_td(contracted, super_v)
    bags = [tuple(sorted(xset | {new_to_old[w] for w in bag if w != super_v}))
            for bag in td_c.bags]
    td = TreeDecomposition(nodes=td_c.nodes, tree_edges=td_c.tree_edges, bags=bags)
    bound = 3 * (cg.depth + 1) + len(cg.x_vertices)
    if td.width > bound:
        raise GenusPipelineError(
            f"genus decomposition has width {td.width} > 3 * (depth + 1) + |X| "
            f"= {bound}: the lifted bags are not root paths plus X")
    return td, bound
