"""Uncontracted reference for ``shallowtd.planar_td.planar_bfs_td``,
``shallowtd.planar_td.band_host`` and ``shallowtd.genus_td.genus_td``.

This is the root-path construction as it ran before nested bags were
contracted: one node per triangle of the triangulation, joined by the dual
tree, each bag the union of its corners' root paths.  ``band_host`` is the
level-band host built that way, with the BFS tree of the host itself, as a
plain record of its graph, layering and decomposition.
``contract_subsets`` is the set-based subset rule that ``restrict_td``
applies to bands.  The property tests require the contracted construction
to return exactly ``contract_subsets`` of this reference, and the contracted
host restricted to every band (``restrict_td``) to be as wide as this one
restricted to the same band.
"""

from typing import NamedTuple

from shallowtd import _kernels
from shallowtd.decomp import TreeDecomposition
from shallowtd.genus_td import contract_cut_graph, cut_graph
from shallowtd.graph import (EmbeddedGraph, EmbeddingError, Graph, Layering,
                             bfs_layering, triangulate)
from shallowtd.planar_td import _planar_component, _single_bag, tree_cotree


def planar_bfs_td(e: EmbeddedGraph, root: int) -> TreeDecomposition:
    """Valid tree decomposition of e.graph with width <= 3 * BFS depth.  The
    BFS runs on the triangulation, whose depth is at most the host's."""
    e = _planar_component(e, root)
    if e.graph.n <= 2:
        return _single_bag(e.graph.n)
    tri = triangulate(e)
    return _three_path_td(tri, bfs_layering(tri.graph, root))


def _three_path_td(tri: EmbeddedGraph, lay: Layering) -> TreeDecomposition:
    """The decomposition of the triangulation `tri` with one node per
    triangle, joined by the dual tree that avoids the spanning tree of
    `lay`, whose root paths form the bags."""
    pair = tree_cotree(tri, lay)
    if pair.leftover_edges:
        raise EmbeddingError("tree-cotree left edges over on a planar embedding; "
                             "the embedding is invalid")
    nfaces = len(tri.faces)
    edges = tri.graph.edges
    corners = [[edges[d >> 1][d & 1] for d in cyc] for cyc in tri.faces]
    tree_edges = [(pair.dual_parent[f], f) for f in range(nfaces)
                  if pair.dual_parent[f] >= 0]
    return TreeDecomposition(nodes=nfaces, tree_edges=tree_edges,
                             bags=_kernels.three_path_bags(lay.parent, corners))


class BandRecord(NamedTuple):
    graph: Graph
    layering: Layering
    td: TreeDecomposition


def band_host(e: EmbeddedGraph, root: int) -> BandRecord:
    """Host decomposition of a connected planar embedding whose bags are
    root paths in the BFS tree of e.graph from `root` (not of its
    triangulation), so that every bag meets each level at most three times."""
    e = _planar_component(e, root)
    lay = bfs_layering(e.graph, root)
    if e.graph.n <= 2:
        td = _single_bag(e.graph.n)
    else:
        td = _three_path_td(triangulate(e), lay)
    return BandRecord(graph=e.graph, layering=lay, td=td)


def genus_td(e: EmbeddedGraph, root: int) -> TreeDecomposition:
    """The genus pipeline on top of the uncontracted planar reference: X is
    adjoined to every bag of the contracted graph's decomposition."""
    cg = cut_graph(e, root)
    contracted, old_to_new = contract_cut_graph(cg)
    super_v = old_to_new[root]
    xset = set(cg.x_vertices)
    new_to_old = {old_to_new[v]: v for v in range(e.graph.n) if v not in xset}
    td_c = planar_bfs_td(contracted, super_v)
    bags = [tuple(sorted(xset | {new_to_old[w] for w in bag if w != super_v}))
            for bag in td_c.bags]
    return TreeDecomposition(nodes=td_c.nodes, tree_edges=td_c.tree_edges,
                             bags=bags)


def contract_subsets(td: TreeDecomposition) -> TreeDecomposition:
    """Contract each tree edge, in order, whose one representative bag is a
    subset of the other into the larger one (the first endpoint goes when
    both bags are equal).  Kept nodes stay in ascending order."""
    sets = [set(b) for b in td.bags]
    rep = list(range(td.nodes))

    def find(x: int) -> int:
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for a, b in td.tree_edges:
        ra, rb = find(a), find(b)
        if sets[ra] <= sets[rb]:
            rep[ra] = rb
        elif sets[rb] <= sets[ra]:
            rep[rb] = ra
    kept = [x for x in range(td.nodes) if find(x) == x]
    new_id = {x: i for i, x in enumerate(kept)}
    tree_edges = [(new_id[find(a)], new_id[find(b)]) for a, b in td.tree_edges
                  if find(a) != find(b)]
    return TreeDecomposition(nodes=len(kept), tree_edges=tree_edges,
                             bags=[td.bags[x] for x in kept])
