"""Reference for ``shallowtd.genus_td``: ``cut_graph``,
``contract_cut_graph`` and ``genus_td`` as they ran before the boundary
walk moved onto rotation successors.

X is collected from full root paths into sets, its boundary is walked
through a per-vertex dict of X-darts and their positions, and each sector
is read with ``list.index`` in the full rotation.  The old
``Layering.path_to_root`` lives on here as ``_path_to_root``, and the old
``Layering.parent_edge`` scan as ``lowest_parent_edges``, so X's tree
edges are chosen apart from ``tree_cotree``.  The property
tests require the package to return the same cut graph, contraction,
vertex map and decomposition, and to raise the same errors.
"""

from shallowtd.decomp import TreeDecomposition
from shallowtd.genus_td import CutGraph, GenusPipelineError
from shallowtd.graph import (EmbeddedGraph, Layering, bfs_layering, reembed,
                             simple_embedding)
from shallowtd.planar_td import planar_bfs_td, tree_cotree


def _path_to_root(lay: Layering, v: int) -> list[int]:
    path = [v]
    while lay.parent[path[-1]] >= 0:
        path.append(lay.parent[path[-1]])
    return path


def lowest_parent_edges(edges, parent: list[int]) -> list[int]:
    """Per vertex, the lowest-id edge to its BFS parent (-1 at the root):
    the scan ``bfs_layering`` ran before ``tree_cotree`` took it over."""
    parent_edge = [-1] * len(parent)
    for eid, (u, v) in enumerate(edges):
        if parent[v] == u and parent_edge[v] < 0:
            parent_edge[v] = eid
        elif parent[u] == v and parent_edge[u] < 0:
            parent_edge[u] = eid
    return parent_edge


def cut_graph(e: EmbeddedGraph, root: int) -> CutGraph:
    """Tree-cotree cut graph; |leftover| = 2g, |X| <= 2g*(2*depth+1) + 1."""
    lay = bfs_layering(e.graph, root)
    pair = tree_cotree(e.graph, e.faces, lay)
    leftover = list(pair.leftover_edges)
    if len(leftover) != 2 * e.euler_genus:
        raise GenusPipelineError(
            f"tree-cotree leftover count {len(leftover)} != 2g = {2 * e.euler_genus}")

    g = e.graph
    parent_edge = lowest_parent_edges(g.edges, lay.parent)
    xv: set[int] = {root}
    xe: set[int] = set(leftover)
    for eid in leftover:
        for v in g.edges[eid]:
            path = _path_to_root(lay, v)
            xv.update(path)
            for w in path:
                pe = parent_edge[w]
                if pe >= 0:
                    xe.add(pe)
    return CutGraph(host=e, root=root, x_vertices=tuple(sorted(xv)),
                    x_edges=tuple(sorted(xe)), leftover_edges=tuple(sorted(leftover)),
                    depth=lay.depth)


def contract_cut_graph(cg: CutGraph) -> tuple[EmbeddedGraph, dict[int, int]]:
    """Contract X to vertex 0 and re-embed the quotient in the sphere;
    returns (embedding, old_vertex -> new_vertex)."""
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
    """Decomposition of e.graph and its width bound 3*(depth+1) + |X_vertices|."""
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
