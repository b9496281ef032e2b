"""Quadratic reference for ``shallowtd.decomp.heuristic_td``.

Min-degree elimination that rescans every live vertex at each step for
the lowest live degree (ties to the lowest id).  The property tests require
the heap version to return the same nodes, tree edges and bags.  The
elimination-to-tree step is copied too, so the reference shares no code
with the package beyond its data types.
"""

from shallowtd.decomp import TreeDecomposition
from shallowtd.graph import Graph


def heuristic_td(g: Graph) -> TreeDecomposition:
    if g.n == 0:
        return TreeDecomposition(nodes=1, tree_edges=[], bags=[()])
    nbrs = [set(s) for s in g.neighbor_sets()]
    alive = set(range(g.n))
    elim_order: list[int] = []
    elim_bag: list[set[int]] = []
    while alive:
        v = min(alive, key=lambda x: (len(nbrs[x] & alive), x))
        live_nb = nbrs[v] & alive
        elim_order.append(v)
        elim_bag.append({v} | live_nb)
        for a in live_nb:
            for c in live_nb:
                if a != c:
                    nbrs[a].add(c)
        alive.discard(v)
    return _td_from_elimination(g, elim_order, elim_bag)


def _td_from_elimination(g: Graph, order: list[int],
                         bags: list[set[int]]) -> TreeDecomposition:
    pos = {v: i for i, v in enumerate(order)}
    tree_edges = []
    for i, v in enumerate(order):
        rest = bags[i] - {v}
        if rest:
            j = min(pos[w] for w in rest)
            tree_edges.append((i, j))
        elif i + 1 < len(order):
            tree_edges.append((i, i + 1))
    return TreeDecomposition(nodes=len(order), tree_edges=tree_edges,
                             bags=[tuple(sorted(b)) for b in bags])
