"""Quadratic references for ``shallowtd.decomp.heuristic_td`` and
``narrower_td``.

Min-degree elimination that rescans every live vertex at each step for
the lowest live degree (ties to the lowest id).  The property tests require
the heap version to return the same nodes, tree edges and bags.  The
level-order reference runs its own BFS sweep and eliminates every vertex,
with no early stop, no lower-bound shortcut and no shared neighbour sets.
The elimination-to-tree step is copied too, so the references share no
code with the package beyond its data types.
"""

from collections import deque

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


def narrower_td(g: Graph) -> TreeDecomposition:
    """The deepest-BFS-level-first elimination when it is strictly
    narrower than min-degree, else min-degree."""
    md = heuristic_td(g)
    level = _bfs(g, 0) if g.n else None
    if level is None or None in level:
        return md
    far = max(level)
    level = _bfs(g, min(v for v in range(g.n) if level[v] == far))
    order = sorted(range(g.n), key=lambda v: (-level[v], v))
    nbrs = [set(s) for s in g.neighbor_sets()]
    alive = set(range(g.n))
    bags = []
    for v in order:
        live_nb = nbrs[v] & alive
        bags.append({v} | live_nb)
        for a in live_nb:
            nbrs[a] |= live_nb - {a}
        alive.discard(v)
    levelled = _td_from_elimination(g, order, bags)
    return levelled if levelled.width < md.width else md


def _bfs(g: Graph, root: int) -> list:
    """Distances from root; None for an unreached vertex."""
    dist = [None] * g.n
    dist[root] = 0
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in g.neighbor_sets()[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


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
