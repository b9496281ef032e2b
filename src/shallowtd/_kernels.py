"""Hot kernels: BFS layering, the double-sweep start, and three-path bag
assembly.

They run on plain Python lists.  They are interpreted loops that touch one
vertex at a time, and indexing a list is several times cheaper than indexing
a numpy array element-wise, which boxes a numpy scalar on every read.
Whole-array numpy versions lose here.  A level-synchronous numpy BFS pays a
fixed cost in array calls per level: 16 BFS runs took 4.3 ms against
0.13 ms on a 4x4 grid, and 152 ms against 100 ms on a 100x100 grid, whose
levels are many and thin.  Bag assembly keyed by
``np.unique`` walks every root path in full and sorts all the
(face, vertex) keys at once: on the triangulated 100x100 grid it took
0.93 s and 53 MB of extra peak memory against 0.15 s and 2.4 MB for one
small sort per bag.
"""

from __future__ import annotations


def bfs_levels(nbrs: list[list[int]],
               root: int) -> tuple[list[int], list[int], list[list[int]]]:
    """BFS levels and parents from `root` over neighbour lists, and the
    levels as vertex lists: ``levels[d]`` holds the vertices at distance d,
    ascending.  -1 marks an unreached vertex (level) and the root or an
    unreached vertex (parent); unreached vertices are in no list.

    Level-synchronous: each frontier is sorted ascending, so the first
    discoverer of a vertex is its lowest-numbered neighbour in the preceding
    level (the deterministic parent rule), and the frontiers are the lists.
    """
    n = len(nbrs)
    level = [-1] * n
    parent = [-1] * n
    level[root] = 0
    levels = [[root]]
    for depth, frontier in enumerate(levels, 1):    # runs on as levels grow
        nxt = []
        for v in frontier:
            for w in nbrs[v]:
                if level[w] < 0:
                    level[w] = depth
                    parent[w] = v
                    nxt.append(w)
        if nxt:
            nxt.sort()
            levels.append(nxt)
    return level, parent, levels


def far_sweep(nbrs: list[list[int]]
              ) -> tuple[list[int], list[int], list[list[int]]] | None:
    """The first half of a double BFS sweep over a non-empty vertex set:
    BFS from vertex 0, and u is the lowest-id vertex at its largest level,
    the first of the last level list.  Returns ``bfs_levels(nbrs, u)``, or
    None when vertex 0 does not reach every vertex."""
    level, _parent, levels = bfs_levels(nbrs, 0)
    if min(level) < 0:
        return None
    return bfs_levels(nbrs, levels[-1][0])


def three_path_bags(parent: list[int],
                    corners: list[list[int]]) -> list[tuple[int, ...]]:
    """Per face (one entry of `corners`), the sorted union of the BFS-tree
    root paths of its corners, as a tuple.

    A per-vertex stamp deduplicates: once the walk from a corner reaches a
    vertex already stamped for this face, the rest of its root path is
    stamped too.  The root's parent is -1, which indexes the extra last slot
    of `stamp`; stamping that slot with the face number ends every walk at
    the root without a separate bounds test.
    """
    stamp = [-1] * (len(parent) + 1)
    bags = []
    for f, face in enumerate(corners):
        stamp[-1] = f
        bag = []
        for v in face:
            while stamp[v] != f:
                stamp[v] = f
                bag.append(v)
                v = parent[v]
        bag.sort()
        bags.append(tuple(bag))
    return bags
