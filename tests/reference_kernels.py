"""Numpy-scalar reference for the kernels of ``shallowtd._kernels``.

These are the kernels as they ran on numpy arrays, one element at a time,
together with the CSR adjacency they read.  The property tests require the
list kernels to return the same levels and parents, and the same bag
arrays, on every input.
"""

import numpy as np

from shallowtd.graph import Graph


def csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    # Built from the edge list alone, not from g.nbrs: the other end of
    # each edge at v in edge-id order, a loop listed twice.
    ends = [[] for _ in range(g.n)]
    for u, v in g.edges:
        ends[u].append(v)
        ends[v].append(u)
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    for v in range(g.n):
        indptr[v + 1] = indptr[v] + len(ends[v])
    indices = np.array([w for nb in ends for w in nb], dtype=np.int64)
    return indptr, indices


def bfs_levels(indptr, indices, root):
    # Level-synchronous BFS.  Frontiers are kept sorted ascending so that the
    # first discoverer of a vertex is its lowest-numbered neighbor in the
    # preceding level (the deterministic parent rule).
    n = indptr.shape[0] - 1
    level = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    frontier = np.empty(n, dtype=np.int64)
    nxt = np.empty(n, dtype=np.int64)
    level[root] = 0
    frontier[0] = root
    fsize = 1
    depth = 0
    while fsize > 0:
        nsize = 0
        for i in range(fsize):
            v = frontier[i]
            for j in range(indptr[v], indptr[v + 1]):
                w = indices[j]
                if level[w] < 0:
                    level[w] = depth + 1
                    parent[w] = v
                    nxt[nsize] = w
                    nsize += 1
        if nsize > 0:
            nxt[:nsize] = np.sort(nxt[:nsize])
        frontier, nxt = nxt, frontier
        fsize = nsize
        depth += 1
    return level, parent


def three_path_bags(parent, corners):
    # For each face (row of `corners`) collect the union of the BFS-tree
    # root paths of its corners.  A per-vertex stamp deduplicates: once the
    # walk from a corner reaches a vertex already stamped for this face, the
    # remainder of its root path is stamped too.
    n = parent.shape[0]
    nfaces = corners.shape[0]
    stamp = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(nfaces, dtype=np.int64)
    for f in range(nfaces):
        cnt = 0
        for c in range(corners.shape[1]):
            v = corners[f, c]
            while v >= 0 and stamp[v] != f:
                stamp[v] = f
                cnt += 1
                v = parent[v]
        sizes[f] = cnt
    indptr = np.zeros(nfaces + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(sizes)
    data = np.empty(indptr[nfaces], dtype=np.int64)
    stamp[:] = -1
    for f in range(nfaces):
        pos = indptr[f]
        for c in range(corners.shape[1]):
            v = corners[f, c]
            while v >= 0 and stamp[v] != f:
                stamp[v] = f
                data[pos] = v
                pos += 1
                v = parent[v]
        data[indptr[f]:indptr[f + 1]] = np.sort(data[indptr[f]:indptr[f + 1]])
    return indptr, data
