"""Numpy reference for ``shallowtd.planar_td.slice_td``, and the level-by-
level loop reference for ``shallowtd.planar_td.level_windows``.

This is the band restriction as it ran on the host bags in CSR arrays: the
band is masked over the whole bag data at once and each bag becomes a set
before the subset contraction.  The property tests require ``slice_td`` to
return the same back map, node count, tree edges and bags on every band.

``level_windows`` here walks the levels one at a time (delete) or moves a
window start until a band reaches the last level (duplicate, dominate);
the tests require the stride version to return the same triples.
"""

import numpy as np

from shallowtd.decomp import TreeDecomposition
from shallowtd.graph import EmbeddingError, GraphInputError, induced_subgraph
from shallowtd.planar_td import BandHost, Slice


def csr_bags(td: TreeDecomposition) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.zeros(td.nodes + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(b) for b in td.bags])
    data = np.array([v for b in td.bags for v in b], dtype=np.int64)
    return indptr, data


def slice_td(host: BandHost, lo: int, hi: int) -> Slice:
    if not (0 <= lo <= hi <= host.layering.depth):
        raise GraphInputError(f"invalid level range [{lo}, {hi}]")
    bag_indptr, bag_data = csr_bags(host.td)
    level = np.asarray(host.layering.level)
    in_band = (level >= lo) & (level <= hi)
    graph, back_map = induced_subgraph(host.graph, np.flatnonzero(in_band).tolist())
    local = np.cumsum(in_band) - 1            # ascending, so bags stay sorted

    nodes = len(bag_indptr) - 1
    keep = in_band[bag_data]
    cut = local[bag_data[keep]].tolist()
    kept_before = np.concatenate(([0], np.cumsum(keep)))[bag_indptr].tolist()
    bags = [tuple(cut[kept_before[i]:kept_before[i + 1]]) for i in range(nodes)]
    sets = [set(b) for b in bags]

    rep = list(range(nodes))

    def find(x: int) -> int:
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for a, b in host.td.tree_edges:
        ra, rb = find(a), find(b)
        if sets[ra] <= sets[rb]:
            rep[ra] = rb
        elif sets[rb] <= sets[ra]:
            rep[rb] = ra
    kept = [x for x in range(nodes) if find(x) == x]
    new_id = {x: i for i, x in enumerate(kept)}
    tree_edges = [(new_id[find(a)], new_id[find(b)]) for a, b in host.td.tree_edges
                  if find(a) != find(b)]
    td = TreeDecomposition(nodes=len(kept), tree_edges=tree_edges,
                           bags=[bags[x] for x in kept])
    bound = 3 * (hi - lo + 1) - 1
    if td.width > bound:
        raise EmbeddingError(f"band [{lo}, {hi}] decomposition has width "
                             f"{td.width} > {bound}: the host bags are not "
                             "root paths of its BFS tree")
    return Slice(window=(lo, hi), graph=graph, back_map=back_map, td=td,
                 core=tuple(range(graph.n)))


def level_windows(depth: int, k: int, offset: int,
                  mode: str) -> list[tuple[int, int, tuple[int, int]]]:
    out = []
    if mode == "delete":
        lo = None
        for lvl in range(depth + 2):
            wall = lvl > depth or lvl % k == offset
            if wall:
                if lo is not None:
                    out.append((lo, lvl - 1, (lo, lvl - 1)))
                    lo = None
            elif lo is None:
                lo = lvl
    elif mode == "duplicate":
        start = offset - k if offset else 0
        while True:
            lo, hi = max(0, start), min(depth, start + k)
            out.append((lo, hi, (lo, hi)))
            if hi == depth:
                break
            start += k
    elif mode == "dominate":
        start = offset - k if offset else 0
        while True:
            clo, chi = max(0, start), min(depth, start + k - 1)
            out.append((max(0, clo - 1), min(depth, chi + 1), (clo, chi)))
            if chi == depth:
                break
            start += k
    else:
        raise GraphInputError(f"unknown slicing mode {mode!r}")
    return out
