"""Property tests: the linear validator against its quadratic reference,
the list kernels against their numpy-scalar reference, the readers of the
BFS level lists (the sweep's far vertex and root, the depth, the
eccentricity, the level elimination order and every band's back map)
against the scans of the level array they replaced, the linear
triangulation against its quadratic reference, contraction of BFS
level prefixes, the genus cut-graph pipeline against its reference, Euler
genus against an independent planarity test, induced embedded subgraphs
against the edge scan, width bounds of whole-host and level-band decompositions, whole-host and
band-host decompositions against their uncontracted reference, the band
graph against the edge scan (also around a parallel pair or a loop) and the
band restriction of the host decomposition against its numpy reference and no
narrower than that of the uncontracted band host, each band's min-degree
decomposition whenever it is within the band's bound, with the band DP
against the oracle, the exact DP against its frozenset reference and the
oracle, the pattern DP against its pairwise-check reference (the same
mapping on twin-free patterns, the same existence on patterns with
twins) and against backtracking on min-degree decompositions, heap
min-degree elimination against its rescanning reference, the choice of
level-order or min-degree elimination against its full-elimination
reference, the nice form and its replayed bags against the builder that
stored every bag, and the DP's bag positions: distinct within every bag,
below width + 1, with table keys of at most 2 (width + 1) bits, on valid
decompositions, and the refusal of those that forget some host vertex
twice or never or hold some host edge in no bag; and malformed tree and nice decompositions at
the library entry points, which give a report or a typed error and
nothing else."""

import dataclasses
import itertools
import math
from collections import Counter
from functools import cache
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_bands
import reference_dp
import reference_genus
import reference_heuristic
import reference_kernels
import reference_nice
import reference_planar
import reference_triangulate
from conftest import DIGON, assert_triangulation_matches, relabel_embedded
from reference_validate import validate_quadratic
from shallowtd import _kernels, decomp, dp
from shallowtd.baker import build_slices
from shallowtd.decomp import (FORGET, INTRODUCE, JOIN, LEAF,
                              NiceDecomposition, TreeDecomposition,
                              ValidationReport, heuristic_td, make_nice,
                              narrower_td, validate)
from shallowtd.dp import (SolutionCheckError, dp_ds, dp_mis, dp_subiso, dp_vc,
                          verify_subiso)
from shallowtd.generators import (apex_over_grid, grid,
                                  random_planar_triangulation, subdivide,
                                  toroidal_grid, wall)
from shallowtd.genus_td import (GenusPipelineError, contract_cut_graph,
                                cut_graph, genus_td)
from shallowtd.graph import (EmbeddingError, GraphInputError, bfs_layering,
                             build_graph, contract_connected_set,
                             eccentricity, embed, induced_embedded_subgraph,
                             parse_graph, triangulate)
from shallowtd.oracles import (MAX_SET_PROBLEM, oracle_solve,
                               subiso_backtracking)
from shallowtd.planar_td import (band_host, band_hosts,
                                 min_eccentricity_root, planar_bfs_td,
                                 restrict_td, slice_td, tree_cotree)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# validate == validate_quadratic


@st.composite
def random_tree_decompositions(draw):
    """A random host, a random tree with random bags, and sometimes a broken
    tree shape or bag count, so that every check gets to report."""
    n = draw(st.integers(0, 7))
    vertex = st.integers(0, n - 1) if n else st.nothing()
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=10)) if n else []
    nodes = draw(st.integers(1, 8))
    labels = draw(st.permutations(range(nodes)))
    tree_edges = []
    for i in range(1, nodes):
        a, b = labels[draw(st.integers(0, i - 1))], labels[i]
        tree_edges.append((a, b) if draw(st.booleans()) else (b, a))
    entry = st.integers(-1, n) if draw(st.integers(0, 9)) == 0 else vertex
    bags = [tuple(sorted(draw(st.lists(entry, max_size=n + 1)))) if n else ()
            for _ in range(nodes)]
    damage = draw(st.sampled_from(["none"] * 6 + ["drop_edge", "add_edge",
                                                  "drop_bag"]))
    if damage == "drop_edge" and tree_edges:
        tree_edges.pop(draw(st.integers(0, len(tree_edges) - 1)))
    elif damage == "add_edge":
        tree_edges.append((draw(st.integers(0, nodes - 1)),
                           draw(st.integers(0, nodes - 1))))
    elif damage == "drop_bag":
        bags.pop()
    return build_graph(n, edges), TreeDecomposition(nodes, tree_edges, bags)


@PROPERTY
@given(random_tree_decompositions())
def test_validate_matches_reference_on_random_bags(case):
    g, td = case
    assert validate(td, g) == validate_quadratic(td, g)


def _torus_td():
    e = toroidal_grid(4, 4)
    return e.graph, genus_td(e, 0)[0]


def _planar_td(e, root=0):
    return e.graph, planar_bfs_td(e, root)


_DECOMPOSED = [
    lambda: _planar_td(grid(4, 5)),
    lambda: _planar_td(grid(1, 6), 2),
    lambda: _planar_td(wall(2)[1], 3),
    lambda: _planar_td(random_planar_triangulation(30, 4), 7),
    lambda: _planar_td(subdivide(grid(3, 3), 2)),
    _torus_td,
]


@cache
def _decomposed(i: int):
    return _DECOMPOSED[i]()


@PROPERTY
@given(st.data())
def test_validate_matches_reference_on_one_entry_changes(data):
    g, td = _decomposed(data.draw(st.integers(0, len(_DECOMPOSED) - 1)))
    assert validate(td, g).valid
    bags = [list(b) for b in td.bags]
    kind = data.draw(st.sampled_from(["drop", "add", "move"]))
    node = data.draw(st.integers(0, td.nodes - 1))
    if kind == "add":
        v = data.draw(st.integers(0, g.n - 1))
    else:
        v = bags[node].pop(data.draw(st.integers(0, len(bags[node]) - 1)))
        if kind == "move":
            node = data.draw(st.integers(0, td.nodes - 1))
    if kind != "drop":
        bags[node] = sorted(set(bags[node]) | {v})
    changed = TreeDecomposition(td.nodes, td.tree_edges, [tuple(b) for b in bags])
    assert validate(changed, g) == validate_quadratic(changed, g)


# ---------------------------------------------------------------------------
# Kernels: plain lists against the numpy-scalar reference


def _kernel_host(draw):
    """A host graph and, when it is planar and connected, the corner lists
    of its triangulation's faces (None otherwise)."""
    kind = draw(st.sampled_from(["triangulation", "subdivided", "torus",
                                 "disconnected"]))
    if kind == "triangulation":
        e = random_planar_triangulation(draw(st.integers(3, 60)),
                                        draw(st.integers(0, 10**6)))
    elif kind == "subdivided":
        e = subdivide(grid(draw(st.integers(1, 5)), draw(st.integers(2, 5))),
                      draw(st.integers(1, 3)))
    elif kind == "torus":
        return toroidal_grid(draw(st.integers(3, 6)),
                             draw(st.integers(3, 6))).graph, None
    else:
        a = random_planar_triangulation(draw(st.integers(3, 30)),
                                        draw(st.integers(0, 10**6))).graph
        b = subdivide(grid(draw(st.integers(1, 4)), draw(st.integers(2, 4))),
                      draw(st.integers(1, 2))).graph
        isolated = draw(st.integers(1, 3))
        edges = a.edges + [(u + a.n, v + a.n) for u, v in b.edges]
        return build_graph(a.n + b.n + isolated, edges), None
    if e.n < 3:
        return e.graph, None
    tri, triangles = triangulate(e)
    corners = [[tri.edges[d >> 1][d & 1] for d in cyc] for cyc in triangles]
    # the pipeline runs the BFS on the triangulation (planar_bfs_td) or on
    # the host itself (band_host); both span the same vertices
    return (tri if draw(st.booleans()) else e.graph), corners


@PROPERTY
@given(st.data())
def test_kernels_match_numpy_reference(data):
    g, corners = _kernel_host(data.draw)
    root = data.draw(st.integers(0, g.n - 1))
    level, parent, levels = _kernels.bfs_levels(g.nbrs, root)
    ref_level, ref_parent = reference_kernels.bfs_levels(
        *reference_kernels.csr(g), root)
    assert (level, parent) == (ref_level.tolist(), ref_parent.tolist())
    # one ascending list per level, the reference's levels bucketed
    assert levels == [np.flatnonzero(ref_level == d).tolist()
                      for d in range(ref_level.max() + 1)]
    if corners is None:
        vertex = st.integers(0, g.n - 1)
        corners = data.draw(st.lists(st.lists(vertex, min_size=3, max_size=3),
                                     max_size=40))
    ref_indptr, ref_data = reference_kernels.three_path_bags(
        np.array(parent, dtype=np.int64),
        np.array(corners, dtype=np.int64).reshape(-1, 3))
    ptr, flat = ref_indptr.tolist(), ref_data.tolist()
    assert (_kernels.three_path_bags(parent, corners)
            == [tuple(flat[ptr[i]:ptr[i + 1]]) for i in range(len(ptr) - 1)])


def test_kernels_leave_unreached_vertices_at_minus_one():
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    assert _kernels.bfs_levels(g.nbrs, 1) == ([1, 0, 1, -1, -1],
                                              [1, -1, 1, -1, -1],
                                              [[1], [0, 2]])
    assert (_kernels.three_path_bags([1, -1, 1, -1, -1], [[0, 2, 3], [4, 4, 3]])
            == [(0, 1, 2, 3), (3, 4)])


# ---------------------------------------------------------------------------
# triangulate == its quadratic reference


def _spanning_subgraph(e, rng, extra: float):
    """A random connected spanning subgraph of `e` with the inherited
    rotation: a random spanning tree, plus each other edge with probability
    `extra` (0 gives a tree, whose one face has length 2(n - 1))."""
    g = e.graph
    order = list(range(g.m))
    rng.shuffle(order)
    rep = list(range(g.n))

    def find(x):
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    kept = []
    for eid in order:
        ru, rv = find(g.edges[eid][0]), find(g.edges[eid][1])
        if ru != rv:
            rep[ru] = rv
            kept.append(eid)
        elif rng.random() < extra:
            kept.append(eid)
    new_eid = {old: i for i, old in enumerate(sorted(kept))}
    edges = [g.edges[old] for old in sorted(kept)]
    rotation = [[2 * new_eid[d >> 1] + (d & 1) for d in cyc if d >> 1 in new_eid]
                for cyc in e.rotation]
    return embed(build_graph(g.n, edges), rotation)


@PROPERTY
@given(st.data())
def test_triangulate_matches_quadratic_reference(data):
    kind = data.draw(st.sampled_from(["triangulation", "subdivided", "wall",
                                      "path"]))
    if kind == "triangulation":
        e = random_planar_triangulation(data.draw(st.integers(3, 80)),
                                        data.draw(st.integers(0, 10**6)))
    elif kind == "subdivided":
        e = subdivide(grid(data.draw(st.integers(2, 5)),
                           data.draw(st.integers(2, 5))),
                      data.draw(st.integers(1, 3)))
    elif kind == "wall":
        e = wall(data.draw(st.integers(1, 4)))[1]
    else:
        e = grid(1, data.draw(st.integers(3, 60)))
    extra = data.draw(st.sampled_from([None, 0.0, 0.0, 0.2, 0.7]))
    if extra is not None:
        e = _spanning_subgraph(e, data.draw(st.randoms(use_true_random=False)),
                               extra)
    g, triangles = triangulate(e)
    assert_triangulation_matches(g, triangles,
                                 reference_triangulate.triangulate(e))


# ---------------------------------------------------------------------------
# Whole-host width bounds


@PROPERTY
@given(st.data())
def test_planar_bfs_td_is_valid_within_three_times_depth(data):
    kind = data.draw(st.sampled_from(["grid", "wall", "triangulation",
                                      "subdivided"]))
    if kind == "grid":
        e = grid(data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8)))
    elif kind == "wall":
        e = wall(data.draw(st.integers(1, 4)))[1]
    elif kind == "triangulation":
        e = random_planar_triangulation(data.draw(st.integers(3, 80)),
                                        data.draw(st.integers(0, 10**6)))
    else:
        e = subdivide(grid(data.draw(st.integers(1, 5)),
                           data.draw(st.integers(2, 5))),
                      data.draw(st.integers(1, 3)))
    extra = data.draw(st.sampled_from([None, None, 0.0, 0.3]))
    if extra is not None:     # trees and other long-face hosts
        e = _spanning_subgraph(e, data.draw(st.randoms(use_true_random=False)),
                               extra)
    root = data.draw(st.integers(0, e.n - 1))
    td = planar_bfs_td(e, root)
    assert validate(td, e.graph).valid
    assert td.width <= 3 * eccentricity(e.graph, root)


@PROPERTY
@given(rows=st.integers(3, 6), cols=st.integers(3, 6), data=st.data())
def test_genus_td_on_tori_is_valid_within_its_bound(rows, cols, data):
    e = toroidal_grid(rows, cols)
    root = data.draw(st.integers(0, e.n - 1))
    td, _ = genus_td(e, root)
    cg = cut_graph(e, root)
    assert validate(td, e.graph).valid
    assert td.width <= 3 * (cg.depth + 1) + len(cg.x_vertices)


@PROPERTY
@given(st.data())
def test_whole_host_td_is_the_subset_contraction_of_the_reference(data):
    kind = data.draw(st.sampled_from(["triangulation", "subdivided", "wall",
                                      "torus", "band"]))
    if kind == "band":
        e = _band_embedding(data.draw)
    elif kind == "triangulation":
        e = random_planar_triangulation(data.draw(st.integers(3, 80)),
                                        data.draw(st.integers(0, 10**6)))
    elif kind == "subdivided":
        e = subdivide(grid(data.draw(st.integers(1, 5)),
                           data.draw(st.integers(2, 5))),
                      data.draw(st.integers(1, 3)))
    elif kind == "wall":
        e = wall(data.draw(st.integers(1, 4)))[1]
    else:
        e = toroidal_grid(data.draw(st.integers(3, 6)),
                          data.draw(st.integers(3, 6)))
    root = data.draw(st.integers(0, e.n - 1))
    if kind == "torus":
        td, ref = genus_td(e, root)[0], reference_planar.genus_td(e, root)
    elif kind == "band":
        td = band_host(e, root).td
        ref = reference_planar.band_host(e, root).td
    else:
        td, ref = planar_bfs_td(e, root), reference_planar.planar_bfs_td(e, root)
    expected = reference_planar.contract_subsets(ref)
    assert td.nodes == expected.nodes
    assert td.tree_edges == expected.tree_edges
    assert td.bags == expected.bags
    assert validate(td, e.graph).valid
    assert td.width == ref.width
    assert (make_nice(td).kind.count("join")
            <= make_nice(ref).kind.count("join"))


# ---------------------------------------------------------------------------
# Contraction of connected level prefixes


@PROPERTY
@given(n=st.integers(3, 60), seed=st.integers(0, 10**6), data=st.data())
def test_contracting_a_level_prefix_stays_simple_and_planar(n, seed, data):
    e = random_planar_triangulation(n, seed)
    lay = bfs_layering(e.graph, data.draw(st.integers(0, n - 1)))
    top = data.draw(st.integers(0, lay.depth))
    prefix = [v for v in range(n) if lay.level[v] <= top]
    c, old_to_new = contract_connected_set(e, prefix)
    assert c.euler_genus == 0
    assert len({old_to_new[v] for v in prefix}) == 1
    assert c.graph.n == n - len(prefix) + 1
    assert all(u != v for u, v in c.graph.edges)
    assert len({(min(u, v), max(u, v)) for u, v in c.graph.edges}) == c.graph.m


# ---------------------------------------------------------------------------
# The genus pipeline == its reference


def _random_rotation_system(draw):
    """A small random connected multigraph (loops and parallel edges
    allowed) under a random rotation system, so of any genus."""
    n = draw(st.integers(1, 7))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    g = build_graph(n, edges)
    tails = [v for uv in g.edges for v in uv]
    rotation = [draw(st.permutations([d for d, t in enumerate(tails) if t == v]))
                for v in range(n)]
    return embed(g, rotation)


def _outcome(f, *args):
    """(f(*args), None), or (None, (type, message)) of the error it raises."""
    try:
        return f(*args), None
    except (GenusPipelineError, GraphInputError, EmbeddingError) as exc:
        return None, (type(exc), str(exc))


def _damaged_cut_graph(cg, draw):
    """`cg` without one X edge (its boundary splits), with one more vertex
    (the sectors miss its darts) or without its leftover edges (a tree,
    whose contraction keeps the genus); `cg` itself when none applies."""
    damage = draw(st.sampled_from(["edge", "vertex", "tree"]))
    if damage == "edge" and cg.x_edges:
        drop = draw(st.sampled_from(cg.x_edges))
        return dataclasses.replace(
            cg, x_edges=tuple(x for x in cg.x_edges if x != drop))
    outside = sorted(set(range(cg.host.n)) - set(cg.x_vertices))
    if damage == "vertex" and outside:
        extra = draw(st.sampled_from(outside))
        return dataclasses.replace(
            cg, x_vertices=tuple(sorted(cg.x_vertices + (extra,))))
    if damage == "tree":
        return dataclasses.replace(cg, x_edges=tuple(
            x for x in cg.x_edges if x not in cg.leftover_edges))
    return cg


def _assert_same_contraction(cg):
    got, err = _outcome(contract_cut_graph, cg)
    ref, ref_err = _outcome(reference_genus.contract_cut_graph, cg)
    assert err == ref_err
    if err is None:
        (c, old_to_new), (rc, ref_map) = got, ref
        assert c.graph.edges == rc.graph.edges
        assert c.rotation == rc.rotation
        assert c.faces == rc.faces
        assert c.euler_genus == rc.euler_genus == 0
        assert old_to_new == [ref_map[v] for v in range(cg.host.n)]


@PROPERTY
@given(st.data())
def test_genus_pipeline_matches_its_reference(data):
    kind = data.draw(st.sampled_from(["torus", "subdivided", "rotation"]))
    if kind == "rotation":
        e = _random_rotation_system(data.draw)
    else:
        e = toroidal_grid(data.draw(st.integers(3, 8)),
                          data.draw(st.integers(3, 8)))
        if kind == "subdivided":
            e = subdivide(e, data.draw(st.integers(2, 3)))
    root = data.draw(st.integers(0, e.n - 1))

    cg, err = _outcome(cut_graph, e, root)
    ref, ref_err = _outcome(reference_genus.cut_graph, e, root)
    assert err == ref_err
    if err is None:
        assert cg == ref
        _assert_same_contraction(cg)
        _assert_same_contraction(_damaged_cut_graph(cg, data.draw))

    got, err = _outcome(genus_td, e, root)
    ref, ref_err = _outcome(reference_genus.genus_td, e, root)
    assert err == ref_err
    if err is None:
        (td, bound), (ref_td, ref_bound) = got, ref
        assert (td.nodes, td.tree_edges, td.bags, bound) == (
            ref_td.nodes, ref_td.tree_edges, ref_td.bags, ref_bound)


# ---------------------------------------------------------------------------
# tree_cotree's tree edges == the lowest-id scan; the three sides partition


def _tree_cotree_case(draw):
    """A graph, the faces of an embedding of it, its Euler genus and a BFS
    layering spanning it, from a random root: a band host's triangulation
    levelled by the host (as ``BandHost.td`` partitions it; the chords can
    double a host edge) or by itself, a torus, the digon (its parallel pair
    kept, or simplified by ``band_host`` and maybe triangulated), or a
    relabelled grid."""
    kind = draw(st.sampled_from(["triangulated", "torus", "digon", "grid"]))
    if kind == "triangulated":
        e = (random_planar_triangulation(draw(st.integers(3, 40)),
                                         draw(st.integers(0, 10**6)))
             if draw(st.booleans())
             else grid(draw(st.integers(1, 6)), draw(st.integers(2, 6))))
        extra = draw(st.sampled_from([None, 0.0, 0.3]))
        if extra is not None:
            e = _spanning_subgraph(e, draw(st.randoms(use_true_random=False)),
                                   extra)
    elif kind == "torus":
        e = toroidal_grid(draw(st.integers(3, 6)), draw(st.integers(3, 6)))
    elif kind == "digon":
        e = parse_graph(DIGON)
    else:
        e = grid(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
        e = relabel_embedded(e, draw(st.permutations(range(e.n))))
    root = draw(st.integers(0, e.n - 1))
    if kind == "triangulated" or (kind == "digon" and draw(st.booleans())):
        host = band_host(e, root)
        e = host.embedding
        if e.n > 2 and draw(st.booleans()):
            g, triangles = triangulate(e)
            lay = (host.layering if draw(st.booleans())
                   else bfs_layering(g, root))
            return g, triangles, 0, lay
    return e.graph, e.faces, e.euler_genus, bfs_layering(e.graph, root)


@PROPERTY
@given(st.data())
def test_tree_cotree_picks_the_lowest_id_tree_edges(data):
    """Each vertex's tree edge is the lowest-id edge to its BFS parent (the
    scan ``bfs_layering`` ran before ``tree_cotree`` took it over), and the
    tree, crossed and leftover edges partition the edges: n - 1 tree edges,
    one crossed edge per dual-tree edge, and 2g left over."""
    g, faces, genus, lay = _tree_cotree_case(data.draw)
    pair = tree_cotree(g, faces, lay)
    assert pair.parent_edge == reference_genus.lowest_parent_edges(g.edges,
                                                                   lay.parent)
    tree = {pe for pe in pair.parent_edge if pe >= 0}
    leftover = set(pair.leftover_edges)
    assert len(tree) == g.n - 1 and not tree & leftover
    assert len(leftover) == 2 * genus
    face_of = [0] * (2 * g.m)
    for f, cyc in enumerate(faces):
        for d in cyc:
            face_of[d] = f
    crossed = set(range(g.m)) - tree - leftover
    assert sorted(tuple(sorted((face_of[2 * x], face_of[2 * x + 1])))
                  for x in crossed) == sorted(
        tuple(sorted((f, p))) for f, p in enumerate(pair.dual_parent)
        if p >= 0)


# ---------------------------------------------------------------------------
# Euler genus 0 against networkx's planarity test


def _generated_host(draw):
    kind = draw(st.sampled_from(["grid", "wall", "triangulation",
                                 "subdivided", "torus", "induced"]))
    if kind == "grid":
        return grid(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    if kind == "wall":
        return wall(draw(st.integers(1, 3)))[1]
    if kind == "triangulation":
        return random_planar_triangulation(draw(st.integers(3, 40)),
                                           draw(st.integers(0, 10**6)))
    if kind == "subdivided":
        return subdivide(grid(draw(st.integers(2, 4)), draw(st.integers(2, 4))),
                         draw(st.integers(1, 3)))
    if kind == "torus":
        return toroidal_grid(draw(st.integers(3, 5)), draw(st.integers(3, 5)))
    host = random_planar_triangulation(draw(st.integers(3, 40)),
                                       draw(st.integers(0, 10**6)))
    keep = draw(st.sets(st.integers(0, host.n - 1), min_size=1))
    return induced_embedded_subgraph(host, keep)[0]


@PROPERTY
@given(st.data())
def test_induced_embedded_subgraph_matches_the_edge_scan(data):
    """Any keep (unsorted, repeated, every vertex) of grids, triangulations,
    tori and multigraphs with loops and parallel edges."""
    kind = data.draw(st.sampled_from(["grid", "triangulation", "torus",
                                      "multigraph"]))
    if kind == "grid":
        host = grid(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))
    elif kind == "triangulation":
        host = random_planar_triangulation(data.draw(st.integers(3, 40)),
                                           data.draw(st.integers(0, 10**6)))
    elif kind == "torus":
        host = toroidal_grid(data.draw(st.integers(3, 5)),
                             data.draw(st.integers(3, 5)))
    else:
        host = _random_rotation_system(data.draw)
    vertex = st.integers(0, host.n - 1)
    keep = data.draw(st.one_of(st.permutations(range(host.n)),
                               st.lists(vertex, max_size=2 * host.n)))
    sub, back = induced_embedded_subgraph(host, keep)
    ref, ref_back = reference_bands.induced_embedded_subgraph(host, keep)
    assert back == ref_back
    assert (sub is host) == (ref is host)
    assert (sub.graph.n, sub.graph.edges, sub.graph.nbrs, sub.rotation,
            sub.faces, sub.euler_genus) == (ref.graph.n, ref.graph.edges,
                                            ref.graph.nbrs, ref.rotation,
                                            ref.faces, ref.euler_genus)


@PROPERTY
@given(st.data())
def test_genus_zero_agrees_with_networkx_planarity(data):
    e = _generated_host(data.draw)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(e.n))
    nxg.add_edges_from(e.graph.edges)
    planar, _ = nx.check_planarity(nxg)
    assert (e.euler_genus == 0) == planar


# ---------------------------------------------------------------------------
# Level bands: the host decomposition restricted to levels [lo, hi]


def _band_embedding(draw):
    """A random band host's embedding: a triangulation, a subdivided grid, a
    wall or a grid."""
    kind = draw(st.sampled_from(["triangulation", "subdivided", "wall",
                                 "grid"]))
    if kind == "triangulation":
        e = random_planar_triangulation(draw(st.integers(3, 60)),
                                        draw(st.integers(0, 10**6)))
    elif kind == "subdivided":
        e = subdivide(grid(draw(st.integers(1, 6)), draw(st.integers(2, 6))),
                      draw(st.integers(1, 3)))
    elif kind == "wall":
        e = wall(draw(st.integers(1, 4)))[1]
    else:
        e = grid(draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    return e


def _band(draw):
    """A random band host's embedding (``_band_embedding``), a random root,
    the band host from that root, and a random level range [lo, hi] of it."""
    e = _band_embedding(draw)
    root = draw(st.integers(0, e.n - 1))
    host = band_host(e, root)
    lo = draw(st.integers(0, host.layering.depth))
    hi = draw(st.integers(lo, host.layering.depth))
    return e, root, host, lo, hi


@PROPERTY
@given(st.data())
def test_band_is_valid_narrow_and_exact(data):
    e, root, host, lo, hi = _band(data.draw)
    sl = slice_td(host, lo, hi)
    assert sl.back_map == [v for v in range(host.graph.n)
                           if lo <= host.layering.level[v] <= hi]
    assert validate(sl.td, sl.graph).valid
    assert sl.td.width <= 3 * (hi - lo + 1) - 1
    # the contracted host loses no width on any band, only nodes
    cut = restrict_td(host.td, sl.back_map)
    ref = restrict_td(reference_planar.band_host(e, root).td, sl.back_map)
    assert cut.width == ref.width
    assert cut.nodes <= ref.nodes
    if sl.graph.n <= MAX_SET_PROBLEM:
        assert (len(dp_mis(make_nice(sl.td), sl.graph))
                == oracle_solve("mis", sl.graph)[0])


def _with_required(g, required):
    """`g` plus a vertex x adjacent to every vertex outside `required` and
    a pendant vertex on x.  Some minimum dominating set holds x, which
    dominates exactly the unrequired vertices, so its size is one more than
    the least set of g that dominates `required`."""
    x = g.n
    rest = [(v, x) for v in range(g.n) if v not in required]
    return build_graph(g.n + 2, list(g.edges) + rest + [(x, x + 1)])


@PROPERTY
@given(st.data())
def test_band_takes_min_degree_within_its_bound(data):
    """A band gets its min-degree decomposition when that is within the
    bound and the host's restricted one otherwise, and the band DP is exact
    on it for every problem, dominating set with the band's core."""
    _e, _root, host, lo, hi = _band(data.draw)
    clo = data.draw(st.integers(lo, hi))
    core = (clo, data.draw(st.integers(clo, hi)))
    sl = slice_td(host, lo, hi, core)
    bound = 3 * (hi - lo + 1) - 1
    md = heuristic_td(sl.graph)
    if md.width <= bound:
        assert sl.td == md
    else:
        assert sl.td == restrict_td(host.td, sl.back_map)
    assert sl.core == tuple(i for i, v in enumerate(sl.back_map)
                            if clo <= host.layering.level[v] <= core[1])
    if sl.graph.n + 2 <= MAX_SET_PROBLEM:
        nd = make_nice(sl.td)
        assert len(dp_mis(nd, sl.graph)) == oracle_solve("mis", sl.graph)[0]
        assert len(dp_vc(nd, sl.graph)) == oracle_solve("vc", sl.graph)[0]
        ds = dp_ds(nd, sl.graph, sl.core)
        nbr = sl.graph.neighbor_sets()
        assert all(v in ds or nbr[v] & ds for v in sl.core)
        assert (len(ds) + 1
                == oracle_solve("ds", _with_required(sl.graph, sl.core))[0])


def _enclosed(e, draw):
    """`e` (two or more edges) plus a vertex x joined to a vertex u, and
    around x either a second copy of an edge uv, beside it in the rotations
    of u and v, or a loop at u: the copy or loop bounds a face of four or
    three darts holding x, and the face on its other side keeps or gains
    darts, so no face has fewer than three."""
    g = e.graph
    m, x = g.m, e.n
    rotation = [list(cyc) for cyc in e.rotation] + [[2 * m + 3]]
    eid = draw(st.integers(0, m - 1))
    u, v = g.edges[eid]
    if draw(st.booleans()):                         # the parallel pair
        at = rotation[u].index(2 * eid) + 1
        rotation[u][at:at] = [2 * m + 2, 2 * m]
        at = rotation[v].index(2 * eid + 1)
        rotation[v][at:at] = [2 * m + 1]
    else:                                           # the loop at u
        v = u
        at = draw(st.integers(0, len(rotation[u])))
        rotation[u][at:at] = [2 * m, 2 * m + 2, 2 * m + 1]
    return embed(build_graph(x + 1, list(g.edges) + [(u, v), (u, x)]),
                 rotation)


@PROPERTY
@given(st.data())
def test_band_matches_numpy_reference(data):
    """Also on hosts with a parallel pair or a loop around a vertex
    (``_enclosed``), which the band host keeps: the band graph, read from
    the host's rotations, equals the reference's edge scan."""
    e = _band_embedding(data.draw)
    if e.graph.m >= 2 and data.draw(st.booleans()):
        e = _enclosed(e, data.draw)
        assert e.euler_genus == 0 and min(map(len, e.faces)) >= 3
    root = data.draw(st.integers(0, e.n - 1))
    host = band_host(e, root)
    assert host.graph.edges == e.graph.edges
    lo = data.draw(st.integers(0, host.layering.depth))
    hi = data.draw(st.integers(lo, host.layering.depth))
    sl = slice_td(host, lo, hi)
    cut = restrict_td(host.td, sl.back_map)
    ref = reference_bands.slice_td(host, lo, hi)
    assert sl.back_map == ref.back_map
    assert (sl.graph.n, sl.graph.edges, sl.graph.nbrs) == (
        ref.graph.n, ref.graph.edges, ref.graph.nbrs)
    assert cut.nodes == ref.td.nodes
    assert cut.tree_edges == ref.td.tree_edges
    assert cut.bags == ref.td.bags


# ---------------------------------------------------------------------------
# Exact DP: the bitmask engine against the frozenset reference and the oracle


def _dp_instance(draw):
    kind = draw(st.sampled_from(["triangulation", "subdivided", "torus",
                                 "apex"]))
    if kind == "triangulation":
        e = random_planar_triangulation(draw(st.integers(3, 40)),
                                        draw(st.integers(0, 10**6)))
        return e.graph, planar_bfs_td(e, draw(st.integers(0, e.n - 1)))
    if kind == "subdivided":
        e = subdivide(grid(draw(st.integers(1, 4)), draw(st.integers(2, 4))),
                      draw(st.integers(1, 2)))
        return e.graph, planar_bfs_td(e, draw(st.integers(0, e.n - 1)))
    if kind == "torus":
        e = toroidal_grid(3, draw(st.integers(3, 4)))
        return e.graph, genus_td(e, draw(st.integers(0, e.n - 1)))[0]
    g = apex_over_grid(draw(st.integers(1, 4)))
    return g, heuristic_td(g)


@PROPERTY
@given(st.data())
def test_dp_matches_reference_and_oracle(data):
    g, td = _dp_instance(data.draw)
    nd = make_nice(td)
    mis, vc, ds = dp_mis(nd, g), dp_vc(nd, g), dp_ds(nd, g, set(range(g.n)))
    assert mis == reference_dp.reference_mis(nd, g)
    # the cover is the complement of the independent set; the reference
    # cover engine still checks its size independently
    assert vc == set(range(g.n)) - mis
    assert len(vc) == len(reference_dp.reference_vc(nd, g))
    assert ds == reference_dp.dp_ds(nd, g, set(range(g.n)))
    required = data.draw(st.sets(st.integers(0, g.n - 1)))
    assert dp_ds(nd, g, required) == reference_dp.dp_ds(nd, g, required)
    if g.n <= MAX_SET_PROBLEM:
        assert len(mis) == oracle_solve("mis", g)[0]
        assert len(vc) == oracle_solve("vc", g)[0]
        assert len(ds) == oracle_solve("ds", g)[0]


def test_dp_ds_on_the_torus_genus_form_matches_the_reference():
    """A case the example stream above once drew: on this form the
    dominance prune moves the witness, so the reference must prune the
    same entries to agree, and the size is the optimum."""
    e = toroidal_grid(3, 3)
    g, nd, required = e.graph, make_nice(genus_td(e, 0)[0]), set(range(7))
    ds = dp_ds(nd, g, required)
    assert ds == reference_dp.dp_ds(nd, g, required)
    assert (len(ds) + 1
            == oracle_solve("ds", _with_required(g, required))[0])


def _ds_forget_tables(nd, g) -> tuple[set[int], list[dict]]:
    """dp_ds's witness on nd and every table its forgets return."""
    tables: list[dict] = []
    walk = dp._walk

    def spy(nd, start, introduce, forget, join):
        def kept(node, child):
            tables.append(forget(node, child))
            return tables[-1]
        return walk(nd, start, introduce, kept, join)

    with mock.patch.object(dp, "_walk", spy):
        return dp_ds(nd, g), tables


@PROPERTY
@given(st.data())
def test_dp_ds_forgets_keep_no_dominated_entry(data):
    """No DS forget table holds an entry (B, U) beside (B, U less one bit)
    of no larger value, and the pruned tables still give the optimum on
    min-degree forms with joins."""
    if data.draw(st.booleans()):
        g = _maybe_relabelled(data.draw, wall(2)[1].graph)
    else:
        n = data.draw(st.integers(2, 14))
        g = build_graph(n, _random_graph(data.draw, n,
                                         data.draw(st.floats(0.1, 0.5))))
    nd = make_nice(heuristic_td(g))
    assume(JOIN in nd.kind)
    witness, tables = _ds_forget_tables(nd, g)
    assert len(witness) == oracle_solve("ds", g)[0]
    # the engine's layout: black | undominated << span
    span = max(dp._positions(nd, g)[0]).bit_length()
    for table in tables:
        for key, (value, *_rest) in table.items():
            undominated = key >> span << span
            while undominated:
                bit = undominated & -undominated
                other = table.get(key ^ bit)
                assert other is None or other[0] > value
                undominated ^= bit


def _has_twins(h) -> bool:
    nbr = h.neighbor_sets()
    return any(nbr[p] - {q} == nbr[q] - {p}
               for p in range(h.n) for q in range(p + 1, h.n))


def _pattern(draw):
    """A connected pattern: a random spanning tree plus random chords, or a
    shape whose vertices fall into twin classes (cliques, stars, K_{a,b},
    K_n - e, C4 with its true and false twins), relabelled at random so
    that twin classes are not runs of consecutive ids."""
    kind = draw(st.sampled_from(["random"] * 5 + [
        "clique", "star", "biclique", "clique_minus_edge", "c4"]))
    if kind == "random":
        k = draw(st.integers(1, 6))
        edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, k)}
        pair = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
        edges |= {(min(a, b), max(a, b))
                  for a, b in draw(st.lists(pair, max_size=4)) if a != b}
        return build_graph(k, sorted(edges))
    if kind in ("clique", "clique_minus_edge"):
        k = draw(st.integers(2 if kind == "clique" else 3, 5))
        edges = [(a, b) for a in range(k) for b in range(a + 1, k)]
        if kind == "clique_minus_edge":
            edges.remove((0, 1))
    elif kind == "star":
        k = 1 + draw(st.integers(2, 5))
        edges = [(0, i) for i in range(1, k)]
    elif kind == "biclique":
        a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        k = a + b
        edges = [(i, a + j) for i in range(a) for j in range(b)]
    else:
        k = 4
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    label = draw(st.permutations(range(k)))
    return build_graph(k, [(label[u], label[v]) for u, v in edges])


@PROPERTY
@given(st.data())
def test_dp_subiso_matches_reference(data):
    """Twin-free patterns get exactly the reference's mapping.  A pattern
    with twins is searched up to swapping them, so only existence must
    agree and the mapping must be a valid embedding."""
    g, td = _dp_instance(data.draw)
    h = _pattern(data.draw)
    induced = data.draw(st.booleans())
    nd = make_nice(td)
    mine = dp_subiso(nd, g, h, induced)
    ref = reference_dp.dp_subiso(nd, g, h, induced)
    if not _has_twins(h):
        assert mine == ref
    else:
        assert (mine is None) == (ref is None)
        assert mine is None or verify_subiso(g, h, mine, induced)


def _fixed_pattern(draw):
    """A star K_{1,3} or K_{1,4}, C4, K_{2,3} or a spider (two or three legs
    of one or two edges, at most six vertices), relabelled at random."""
    kind = draw(st.sampled_from(["star", "c4", "k23", "spider"]))
    if kind == "star":
        k = draw(st.integers(4, 5))
        edges = [(0, i) for i in range(1, k)]
    elif kind == "c4":
        k, edges = 4, [(0, 1), (1, 2), (2, 3), (3, 0)]
    elif kind == "k23":
        k, edges = 5, [(a, b) for a in range(2) for b in range(2, 5)]
    else:
        legs = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
        if sum(legs) > 5:
            legs[-1] = 1
        k, edges = 1, []
        for length in legs:
            prev = 0
            for _ in range(length):
                edges.append((prev, k))
                prev, k = k, k + 1
    label = draw(st.permutations(range(k)))
    return build_graph(k, [(label[u], label[v]) for u, v in edges])


@PROPERTY
@given(st.data())
def test_dp_subiso_on_min_degree_decompositions(data):
    """Elimination trees branch, so level bands reach many join nodes; on
    small planar hosts and their sparse spanning subgraphs the pattern DP
    over the min-degree decomposition agrees with backtracking on
    existence and returns a valid embedding."""
    e = random_planar_triangulation(data.draw(st.integers(3, 14)),
                                    data.draw(st.integers(0, 10**6)))
    extra = data.draw(st.sampled_from([None, 0.0, 0.3, 0.6]))
    if extra is not None:
        e = _spanning_subgraph(e, data.draw(st.randoms(use_true_random=False)),
                               extra)
    g, h = e.graph, _fixed_pattern(data.draw)
    induced = data.draw(st.booleans())
    found = dp_subiso(make_nice(heuristic_td(g)), g, h, induced)
    expected = subiso_backtracking(g, h, induced).mapping
    assert (found is None) == (expected is None)
    assert found is None or verify_subiso(g, h, found, induced)


# ---------------------------------------------------------------------------
# heuristic_td == its rescanning reference


def _random_graph(draw, n: int, p: float):
    rng = draw(st.randoms(use_true_random=False))
    return [(a, b) for a in range(n) for b in range(a + 1, n)
            if rng.random() < p]


def _min_degree_host(draw):
    """Random sparse or dense graphs on 0..40 vertices (some with
    self-loops), disconnected ones with isolated vertices, apex graphs,
    grids and random triangulations; the structured hosts are relabelled at
    random half the time, so ties in the elimination order fall on other
    ids."""
    kind = draw(st.sampled_from(["sparse", "dense", "disconnected", "apex",
                                 "grid", "triangulation"]))
    if kind in ("sparse", "dense"):
        n = draw(st.integers(0, 40))
        p = 3 / max(n, 1) if kind == "sparse" else draw(st.floats(0.2, 0.9))
        loops = [(v, v) for v in draw(st.lists(st.integers(0, n - 1),
                                               max_size=3))] if n else []
        return build_graph(n, _random_graph(draw, n, p) + loops)
    if kind == "disconnected":
        a, b = draw(st.integers(1, 15)), draw(st.integers(1, 15))
        edges = _random_graph(draw, a, 0.3) + [
            (u + a, v + a) for u, v in _random_graph(draw, b, 0.3)]
        return build_graph(a + b + draw(st.integers(0, 4)), edges)
    if kind == "apex":
        g = apex_over_grid(draw(st.integers(1, 5)))
    elif kind == "grid":
        g = grid(draw(st.integers(1, 8)), draw(st.integers(1, 8))).graph
    else:
        g = random_planar_triangulation(draw(st.integers(3, 60)),
                                        draw(st.integers(0, 10**6))).graph
    return _maybe_relabelled(draw, g)


def _maybe_relabelled(draw, g):
    if draw(st.booleans()):
        label = draw(st.permutations(range(g.n)))
        g = build_graph(g.n, [(label[u], label[v]) for u, v in g.edges])
    return g


@PROPERTY
@given(st.data())
def test_heuristic_td_matches_rescanning_reference(data):
    g = _min_degree_host(data.draw)
    td, ref = heuristic_td(g), reference_heuristic.heuristic_td(g)
    assert td.nodes == ref.nodes
    assert td.tree_edges == ref.tree_edges
    assert td.bags == ref.bags
    assert validate(td, g).valid


# ---------------------------------------------------------------------------
# narrower_td == its full-elimination reference


def _chooser_host(draw):
    """The min-degree hosts, plus grids, walls and tori of the sizes where
    level order is often the narrower; relabelled at random half the
    time."""
    kind = draw(st.sampled_from(["min_degree", "grid", "wall", "torus"]))
    if kind == "min_degree":
        return _min_degree_host(draw)
    if kind == "grid":
        g = grid(draw(st.integers(5, 9)), draw(st.integers(5, 10))).graph
    elif kind == "wall":
        g = wall(draw(st.integers(3, 5)))[1].graph
    else:
        g = toroidal_grid(draw(st.integers(5, 8)),
                          draw(st.integers(5, 9))).graph
    return _maybe_relabelled(draw, g)


@PROPERTY
@given(st.data())
def test_narrower_td_matches_full_elimination_reference(data):
    g = _chooser_host(data.draw)
    td, md = narrower_td(g), heuristic_td(g)
    ref = reference_heuristic.narrower_td(g)
    assert td.nodes == ref.nodes
    assert td.tree_edges == ref.tree_edges
    assert td.bags == ref.bags
    assert validate(td, g).valid
    assert td.width <= md.width
    if td.width == md.width:                  # ties keep min-degree
        assert td == md


# ---------------------------------------------------------------------------
# Readers of the BFS level lists == the level scans they replaced


@PROPERTY
@given(st.data())
def test_level_list_readers_match_the_level_scans(data):
    """The far vertex, the sweep root, the depth, the eccentricity and the
    level elimination order, each read from the kernel's level lists, equal
    what the scans of the level array gave: ``level.index(max(level))``, a
    walk of (d + 1) // 2 steps, the largest reached level, and the stable
    deepest-first sort of all vertex ids."""
    g = _min_degree_host(data.draw)
    if g.n == 0:
        return
    root = data.draw(st.integers(0, g.n - 1))
    level = _kernels.bfs_levels(g.nbrs, root)[0]
    assert bfs_layering(g, root).depth == max(l for l in level if l >= 0)
    assert eccentricity(g, root) == (math.inf if min(level) < 0
                                     else max(level))
    level0 = _kernels.bfs_levels(g.nbrs, 0)[0]
    sweep = _kernels.far_sweep(g.nbrs)
    if min(level0) < 0:
        assert sweep is None and min_eccentricity_root(g) == 0
        return
    assert sweep == _kernels.bfs_levels(g.nbrs, level0.index(max(level0)))
    level, parent, levels = sweep
    d = max(level)
    v = level.index(d)
    for _ in range((d + 1) // 2):
        v = parent[v]
    assert min_eccentricity_root(g) == v
    order = sorted(range(g.n), key=level.__getitem__, reverse=True)
    assert [v for vs in reversed(levels) for v in vs] == order
    with mock.patch.object(decomp, "_td_from_elimination",
                           wraps=decomp._td_from_elimination) as built:
        narrower_td(g)
    # min-degree's elimination, then the level order's if it ran to the end
    assert [c.args[0] for c in built.call_args_list[1:]] in ([], [order])


@PROPERTY
@given(st.data())
def test_band_back_map_matches_the_level_scan(data):
    """Every band of every mode and offset, on every component of a planar
    host (a triangulation cut to a random vertex set, so often disconnected,
    a grid or a wall; relabelled half the time), takes the host vertices
    whose level lies in its window, ascending: the scan of the level array
    that the merge of the window's level lists replaced."""
    kind = data.draw(st.sampled_from(["cut", "grid", "wall"]))
    if kind == "cut":
        e = random_planar_triangulation(data.draw(st.integers(3, 40)),
                                        data.draw(st.integers(0, 10**6)))
        keep = data.draw(st.sets(st.integers(0, e.n - 1), min_size=1))
        e = induced_embedded_subgraph(e, keep)[0]
    elif kind == "grid":
        e = grid(data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7)))
    else:
        e = wall(data.draw(st.integers(1, 3)))[1]
    if data.draw(st.booleans()):
        e = relabel_embedded(e, data.draw(st.permutations(range(e.n))))
    k = data.draw(st.integers(2, 4))
    for host, _back in band_hosts(e):
        level = host.layering.level
        for mode, offset in itertools.product(
                ["delete", "duplicate", "dominate"], range(k)):
            for sl in build_slices(host, k, offset, mode).slices:
                lo, hi = sl.window
                assert sl.back_map == [v for v in range(len(level))
                                       if lo <= level[v] <= hi]


# ---------------------------------------------------------------------------
# make_nice == its stored-bag reference


def _nice_input(draw) -> TreeDecomposition:
    """A random tree, star or path (sometimes one node) with random
    duplicate-free bags, some empty; the min-degree decomposition of a
    random graph; or the root-path decomposition of a grid or a
    triangulation from a random root."""
    kind = draw(st.sampled_from(["tree", "star", "path", "heuristic",
                                 "grid", "triangulation"]))
    if kind == "heuristic":
        n = draw(st.integers(0, 25))
        p = draw(st.floats(0.05, 0.6))
        return heuristic_td(build_graph(n, _random_graph(draw, n, p)))
    if kind in ("grid", "triangulation"):
        if kind == "grid":
            e = grid(draw(st.integers(1, 7)), draw(st.integers(1, 7)))
        else:
            e = random_planar_triangulation(draw(st.integers(3, 60)),
                                            draw(st.integers(0, 10**6)))
        return planar_bfs_td(e, draw(st.integers(0, e.n - 1)))
    nodes = draw(st.integers(1, 9))
    labels = draw(st.permutations(range(nodes)))
    tree_edges = []
    for i in range(1, nodes):
        if kind == "tree":
            parent = draw(st.integers(0, i - 1))
        else:
            parent = 0 if kind == "star" else i - 1
        a, b = labels[parent], labels[i]
        tree_edges.append((a, b) if draw(st.booleans()) else (b, a))
    bags = [tuple(sorted(draw(st.sets(st.integers(0, 7), max_size=5))))
            for _ in range(nodes)]
    return TreeDecomposition(nodes, tree_edges, bags)


def _assert_nice_matches_reference(td: TreeDecomposition) -> None:
    nd, ref = make_nice(td), reference_nice.make_nice(td)
    assert nd.kind == ref.kind
    assert nd.children == ref.children
    assert nd.vertex == ref.vertex
    assert nd.root == ref.root
    assert nd.bag is nd.bag                  # replayed once, then kept
    assert nd.bag == ref.bag


@PROPERTY
@given(st.data())
def test_make_nice_matches_stored_bag_reference(data):
    _assert_nice_matches_reference(_nice_input(data.draw))


def test_make_nice_matches_stored_bag_reference_on_every_band():
    for e in (grid(9, 11), random_planar_triangulation(120, 3)):
        host = band_host(e, 0)
        for k in (2, 3, 4):
            for offset in range(k):
                for sl in build_slices(host, k, offset, "delete").slices:
                    _assert_nice_matches_reference(sl.td)


# ---------------------------------------------------------------------------
# DP bag positions: bag-local, and table keys of machine size


def _table_keys(solve, nd, g) -> list:
    """Every key of every table that `solve` builds on nd, in build order;
    a witness that fails its check ends the run, not the test."""
    keys: list = []
    walk = dp._walk

    def spy(nd, start, introduce, forget, join):
        def kept(step):
            def run(*args):
                out = step(*args)
                keys.extend(out)
                return out
            return run
        return walk(nd, start, kept(introduce), kept(forget), kept(join))

    with mock.patch.object(dp, "_walk", spy):
        try:
            solve(nd, g)
        except SolutionCheckError:
            pass
    return keys


def _assert_positions_are_bag_local(nd, g) -> bool:
    """Replay `dp._positions` bottom-up: each bag's vertices hold distinct
    one-bit positions below width + 1, a forget takes back the position its
    vertex holds, a join's two children agree on their bag's positions, and
    an introduce's near mask is the positions of its vertex's bag
    neighbours.  A form that forgets some host vertex twice or never is
    refused instead, naming a vertex forgotten twice or else the lowest one
    never forgotten, and then one whose bags leave some host edge out,
    naming how many of the host edges (loops and parallels left out) they
    hold; False then."""
    forgets = Counter(v for kind, v in zip(nd.kind, nd.vertex) if kind == FORGET)
    twice = {f"nice decomposition forgets vertex {v} twice"
             for v, count in forgets.items() if count > 1}
    never = [f"nice decomposition never forgets vertex {v}"
             for v in range(g.n) if not forgets[v]]
    nbr = g.neighbor_sets()
    pairs = {uv for bag in nd.bag for uv in itertools.combinations(bag, 2)}
    edges = [(u, v) for u in range(g.n) for v in nbr[u] if u < v]
    covered = sum(uv in pairs for uv in edges)
    dropped = [f"nice decomposition bags hold {covered} of the {len(edges)} "
               "host edges"] if covered != len(edges) else []
    if twice or never or dropped:
        with pytest.raises(GraphInputError) as refusal:
            dp._positions(nd, g)
        assert str(refusal.value) in (twice or never[:1] or dropped)
        return False
    pos, near = dp._positions(nd, g)
    span = nd.width + 1
    held: list[dict[int, int]] = []          # per node, {vertex: position bit}
    for node, kind in enumerate(nd.kind):
        kids, v = nd.children[node], nd.vertex[node]
        at = dict(held[kids[0]]) if kids else {}
        if kind == JOIN:
            assert held[kids[1]] == at
        elif kind == INTRODUCE:
            assert near[node] == sum(at[u] for u in nbr[v] & at.keys())
            at[v] = pos[node]
        elif kind == FORGET:
            assert at.pop(v) == pos[node]
        assert sorted(at) == list(nd.bag[node])
        assert len(set(at.values())) == len(at)
        assert all(b.bit_count() == 1 and b.bit_length() <= span
                   for b in at.values())
        held.append(at)
    return True


# patterns whose twin classes hold several bag images at once: the 4-cycle
# (two pairs of opposite vertices) and the claw (a centre, three leaves)
KEY_PATTERNS = [build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
                build_graph(4, [(0, 1), (0, 2), (0, 3)])]


def _assert_table_keys_fit(nd, g) -> None:
    """Every MIS table key fits in width + 1 bits, every DS table key in
    2 (width + 1), and the image masks of every pattern table key fit in
    width + 1 bits and are pairwise disjoint."""
    span = nd.width + 1
    assert all(key.bit_length() <= span
               for key in _table_keys(dp_mis, nd, g))
    assert all(key.bit_length() <= 2 * span
               for key in _table_keys(dp_ds, nd, g))
    for h in KEY_PATTERNS:
        for _finished, masks in _table_keys(
                lambda nd, g: dp_subiso(nd, g, h), nd, g):
            union = 0
            for mask in masks:
                assert mask.bit_length() <= span and not mask & union
                union |= mask


@PROPERTY
@given(random_tree_decompositions())
def test_dp_positions_are_bag_local_on_random_bags(case):
    g, td = case
    if (len(td.bags) != td.nodes
            or any(not 0 <= v < g.n for bag in td.bags for v in bag)):
        return          # make_nice wants a bag per node, the DP host vertices
    try:
        nd = make_nice(td)
    except GraphInputError:
        return                          # not a tree
    if _assert_positions_are_bag_local(nd, g):
        _assert_table_keys_fit(nd, g)


@PROPERTY
@given(st.data())
def test_dp_positions_are_bag_local_on_nice_inputs(data):
    td = _nice_input(data.draw)
    n = 1 + max((v for bag in td.bags for v in bag), default=-1)
    g = build_graph(n, _random_graph(data.draw, n,
                                     data.draw(st.floats(0.1, 0.9))))
    nd = make_nice(td)
    if _assert_positions_are_bag_local(nd, g) and nd.width <= 6:
        _assert_table_keys_fit(nd, g)   # 3^w DS tables: wider ones are slow


@pytest.mark.parametrize("bags, tree_edges, n", [
    pytest.param([(0, 1), (1,), (0, 1)], [(0, 1), (1, 2)], 2,
                 id="vertex-in-two-subtrees"),
    pytest.param([(0, 1), (2,)], [(0, 1)], 3, id="edges-in-no-bag"),
    pytest.param([(0, 1)], [], 3, id="vertex-in-no-bag"),
    pytest.param([(0, 2), (1,), (0, 3), (2, 3)], [(0, 1), (1, 2), (1, 3)], 4,
                 id="two-subtrees-through-a-join")])
def test_dp_positions_are_bag_local_on_invalid_decompositions(bags,
                                                              tree_edges, n):
    td = TreeDecomposition(len(bags), tree_edges, bags)
    g = build_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
    nd = make_nice(td)
    if _assert_positions_are_bag_local(nd, g):
        _assert_table_keys_fit(nd, g)


# ---------------------------------------------------------------------------
# Malformed decompositions at the library entry points: a report or a typed
# error, nothing else

PATTERNS = [build_graph(2, [(0, 1)]), build_graph(2, []),
            build_graph(3, [(0, 1), (1, 2)]),
            build_graph(3, [(0, 1), (1, 2), (0, 2)])]


@st.composite
def damaged_nice(draw, nd: NiceDecomposition, n: int) -> NiceDecomposition:
    """nd with up to three random faults: a node's kind, child tuple, one
    child id or vertex replaced, the root moved, one entry dropped from one
    list, a node dropped from all three, or every node dropped."""
    kind, children, vertex = list(nd.kind), list(nd.children), list(nd.vertex)
    root = nd.root
    for _ in range(draw(st.integers(0, 3))):
        node_id = st.integers(-1, len(kind))
        fault = draw(st.sampled_from(["kind", "children", "child", "vertex",
                                      "root", "drop_entry", "drop_node",
                                      "empty"]))
        shortest = min(len(kind), len(children), len(vertex))
        at = draw(st.integers(0, shortest - 1)) if shortest else None
        if fault == "root":
            root = draw(node_id)
        elif fault == "empty":
            kind, children, vertex = [], [], []
        elif at is None:
            continue
        elif fault == "kind":
            kind[at] = draw(st.sampled_from([LEAF, INTRODUCE, FORGET, JOIN,
                                             "bogus"]))
        elif fault == "children":
            children[at] = tuple(draw(st.lists(node_id, max_size=3)))
        elif fault == "child" and children[at]:
            kids = list(children[at])
            kids[draw(st.integers(0, len(kids) - 1))] = draw(node_id)
            children[at] = tuple(kids)
        elif fault == "vertex":
            vertex[at] = draw(st.none() | st.integers(-1, n))
        elif fault == "drop_entry":
            draw(st.sampled_from([kind, children, vertex])).pop(at)
        elif fault == "drop_node":
            for fields in (kind, children, vertex):
                fields.pop(at)
    return NiceDecomposition(kind, children, vertex, root)


@PROPERTY
@given(random_tree_decompositions(), st.data())
def test_malformed_decompositions_get_a_report_or_a_typed_error(case, data):
    g, td = case
    assert isinstance(validate(td, g), ValidationReport)
    try:
        nd = make_nice(td)
    except GraphInputError:
        nd = make_nice(TreeDecomposition(1, [], [()]))
    nd = data.draw(damaged_nice(nd, g.n))
    h = data.draw(st.sampled_from(PATTERNS))
    induced = data.draw(st.booleans())
    for solve in (dp_mis, dp_vc, dp_ds,
                  lambda nd, g: dp_subiso(nd, g, h, induced)):
        try:
            solve(nd, g)
        except (GraphInputError, SolutionCheckError):
            pass
