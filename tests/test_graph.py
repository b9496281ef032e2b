"""Core graph type, BFS, embeddings, minors, triangulation, text format."""

import dataclasses
from unittest import mock

import pytest

import reference_triangulate
from conftest import (DIGON, assert_triangulation_matches, complete_graph,
                      cycle_graph, embed_outerplanar, path_graph,
                      rotation_from_faces, star_graph)
from shallowtd import graph
from shallowtd.generators import (grid, random_planar_triangulation,
                                  toroidal_grid, wall)
from shallowtd.graph import (MAX_VERTICES, EmbeddingError, GraphInputError,
                             bfs_layering, build_graph, component_labels,
                             connected_components, contract_connected_set,
                             diameter, embed, emit_graph,
                             induced_embedded_subgraph, is_connected,
                             parse_graph, planar_is_connected,
                             simple_embedding, triangulate)
from shallowtd.planar_td import tree_cotree


class TestBuildGraph:
    def test_triangle(self, triangle):
        assert triangle.n == 3 and triangle.m == 3

    def test_isolated_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.m == 0

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphInputError):
            build_graph(2, [(0, 3)])

    def test_adjacency_consistency(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        incidences = sum(len(g.nbrs[v]) for v in range(g.n))
        assert incidences == 2 * g.m
        # a loop at 1 and a parallel edge 0-2: each other end in edge-id
        # order, the loop's vertex and the parallel neighbour twice
        g = build_graph(4, [(0, 2), (1, 1), (2, 1), (2, 0), (3, 2)])
        assert g.nbrs == [[2, 2], [1, 1, 2], [0, 1, 0, 3], [2]]
        derived = [[] for _ in range(g.n)]
        for u, v in g.edges:
            derived[u].append(v)
            derived[v].append(u)
        assert g.nbrs == derived
        assert g.neighbor_sets() == [{2}, {2}, {0, 1, 3}, {2}]


class TestEmbedding:
    def test_c6_planar(self):
        e = embed_outerplanar(cycle_graph(6))
        assert len(e.faces) == 2 and e.euler_genus == 0

    def test_toroidal_3x3(self):
        e = toroidal_grid(3, 3)
        assert (e.graph.n, e.graph.m, len(e.faces)) == (9, 18, 9)
        assert e.euler_genus == 1

    def test_k4_planar_rotation(self):
        g = complete_graph(4)
        # edges: 01 02 03 12 13 23 -> ids 0..5
        rot = [[0, 2, 4], [1, 8, 6], [3, 7, 10], [5, 11, 9]]
        e = embed(g, rot)
        assert len(e.faces) == 4 and e.euler_genus == 0

    def test_face_lengths_sum_to_2m(self):
        for e in (grid(3, 4), toroidal_grid(3, 4)):
            assert sum(len(f) for f in e.faces) == 2 * e.graph.m

    def test_genus_adds_over_interleaved_components(self):
        # two tori and a triangle, their vertices interleaved: each
        # component counts its own edges, faces and vertices
        parts = [toroidal_grid(3, 3), toroidal_grid(3, 4),
                 embed_outerplanar(cycle_graph(3))]
        n = sum(e.graph.n for e in parts)
        label = list(range(0, n, 2)) + list(range(1, n, 2))
        edges, rotation, base, darts = [], [None] * n, 0, 0
        for e in parts:
            edges += [(label[base + u], label[base + v])
                      for u, v in e.graph.edges]
            for v, cyc in enumerate(e.rotation):
                rotation[label[base + v]] = [darts + d for d in cyc]
            base, darts = base + e.graph.n, darts + 2 * e.graph.m
        e = embed(build_graph(n, edges), rotation)
        assert e.euler_genus == 2

    def test_bad_rotation_rejected(self):
        g = cycle_graph(3)
        with pytest.raises(EmbeddingError):
            embed(g, [[0, 5], [1, 2], [3, 3]])  # dart 3 twice, dart 4 missing


class TestBfsAndDiameter:
    def test_triangle_from_zero(self, triangle):
        lay = bfs_layering(triangle, 0)
        assert lay.level == [0, 1, 1] and lay.depth == 1

    def test_path_end(self):
        assert bfs_layering(path_graph(4), 0).depth == 3

    def test_grid_corner_depth(self):
        assert bfs_layering(grid(3, 3).graph, 0).depth == 4

    def test_parent_is_lowest_neighbor(self):
        g = build_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        lay = bfs_layering(g, 0)
        assert lay.parent[3] == 1

    def test_levels_are_distances(self):
        g = grid(4, 5).graph
        lay = bfs_layering(g, 7)
        # reference: repeated relaxation (independent of the kernel)
        dist = {7: 0}
        frontier = [7]
        while frontier:
            nxt = []
            for v in frontier:
                for u in g.nbrs[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        assert [dist[v] for v in range(g.n)] == list(lay.level)

    def test_layering_reads_no_edge(self):
        # the BFS reads the adjacency only; the tree's edges are picked by
        # planar_td.tree_cotree, which does read them
        reads = []

        class CountingList(list):
            def __iter__(self):
                reads.append("iter")
                return super().__iter__()

            def __getitem__(self, i):
                reads.append(i)
                return super().__getitem__(i)

        e = grid(4, 5)
        g = graph.Graph(n=e.n, edges=CountingList(e.graph.edges),
                        nbrs=e.graph.nbrs)
        lay = bfs_layering(g, 7)
        assert reads == []
        assert lay == bfs_layering(e.graph, 7)
        tree_cotree(g, e.faces, lay)
        assert reads

    def test_diameter(self, triangle):
        assert diameter(cycle_graph(6)) == 3
        assert diameter(build_graph(1, [])) == 0
        assert diameter(build_graph(2, [])) == float("inf")


class TestMinorOps:
    def test_contract_triangle_pair(self):
        e = embed_outerplanar(cycle_graph(3))
        c, vmap = contract_connected_set(e, {0, 1})
        assert c.graph.n == 2 and c.graph.m == 1 and c.euler_genus == 0
        assert vmap[0] == vmap[1] != vmap[2]

    def test_contract_grid_row(self):
        e = grid(3, 3)
        c, _ = contract_connected_set(e, {0, 1, 2})
        assert c.graph.n == 7 and c.euler_genus == 0
        assert embed(c.graph, c.rotation).euler_genus == 0

    def test_contract_disconnected_set_rejected(self):
        with pytest.raises(GraphInputError):
            contract_connected_set(embed_outerplanar(path_graph(4)), {0, 3})

    def test_contract_nonplanar_rejected(self):
        with pytest.raises(EmbeddingError):
            contract_connected_set(toroidal_grid(3, 3), {0, 1})

    def test_induced_subgraph_on_every_vertex_is_the_host(self):
        e = grid(3, 4)
        sub, keep = induced_embedded_subgraph(e, reversed(range(e.n)))
        assert sub is e and keep == list(range(e.n))

    @pytest.mark.parametrize("keep, bad", [
        pytest.param([*range(11), 12], 12, id="n-ids-the-last-past-the-host"),
        pytest.param([-1, 0, 1], -1, id="negative")])
    def test_induced_subgraph_refuses_an_outside_id(self, keep, bad):
        # grid(3, 4) has 12 vertices; a negative id would wrap in a list
        with pytest.raises(GraphInputError, match=f"vertex {bad} out of range"):
            induced_embedded_subgraph(grid(3, 4), keep)

    def test_induced_proper_subgraph_is_reembedded(self):
        e = grid(3, 4)
        sub, keep = induced_embedded_subgraph(e, range(1, e.n))
        assert sub is not e and keep == list(range(1, e.n))
        assert (sub.n, sub.m, sub.euler_genus) == (e.n - 1, e.m - 2, 0)
        assert embed(sub.graph, sub.rotation).faces == sub.faces

    def test_contraction_never_increases_distance(self):
        e = grid(3, 3)
        c, vmap = contract_connected_set(e, {0, 1})
        for u in range(e.graph.n):
            for v in range(e.graph.n):
                if vmap[u] == vmap[v]:
                    continue
                du = bfs_layering(e.graph, u).level[v]
                dc = bfs_layering(c.graph, vmap[u]).level[vmap[v]]
                assert dc <= du


class TestTriangulate:
    def test_c4(self):
        g, faces = triangulate(embed_outerplanar(cycle_graph(4)))
        assert g.n == 4 and g.m == 6
        assert all(len(f) == 3 for f in faces)

    def test_c6(self):
        g, faces = triangulate(embed_outerplanar(cycle_graph(6)))
        assert all(len(f) == 3 for f in faces)
        assert embed(g, rotation_from_faces(g, faces)).euler_genus == 0

    def test_k4_unchanged(self):
        g = complete_graph(4)
        rot = [[0, 2, 4], [1, 8, 6], [3, 7, 10], [5, 11, 9]]
        t, faces = triangulate(embed(g, rot))
        assert t.m == 6 and faces == embed(g, rot).faces

    def test_preserves_original_edges(self):
        e = grid(3, 4)
        g, faces = triangulate(e)
        assert g.edges[:e.graph.m] == e.graph.edges
        assert embed(g, rotation_from_faces(g, faces)).euler_genus == 0

    def test_reads_no_rotation(self):
        # the faces and the graph are all it reads
        for e in (grid(3, 4), embed_outerplanar(path_graph(5)),
                  embed_outerplanar(star_graph(4)), wall(2)[1],
                  random_planar_triangulation(20, 1)):
            assert (triangulate(dataclasses.replace(e, rotation=None))
                    == triangulate(e))

    @pytest.mark.parametrize("g, chords", [
        (cycle_graph(4), [(0, 2), (0, 2)]),
        (path_graph(4), [(0, 2), (0, 3), (0, 2)]),
        (star_graph(3), [(1, 2), (1, 0), (1, 3)]),
    ])
    def test_cuts_first_valid_ear(self, g, chords):
        # each scan from the last cut takes the first valid ear, even when
        # its chord doubles an edge
        e = embed_outerplanar(g)
        t, faces = triangulate(e)
        assert t.edges[g.m:] == chords
        assert_triangulation_matches(t, faces,
                                     reference_triangulate.triangulate(e))

    def test_nonplanar_rejected(self):
        with pytest.raises(EmbeddingError, match="planar embedding"):
            triangulate(toroidal_grid(3, 3))

    @pytest.mark.parametrize("g", [
        build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        build_graph(4, [(0, 1), (1, 2), (2, 0)]),
        build_graph(3, []),
        build_graph(2, []),
    ])
    def test_disconnected_rejected(self, g):
        with pytest.raises(GraphInputError, match="connected"):
            triangulate(embed_outerplanar(g))

    @pytest.mark.parametrize("g", [build_graph(0, []), build_graph(1, []),
                                   path_graph(2)])
    def test_fewer_than_three_vertices_rejected(self, g):
        with pytest.raises(GraphInputError, match="at least 3 vertices"):
            triangulate(embed_outerplanar(g))

    def test_two_dart_face_rejected(self):
        e = parse_graph(DIGON)
        assert e.euler_genus == 0 and [0, 3] in e.faces
        with pytest.raises(EmbeddingError, match="fewer than 3 darts"):
            triangulate(e)


class TestTextFormat:
    def test_roundtrip_plain(self):
        g = star_graph(4)
        g2 = parse_graph(emit_graph(g))
        assert g2.n == g.n and g2.edges == g.edges

    def test_roundtrip_embedded(self):
        e = grid(3, 3)
        e2 = parse_graph(emit_graph(e))
        assert e2.rotation == e.rotation and e2.euler_genus == 0

    def test_comments_and_errors(self):
        g = parse_graph("# hello\nv 2\ne 0 1\n")
        assert g.n == 2 and g.m == 1
        with pytest.raises(GraphInputError):
            parse_graph("e 0 1\n")
        with pytest.raises(GraphInputError):
            parse_graph("v 2\nq nonsense\n")
        with pytest.raises(GraphInputError, match="self-loop"):
            parse_graph("v 2\ne 0 0\ne 0 1\n")

    # grid(2, 2) is 9 lines, so the appended rot line is line 10
    @pytest.mark.parametrize("extra, message", [
        ("rot 9 0\n", "line 10: rot line for vertex 9, outside"),
        ("rot -1 0\n", "line 10: rot line for vertex -1, outside"),
        ("rot 4\n", "line 10: rot line for vertex 4, outside"),
        ("rot 0 2 0\n", "line 10: duplicate rot line for vertex 0")])
    def test_stray_and_duplicate_rot_lines(self, extra, message):
        with pytest.raises(GraphInputError, match=message):
            parse_graph(emit_graph(grid(2, 2)) + extra)

    def test_rot_line_before_v_line_names_its_line(self):
        with pytest.raises(GraphInputError, match="line 1: rot line for "
                                                  "vertex 2, outside"):
            parse_graph("rot 2\nv 2\ne 0 1\nrot 0 0\nrot 1 1\n")

    @pytest.mark.parametrize("text, message", [
        ("v x\n", "line 1: a field of 'v x' is not an integer"),
        ("v 2\n\ne 0 y # comment\n",
         "line 3: a field of 'e 0 y # comment' is not an integer"),
        ("v 2\ne 0 1\nrot 0 0\nrot 1 1.0\n",
         "line 4: a field of 'rot 1 1.0' is not an integer"),
        # a line of the wrong shape is reported as before
        ("v 2\ne 0 x y\n", "line 2: cannot parse 'e 0 x y'")])
    def test_non_integer_field_names_its_line(self, text, message):
        with pytest.raises(GraphInputError, match=message):
            parse_graph(text)

    # several faults on different lines and keywords: the first in file
    # order is named, in blocks of one line, two lines and the full size
    @pytest.mark.parametrize("block", [1, 2, graph.BLOCK_LINES])
    @pytest.mark.parametrize("text, message", [
        ("v 2\ne 0 1\nrot 0 x\ne 0 y\n",
         "line 3: a field of 'rot 0 x' is not an integer"),
        ("v 2\ne 0 y\nrot 0 x\n",
         "line 2: a field of 'e 0 y' is not an integer"),
        ("v 2\ne 0 0\ne 0 x\n", "line 2: self-loop at vertex 0"),
        ("v 2\ne 0 x\ne 0 0\n",
         "line 2: a field of 'e 0 x' is not an integer"),
        ("v 2\ne 1 1\nq 0\ne 0 x\n", "line 2: self-loop at vertex 1"),
        ("v 2\ne 0 x\nq 0\n",
         "line 2: a field of 'e 0 x' is not an integer"),
        ("v 2\nrot 0 0\ne 0 x y\nrot 0 1\n", "line 3: cannot parse"),
        ("v 2\nrot 0 0\nrot 0 1\ne 0 x y\n",
         "line 3: duplicate rot line for vertex 0"),
        ("v 2\ne 0 1\nv 3\nrot 1 x\n", "line 3: duplicate v line"),
        ("e 0 1\n\n# c\nv 2 # c\nv 2\n", "line 5: duplicate v line")])
    def test_first_faulty_line_is_named(self, block, text, message):
        with mock.patch.object(graph, "BLOCK_LINES", block):
            with pytest.raises(GraphInputError, match=message):
                parse_graph(text)

    def test_vertex_budget(self):
        assert parse_graph(f"v {MAX_VERTICES}\n").n == MAX_VERTICES
        with pytest.raises(GraphInputError,
                           match=f"line 2: {MAX_VERTICES + 1} vertices exceed "
                                 f"the budget of {MAX_VERTICES}"):
            parse_graph(f"# too big\nv {MAX_VERTICES + 1}\ne 0 1\n")


class TestSimpleEmbedding:
    def test_simple_host_is_returned_as_is(self):
        e = grid(3, 3)
        assert simple_embedding(e) is e

    def test_later_parallel_edge_is_dropped(self):
        e = simple_embedding(parse_graph(DIGON))
        assert e.graph.edges == [(0, 1), (1, 2)]
        assert e.rotation == [[0], [1, 2], [3]]
        assert e.euler_genus == 0 and e.faces == [[0, 2, 3, 1]]


def test_components_are_numbered_by_their_lowest_vertex():
    g = build_graph(7, [(5, 6), (1, 3), (3, 0)])
    assert component_labels(g) == ([0, 0, 1, 0, 2, 3, 3], [3, 1, 1, 2])
    assert connected_components(g) == [[0, 1, 3], [2], [4], [5, 6]]


@pytest.mark.parametrize("e", [
    *map(embed_outerplanar, [
        build_graph(0, []), build_graph(1, []), build_graph(2, []),
        build_graph(3, []), path_graph(2), build_graph(3, [(0, 1)]),
        build_graph(4, [(0, 1), (2, 3)]),
        build_graph(4, [(0, 1), (1, 2), (2, 0)]),
        star_graph(4), cycle_graph(5)]),
    grid(4, 4),
])
def test_planar_is_connected_matches_walk(e):
    # the O(1) Euler count agrees with a graph walk on genus-0 embeddings
    assert e.euler_genus == 0
    assert planar_is_connected(e) == is_connected(e.graph)
