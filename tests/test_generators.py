"""Graph family constructors: grids, apex, hexagon sets, walls, random
triangulations, toroidal grids, subdivision."""

import dataclasses

import pytest

import reference_generators
from shallowtd.generators import (apex_over_grid, grid, hex_distance,
                                  hex_set_graph, random_planar_triangulation,
                                  subdivide, toroidal_grid, wall)
from shallowtd.graph import (GraphInputError, bfs_layering, diameter,
                             emit_graph)


class TestGrid:
    def test_sizes(self):
        assert (grid(1, 1).graph.n, grid(1, 1).graph.m) == (1, 0)
        assert (grid(2, 2).graph.n, grid(2, 2).graph.m) == (4, 4)
        assert (grid(3, 3).graph.n, grid(3, 3).graph.m) == (9, 12)

    def test_planar(self):
        assert grid(2, 2).euler_genus == 0
        assert grid(5, 7).euler_genus == 0

    def test_zero_dimension(self):
        with pytest.raises(GraphInputError):
            grid(0, 3)


class TestApexOverGrid:
    def test_n3_counts(self):
        g = apex_over_grid(3)
        assert g.n == 10 and g.m == 21
        assert diameter(g) == 2

    def test_n1(self):
        g = apex_over_grid(1)
        assert g.n == 2 and g.m == 1 and diameter(g) == 1

    def test_diameter_two_for_all_small_n(self):
        for n in range(2, 11):
            assert diameter(apex_over_grid(n)) == 2, n

    def test_removing_apex_leaves_grid(self):
        g = apex_over_grid(4)
        apex = g.n - 1
        assert len(g.adj[apex]) == 16


class TestHexSetGraph:
    def test_single_hexagon(self):
        e = hex_set_graph([(0, 0)])
        assert e.graph.n == 6 and e.graph.m == 6 and e.euler_genus == 0

    def test_two_adjacent_hexagons(self):
        e = hex_set_graph([(0, 0), (1, 0)])
        assert e.graph.n == 10 and e.graph.m == 11
        assert len(e.faces) == 3

    def test_disconnected_rejected(self):
        with pytest.raises(GraphInputError):
            hex_set_graph([(0, 0), (2, 0)])


class TestWall:
    def test_hexagon_counts(self):
        for s, count in [(1, 1), (2, 7), (3, 19)]:
            spec, _ = wall(s)
            assert len(spec.hex_coords) == count, s
            assert count == 1 + 3 * s * (s - 1)

    def test_wall1_is_hexagon(self):
        _, e = wall(1)
        assert e.graph.n == 6 and e.graph.m == 6

    def test_wall2_counts(self):
        spec, e = wall(2)
        assert e.graph.n == 24 and e.graph.m == 30
        assert len(e.faces) == 8 and e.euler_genus == 0

    def test_max_degree_three(self):
        for s in (1, 2, 3, 4):
            _, e = wall(s)
            assert max(len(e.graph.adj[v]) for v in range(e.graph.n)) <= 3
            assert e.euler_genus == 0

    def test_wall2_one_inner_is_central_corners(self):
        spec, e = wall(2)
        inner = spec.t_inner(1)
        assert len(inner) == 6
        # the 1-inner vertices are exactly the corners of the central hexagon
        from shallowtd.generators import hexagon_corners
        corners = set(hexagon_corners((0, 0)))
        assert {spec.corner_points[v] for v in inner} == corners

    def test_inner_sets_nested(self):
        spec, _ = wall(3)
        assert spec.t_inner(1) <= spec.t_inner(2) <= spec.t_inner(3)

    def test_outer_vertices_on_boundary(self):
        spec, e = wall(2)
        outer = spec.outer_vertices()
        # boundary = the one face longer than a hexagon
        big = max(e.faces, key=len)
        boundary = {e.graph.edges[d >> 1][d & 1] for d in big}
        assert outer == boundary

    def test_zero_rejected(self):
        with pytest.raises(GraphInputError):
            wall(0)


class TestRandomTriangulation:
    def test_n3(self):
        e = random_planar_triangulation(3, 0)
        assert e.graph.n == 3 and e.graph.m == 3

    def test_n10_seed7(self):
        e = random_planar_triangulation(10, 7)
        assert e.euler_genus == 0
        assert all(len(f) == 3 for f in e.faces)
        assert e.graph.m == 3 * e.graph.n - 6

    def test_deterministic(self):
        a = random_planar_triangulation(20, 3)
        b = random_planar_triangulation(20, 3)
        assert a.graph.edges == b.graph.edges and a.rotation == b.rotation

    def test_too_small(self):
        with pytest.raises(GraphInputError):
            random_planar_triangulation(2, 0)


class TestToroidalGrid:
    def test_3x3(self):
        e = toroidal_grid(3, 3)
        assert (e.graph.n, e.graph.m, len(e.faces), e.euler_genus) == (9, 18, 9, 1)
        assert diameter(e.graph) == 2

    def test_4x4_genus(self):
        assert toroidal_grid(4, 4).euler_genus == 1

    def test_small_rejected(self):
        with pytest.raises(GraphInputError):
            toroidal_grid(2, 5)


class TestSubdivide:
    def test_identity(self):
        e = grid(2, 3)
        s = subdivide(e, 1)
        assert s.graph.n == e.graph.n and s.graph.m == e.graph.m

    def test_factor_two(self):
        e = grid(2, 2)
        s = subdivide(e, 2)
        assert s.graph.n == 4 + 4 and s.graph.m == 8
        assert s.euler_genus == 0

    def test_wall_subdivision_planar_degree3(self):
        _, e = wall(2)
        s = subdivide(e, 3)
        assert s.euler_genus == 0
        assert max(len(s.graph.adj[v]) for v in range(s.graph.n)) == 3


class TestAgainstReference:
    """Same edge ids and rotation order as the per-family constructors in
    ``reference_generators``; the tests above check only counts, genus and
    distances."""

    def test_grids(self):
        for rows in range(1, 9):
            for cols in range(1, 9):
                ref = reference_generators.grid(rows, cols)
                assert emit_graph(grid(rows, cols)) == emit_graph(ref), (rows, cols)

    def test_tori(self):
        for rows in range(3, 9):
            for cols in range(3, 9):
                ref = reference_generators.toroidal_grid(rows, cols)
                assert emit_graph(toroidal_grid(rows, cols)) == emit_graph(ref), (rows, cols)

    def test_walls(self):
        for s in range(1, 13):
            spec, e = wall(s)
            ref_spec, ref_e = reference_generators.wall(s)
            assert emit_graph(e) == emit_graph(ref_e), s
            assert dataclasses.asdict(spec) == dataclasses.asdict(ref_spec), s
