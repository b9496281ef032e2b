"""Cut graphs on positive-genus surfaces and the contraction pipeline."""

import pytest

from shallowtd.decomp import validate
from shallowtd.generators import grid, toroidal_grid
from shallowtd.genus_td import (GenusPipelineError, contract_cut_graph,
                                cut_graph, genus_td)
from shallowtd.graph import bfs_layering


class TestCutGraph:
    def test_planar_trivial(self):
        e = grid(3, 3)
        cg = cut_graph(e, 0)
        assert cg.leftover_edges == ()
        assert cg.x_vertices == (0,) and cg.x_edges == ()

    def test_torus_leftover_count(self):
        e = toroidal_grid(3, 3)
        cg = cut_graph(e, 0)
        assert len(cg.leftover_edges) == 2 == 2 * e.euler_genus

    def test_x_size_bound(self):
        for r, c in [(3, 3), (3, 4), (4, 4), (4, 5), (5, 5)]:
            e = toroidal_grid(r, c)
            for root in (0, r * c // 2):
                cg = cut_graph(e, root)
                depth = bfs_layering(e.graph, root).depth
                assert len(cg.x_vertices) <= 2 * (2 * depth + 1) + 1

    def test_root_paths_short(self):
        e = toroidal_grid(4, 4)
        cg = cut_graph(e, 0)
        lay = bfs_layering(e.graph, 0)
        assert all(lay.level[v] <= lay.depth for v in cg.x_vertices)


class TestContractCutGraph:
    def test_torus_lands_on_sphere(self):
        for r, c in [(3, 3), (3, 4), (4, 4)]:
            e = toroidal_grid(r, c)
            cg = cut_graph(e, 0)
            contracted, vmap = contract_cut_graph(cg)
            assert contracted.euler_genus == 0
            assert len({vmap[v] for v in cg.x_vertices}) == 1
            assert contracted.graph.n == e.graph.n - len(cg.x_vertices) + 1

    def test_planar_identity_shape(self):
        e = grid(3, 3)
        cg = cut_graph(e, 0)
        contracted, vmap = contract_cut_graph(cg)
        assert contracted.euler_genus == 0
        assert contracted.graph.n == e.graph.n


class TestGenusTd:
    def test_torus_family(self):
        for r in (3, 4, 5):
            for c in (3, 4, 5):
                e = toroidal_grid(r, c)
                assert e.euler_genus == 1
                cg = cut_graph(e, 0)
                td = genus_td(e, 0)
                depth = bfs_layering(e.graph, 0).depth
                assert validate(td, e.graph).valid
                assert td.width <= 3 * (depth + 1) + len(cg.x_vertices)

    def test_x_adjoined_to_every_bag(self):
        e = toroidal_grid(3, 4)
        cg = cut_graph(e, 0)
        td = genus_td(e, 0)
        xs = set(cg.x_vertices)
        assert all(xs <= set(bag) for bag in td.bags)

    def test_planar_reduction(self):
        e = grid(4, 4)
        td = genus_td(e, 0)
        depth = bfs_layering(e.graph, 0).depth
        assert validate(td, e.graph).valid
        assert td.width <= 3 * depth + 1
