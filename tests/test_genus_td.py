"""Cut graphs on positive-genus surfaces and the contraction pipeline."""

import dataclasses
import importlib

import pytest

from shallowtd import _kernels
from shallowtd.decomp import TreeDecomposition, validate
from shallowtd.generators import grid, toroidal_grid
from shallowtd.genus_td import (CutGraph, GenusPipelineError,
                                contract_cut_graph, cut_graph, genus_td)
from shallowtd.graph import EmbeddingError, bfs_layering, build_graph, embed


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


class TestContractionChecks:
    """Hand-built cut graphs on the 4x4 torus, rooted at 0, that each fail
    one check of ``contract_cut_graph``."""

    E = toroidal_grid(4, 4)

    @classmethod
    def x(cls, path, extra=()):
        edges = cls.E.graph.edges
        x_edges = [next(i for i, uv in enumerate(edges) if set(uv) == {a, b})
                   for a, b in zip(path, path[1:])]
        return CutGraph(host=cls.E, root=0,
                        x_vertices=tuple(sorted({*path, *extra})),
                        x_edges=tuple(sorted(x_edges)), leftover_edges=(),
                        depth=4)

    @pytest.mark.parametrize("path, extra, message", [
        ((0, 1, 5, 4, 0), (), r"several walks \(4 of 8 darts on one\)"),
        ((0, 1, 2), (10,), "boundary walk covered 8 darts, expected 12"),
        ((0, 1, 2), (), "contracting the cut graph left genus 1, expected 0"),
    ])
    def test_broken_cut_graph_is_refused(self, path, extra, message):
        # a contractible cycle has two faces; a vertex with no X edge adds
        # darts that no corner of the walk reaches; a path cuts no handle
        with pytest.raises(GenusPipelineError, match=message):
            contract_cut_graph(self.x(path, extra))

    def test_cut_graph_without_a_leftover_edge_is_refused(self):
        cg = cut_graph(self.E, 0)
        assert cg.leftover_edges == (4, 21)
        broken = dataclasses.replace(
            cg, x_edges=tuple(x for x in cg.x_edges if x != 4))
        with pytest.raises(GenusPipelineError,
                           match=r"several walks \(10 of 14 darts on one\)"):
            contract_cut_graph(broken)


class TestGenusTd:
    def test_torus_family(self):
        for r in (3, 4, 5):
            for c in (3, 4, 5):
                e = toroidal_grid(r, c)
                assert e.euler_genus == 1
                cg = cut_graph(e, 0)
                td, bound = genus_td(e, 0)
                depth = bfs_layering(e.graph, 0).depth
                assert validate(td, e.graph).valid
                assert bound == 3 * (depth + 1) + len(cg.x_vertices)
                assert td.width <= bound

    def test_x_adjoined_to_every_bag(self):
        e = toroidal_grid(3, 4)
        cg = cut_graph(e, 0)
        td, _ = genus_td(e, 0)
        xs = set(cg.x_vertices)
        assert all(xs <= set(bag) for bag in td.bags)

    def test_single_vertex(self):
        e = embed(build_graph(1, []), [[]])
        td, bound = genus_td(e, 0)
        assert td.bags == [(0,)] and td.tree_edges == []
        assert validate(td, e.graph).valid and td.width <= bound

    def test_planar_reduction(self):
        e = grid(4, 4)
        td, _ = genus_td(e, 0)
        depth = bfs_layering(e.graph, 0).depth
        assert validate(td, e.graph).valid
        assert td.width <= 3 * depth + 1

    def test_widened_lifted_bag_fails_the_width_check(self, monkeypatch):
        # Any bag the kernel widens fails the planar check on the contracted
        # graph first (lifting adds at most |X| - 1 vertices to a bag of
        # width <= 3 * depth), so widen the decomposition genus_td lifts.
        e = toroidal_grid(10, 10)
        genus_module = importlib.import_module("shallowtd.genus_td")
        honest = genus_module.planar_bfs_td

        def widened(contracted, root):
            td = honest(contracted, root)
            bags = [tuple(range(contracted.graph.n))] + td.bags[1:]
            return TreeDecomposition(td.nodes, td.tree_edges, bags)

        monkeypatch.setattr(genus_module, "planar_bfs_td", widened)
        with pytest.raises(GenusPipelineError, match="width 99 > 3"):
            genus_td(e, 0)

    def test_widened_kernel_bag_is_caught(self, monkeypatch):
        honest = _kernels.three_path_bags

        def widened(parent, corners):
            bags = honest(parent, corners)
            bags[0] = tuple(range(len(parent)))
            return bags

        monkeypatch.setattr(_kernels, "three_path_bags", widened)
        with pytest.raises(EmbeddingError, match="width"):
            genus_td(toroidal_grid(10, 10), 0)
