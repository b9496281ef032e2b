"""BFS-tree planar decompositions, level-band slices, tree-cotree partition."""

import random

import pytest

from conftest import DIGON, cycle_graph, embed_outerplanar, path_graph
from shallowtd import _kernels, graph, planar_td
from shallowtd.baker import ptas_ds, ptas_mis, ptas_vc
from shallowtd.decomp import TreeDecomposition, narrower_td, validate
from shallowtd.dp import subiso_driver
from shallowtd.generators import (grid, random_planar_triangulation,
                                  toroidal_grid, wall)
from shallowtd.genus_td import cut_graph, genus_td
from shallowtd.graph import (EmbeddingError, GraphInputError, bfs_layering,
                             build_graph, embed, parse_graph, triangulate)
from shallowtd.planar_td import (band_host, band_hosts, level_windows,
                                 min_eccentricity_root, planar_bfs_td,
                                 restrict_td, slice_td, tree_cotree)


class TestTreeCotree:
    def test_partition_on_planar(self):
        e = triangulate(grid(3, 3))
        lay = bfs_layering(e.graph, 0)
        pair = tree_cotree(e, lay)
        tree_edges = {pe for pe in lay.parent_edge if pe >= 0}
        crossed = {eid for eid in pair.dual_parent_edge if eid >= 0}
        leftover = set(pair.leftover_edges)
        assert not leftover
        assert tree_edges | crossed == set(range(e.graph.m))
        assert not (tree_edges & crossed)


class TestPlanarBfsTd:
    def test_single_vertex(self):
        e = embed(build_graph(1, []), [[]])
        td = planar_bfs_td(e, 0)
        assert td.width == 0 and validate(td, e.graph).valid

    def test_c6_any_root(self):
        e = embed_outerplanar(cycle_graph(6))
        for root in range(6):
            td = planar_bfs_td(e, root)
            assert validate(td, e.graph).valid
            assert td.width <= 9

    def test_grid44_bounds(self):
        e = grid(4, 4)
        td = planar_bfs_td(e, 0)
        lay = bfs_layering(e.graph, 0)
        assert lay.depth == 6
        assert validate(td, e.graph).valid
        assert td.width <= 3 * lay.depth
        # the 4x4 grid has treewidth 4, so no decomposition can be narrower
        assert td.width >= 4

    def test_width_bound_over_corpus(self):
        cases = [grid(3, 5), grid(5, 5), wall(2)[1], wall(3)[1],
                 random_planar_triangulation(40, 1),
                 random_planar_triangulation(60, 2)]
        for e in cases:
            for root in {0, e.graph.n // 2, e.graph.n - 1}:
                td = planar_bfs_td(e, root)
                depth = bfs_layering(e.graph, root).depth
                assert validate(td, e.graph).valid
                assert td.width <= 3 * max(depth, 1)

    def test_bag_is_three_root_paths(self):
        e = grid(5, 5)
        td = planar_bfs_td(e, 0)
        depth = bfs_layering(e.graph, 0).depth
        assert all(len(b) <= 3 * depth + 1 for b in td.bags)

    def test_widened_bag_fails_the_width_check(self, monkeypatch):
        e = grid(5, 5)
        honest = _kernels.three_path_bags

        def widened(parent, corners):
            bags = honest(parent, corners)
            bags[0] = tuple(range(len(parent)))
            return bags

        monkeypatch.setattr(_kernels, "three_path_bags", widened)
        with pytest.raises(EmbeddingError, match="width 24 > 3 \\* depth"):
            planar_bfs_td(e, 12)

    def test_nonplanar_rejected(self):
        from shallowtd.generators import toroidal_grid
        with pytest.raises(EmbeddingError):
            planar_bfs_td(toroidal_grid(3, 3), 0)

    def test_band_host_of_a_two_dart_face_is_simple(self):
        # its layering, triangulation and graph share the simple edge ids
        host = band_host(parse_graph(DIGON), 0)
        assert host.graph.edges == [(0, 1), (1, 2)]
        assert host.layering.parent_edge == [-1, 0, 1]
        assert validate(host.td, host.graph).valid


class TestBandHosts:
    def test_connected_host_is_not_reembedded(self, monkeypatch):
        e = grid(5, 5)
        calls = []
        monkeypatch.setattr(graph, "embed",
                            lambda *args: calls.append(args) or embed(*args))
        [(host, back)] = band_hosts(e)
        assert host.graph is e.graph and back == list(range(e.n))
        assert calls == []

    def test_each_component_is_reembedded(self):
        e = embed_outerplanar(build_graph(5, [(0, 1), (1, 2), (3, 4)]))
        hosts = list(band_hosts(e))
        assert [back for _, back in hosts] == [[0, 1, 2], [3, 4]]
        assert [h.graph.edges for h, _ in hosts] == [[(0, 1), (1, 2)],
                                                      [(0, 1)]]


class TestSliceTd:
    def test_full_range(self):
        e = grid(4, 4)
        host = band_host(e, 0)
        lay = host.layering
        sd = slice_td(host, 0, lay.depth)
        assert sd.graph.n == e.graph.n
        assert validate(sd.td, sd.graph).valid
        assert sd.td.width <= 3 * (lay.depth + 1) - 1

    def test_middle_band(self):
        e = grid(6, 6)
        host = band_host(e, 0)
        lay = host.layering
        sd = slice_td(host, 2, 4)
        assert validate(sd.td, sd.graph).valid
        assert sd.td.width <= 8
        assert all(2 <= lay.level[sd.back_map[v]] <= 4
                   for v in range(sd.graph.n))
        assert sd.graph.n == sum(2 <= l <= 4 for l in lay.level)

    def test_outermost_level(self):
        e = grid(6, 6)
        host = band_host(e, 0)
        lay = host.layering
        sd = slice_td(host, lay.depth, lay.depth)
        assert validate(sd.td, sd.graph).valid
        assert sd.td.width <= 2

    def test_bad_range(self):
        host = band_host(grid(3, 3), 0)
        with pytest.raises(GraphInputError):
            slice_td(host, 2, 1)
        with pytest.raises(GraphInputError):
            slice_td(host, 0, host.layering.depth + 1)

    def test_slice_edges_covered(self):
        e = random_planar_triangulation(50, 9)
        host = band_host(e, 0)
        lay = host.layering
        for lo, hi in [(0, 1), (1, 2), (1, lay.depth)]:
            if hi > lay.depth:
                continue
            sd = slice_td(host, lo, hi)
            assert validate(sd.td, sd.graph).valid
            assert sd.td.width <= 3 * (hi - lo + 1) - 1


def _one_bag(n: int) -> TreeDecomposition:
    return TreeDecomposition(nodes=1, tree_edges=[], bags=[tuple(range(n))])


class TestBandDecomposition:
    def test_wide_min_degree_falls_back_to_the_host_restriction(
            self, monkeypatch):
        # one bag of the whole band is within the bound only on small bands
        built = []

        def counted(tri, lay):
            built.append(tri)
            return root_path_td(tri, lay)

        root_path_td = planar_td._root_path_td
        monkeypatch.setattr(planar_td, "heuristic_td", lambda g: _one_bag(g.n))
        monkeypatch.setattr(planar_td, "_root_path_td", counted)
        host = band_host(random_planar_triangulation(60, 3), 0)
        fallbacks = 0
        for k in (2, 3, 4):
            for lo, hi, _core in level_windows(host.layering.depth, k, 0,
                                               "duplicate"):
                sl = slice_td(host, lo, hi)
                bound = 3 * (hi - lo + 1) - 1
                if sl.graph.n - 1 > bound:
                    fallbacks += 1
                    assert sl.td == restrict_td(host.td, sl.back_map)
                else:
                    assert sl.td == _one_bag(sl.graph.n)
                assert sl.td.width <= bound
                assert validate(sl.td, sl.graph).valid
        assert fallbacks > 0
        assert len(built) == 1          # once per host, on first need

    def test_band_wider_than_its_bound_is_refused(self, monkeypatch):
        monkeypatch.setattr(planar_td, "heuristic_td", lambda g: _one_bag(g.n))
        monkeypatch.setattr(planar_td, "_root_path_td",
                            lambda tri, lay: _one_bag(len(lay.level)))
        host = band_host(grid(6, 6), 0)
        assert slice_td(host, 0, 1).td.width == 2       # 3 vertices, bound 5
        with pytest.raises(EmbeddingError, match=r"band \[2, 3\] "
                           r"decomposition has width 6 > 5"):
            slice_td(host, 2, 3)

    @pytest.mark.parametrize("solve", [ptas_mis, ptas_vc, ptas_ds])
    def test_ptas_builds_no_host_decomposition(self, solve, monkeypatch):
        self._forbid_host_decomposition(monkeypatch)
        assert solve(grid(8, 8), 3)

    def test_subiso_builds_no_host_decomposition(self, monkeypatch):
        self._forbid_host_decomposition(monkeypatch)
        e = grid(8, 8)
        assert subiso_driver(e, cycle_graph(3)) is None      # a full scan
        assert subiso_driver(e, cycle_graph(4)) is not None

    @staticmethod
    def _forbid_host_decomposition(monkeypatch):
        def unused(*args):
            raise AssertionError("a band built the host decomposition")

        monkeypatch.setattr(planar_td, "triangulate", unused)
        monkeypatch.setattr(planar_td, "_root_path_td", unused)


class TestRootSelection:
    """The default root is the midpoint of a double BFS sweep."""

    SWEEP_HOSTS = [path_graph(1), path_graph(2), path_graph(6),
                   path_graph(7), grid(1, 5).graph, grid(5, 5).graph,
                   grid(4, 7).graph, grid(6, 3).graph, wall(2)[1].graph,
                   wall(3)[1].graph, wall(4)[1].graph,
                   random_planar_triangulation(30, 1).graph,
                   random_planar_triangulation(80, 2).graph]

    @staticmethod
    def _farthest(g, v):
        """The lowest-id vertex at the largest BFS level from v, and the
        layering."""
        lay = bfs_layering(g, v)
        return lay.level.index(lay.depth), lay

    @pytest.mark.parametrize("g", SWEEP_HOSTS)
    def test_root_is_the_sweep_midpoint(self, g):
        u, _ = self._farthest(g, 0)
        w, from_u = self._farthest(g, u)
        d = from_u.depth
        chain = [w]                       # w's BFS parent chain up to u
        while chain[-1] != u:
            chain.append(from_u.parent[chain[-1]])
        root = min_eccentricity_root(g)
        assert root == chain[(d + 1) // 2]
        assert bfs_layering(g, root).level[w] == (d + 1) // 2
        assert from_u.level[root] == d // 2

    @pytest.mark.parametrize("g, root", [(path_graph(6), 3),
                                         (path_graph(7), 3),
                                         (grid(5, 5).graph, 4),
                                         (grid(4, 7).graph, 5)])
    def test_known_roots(self, g, root):
        assert min_eccentricity_root(g) == root

    def test_center_beats_corner(self):
        g = grid(5, 5).graph
        root = min_eccentricity_root(g)
        ecc = bfs_layering(g, root).depth
        assert ecc <= bfs_layering(g, 0).depth

    def test_min_eccentricity_root_deterministic(self):
        e = random_planar_triangulation(60, 3)
        rebuilt = build_graph(e.n, list(e.graph.edges))
        root = min_eccentricity_root(e.graph)
        assert min_eccentricity_root(e.graph) == root
        assert min_eccentricity_root(rebuilt) == root

    def test_two_bfs_calls(self, monkeypatch):
        calls = []
        honest = _kernels.bfs_levels

        def counting(nbrs, root):
            calls.append(root)
            return honest(nbrs, root)

        monkeypatch.setattr(_kernels, "bfs_levels", counting)
        min_eccentricity_root(grid(9, 6).graph)
        assert calls == [0, 53]           # vertex 0, then the far corner u

    def test_one_sweep_serves_the_root_and_the_level_order(self, monkeypatch):
        sweeps = []
        honest = _kernels.far_sweep

        def recording(nbrs):
            sweeps.append(honest(nbrs))
            return sweeps[-1]

        monkeypatch.setattr(_kernels, "far_sweep", recording)
        g = grid(9, 6).graph
        min_eccentricity_root(g)
        narrower_td(g)
        assert len(sweeps) == 2 and sweeps[0] == sweeps[1]

    def test_disconnected_host_gets_root_zero(self):
        assert min_eccentricity_root(build_graph(4, [(1, 2), (2, 3)])) == 0
        assert min_eccentricity_root(build_graph(4, [(0, 1), (2, 3)])) == 0

    def test_empty_graph_has_no_root(self):
        with pytest.raises(GraphInputError, match="empty graph has no root"):
            min_eccentricity_root(build_graph(0, []))

    @staticmethod
    def _random_hosts(rng, planar):
        for _ in range(4):
            yield grid(rng.randint(1, 9), rng.randint(2, 9))
            yield wall(rng.randint(1, 5))[1]
            yield random_planar_triangulation(rng.randint(3, 90),
                                              rng.randrange(10**6))
            if not planar:
                yield toroidal_grid(rng.randint(3, 7), rng.randint(3, 7))

    def test_default_root_planar_bfs_within_bound(self):
        for e in self._random_hosts(random.Random(20), planar=True):
            root = min_eccentricity_root(e.graph)
            td = planar_bfs_td(e, root)
            assert validate(td, e.graph).valid
            assert td.width <= 3 * bfs_layering(e.graph, root).depth

    def test_default_root_genus_within_bound(self):
        for e in self._random_hosts(random.Random(21), planar=False):
            root = min_eccentricity_root(e.graph)
            td, bound = genus_td(e, root)
            x = cut_graph(e, root).x_vertices
            assert bound == 3 * (bfs_layering(e.graph, root).depth + 1) + len(x)
            assert validate(td, e.graph).valid and td.width <= bound
