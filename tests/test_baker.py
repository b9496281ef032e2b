"""Level-slicing approximation schemes: window structure, feasibility,
additive guarantees against the brute-force optimum."""

import math

import pytest

import reference_bands
from conftest import (cycle_graph, embed_outerplanar, path_graph, star_graph)
from shallowtd.baker import build_slices, ptas_ds, ptas_mis, ptas_vc
from shallowtd import baker
from shallowtd.decomp import validate
from shallowtd.dp import SolutionCheckError
from shallowtd.generators import grid, random_planar_triangulation
from shallowtd.graph import GraphInputError, build_graph, embed
from shallowtd.oracles import oracle_solve
from shallowtd.planar_td import band_host, level_windows


def _p10():
    return embed_outerplanar(path_graph(10))


class TestBuildSlices:
    def test_delete_windows(self):
        host = band_host(_p10(), 0)
        fam = build_slices(host, 3, 2, "delete")
        assert [s.window for s in fam.slices] == [(0, 1), (3, 4), (6, 7), (9, 9)]

    def test_duplicate_windows(self):
        host = band_host(_p10(), 0)
        fam = build_slices(host, 3, 0, "duplicate")
        assert [s.window for s in fam.slices] == [(0, 3), (3, 6), (6, 9)]

    def test_deleted_levels_partition(self):
        host = band_host(_p10(), 0)
        deleted = []
        for o in range(3):
            fam = build_slices(host, 3, o, "delete")
            kept = set()
            for s in fam.slices:
                kept.update(range(s.window[0], s.window[1] + 1))
            deleted.extend(sorted(set(range(10)) - kept))
        assert sorted(deleted) == list(range(10))

    def test_duplicate_covers_every_edge(self):
        e = grid(5, 5)
        host = band_host(e, 0)
        lay = host.layering
        for o in range(4):
            fam = build_slices(host, 4, o, "duplicate")
            for u, v in e.graph.edges:
                assert any(s.window[0] <= lay.level[u] <= s.window[1] and
                           s.window[0] <= lay.level[v] <= s.window[1]
                           for s in fam.slices), (o, u, v)
            for s in fam.slices:
                assert validate(s.td, s.graph).valid, (o, s.window)

    def test_dominate_cores_partition_levels(self):
        host = band_host(_p10(), 0)
        for o in range(3):
            fam = build_slices(host, 3, o, "dominate")
            cores = sorted(s.back_map[i] for s in fam.slices for i in s.core)
            assert cores == list(range(10)), o

    def test_bad_parameters(self):
        host = band_host(_p10(), 0)
        with pytest.raises(GraphInputError):
            build_slices(host, 1, 0, "delete")
        with pytest.raises(GraphInputError):
            build_slices(host, 3, 3, "delete")
        with pytest.raises(GraphInputError):
            build_slices(host, 3, 0, "bogus")


class TestLevelWindows:
    @pytest.mark.parametrize("mode", ["delete", "duplicate", "dominate"])
    def test_matches_loop_reference(self, mode):
        for depth in range(41):
            for k in range(2, 9):
                for offset in range(k):
                    assert (level_windows(depth, k, offset, mode)
                            == reference_bands.level_windows(depth, k, offset,
                                                             mode)), \
                        (depth, k, offset)

    def test_unknown_mode(self):
        for windows in (level_windows, reference_bands.level_windows):
            with pytest.raises(GraphInputError, match="unknown slicing mode"):
                windows(5, 3, 0, "bogus")


class TestPtasMis:
    def test_edgeless(self):
        e = embed(build_graph(4, []), [[], [], [], []])
        assert ptas_mis(e, 3) == {0, 1, 2, 3}

    def test_p10_k2(self):
        res = ptas_mis(_p10(), 2)
        assert len(res) >= 5 - 5 // 2

    def test_grid_guarantee_all_k(self):
        e = grid(4, 5)
        opt = oracle_solve("mis", e.graph)[0]
        for k in (2, 3, 4, 6):
            res = ptas_mis(e, k)
            assert len(res) >= opt - opt // k, k

    def test_grid66_known_opt(self):
        for k in (2, 4):
            assert len(ptas_mis(grid(6, 6), k)) >= 18 - 18 // k

    def test_nonplanar_rejected(self):
        from shallowtd.generators import toroidal_grid
        with pytest.raises(GraphInputError):
            ptas_mis(toroidal_grid(3, 3), 2)

    def test_infeasible_union_raises(self, monkeypatch):
        # bands of two grid levels hold edges, so taking every band vertex
        # breaks independence
        monkeypatch.setattr(baker, "dp_mis", lambda nd, g: set(range(g.n)))
        with pytest.raises(SolutionCheckError, match="not independent"):
            ptas_mis(grid(3, 3), 3)


class TestPtasVc:
    def test_triangle(self, triangle):
        e = embed_outerplanar(triangle)
        assert len(ptas_vc(e, 2)) == 2

    def test_star(self):
        e = embed_outerplanar(star_graph(5))
        assert ptas_vc(e, 2) == {0}

    def test_edgeless(self):
        e = embed(build_graph(3, []), [[], [], []])
        assert ptas_vc(e, 2) == set()

    def test_guarantee_all_k(self):
        e = random_planar_triangulation(20, 5)
        opt = oracle_solve("vc", e.graph)[0]
        for k in (2, 3, 4, 6):
            res = ptas_vc(e, k)
            assert len(res) <= opt + opt // k, k


class TestPtasDs:
    def test_star(self):
        e = embed_outerplanar(star_graph(5))
        assert ptas_ds(e, 2) == {0}

    def test_c6(self):
        e = embed_outerplanar(cycle_graph(6))
        assert len(ptas_ds(e, 3)) <= 2 + 2 * math.ceil(2 / 3)

    def test_p7_k3(self):
        e = embed_outerplanar(path_graph(7))
        res = ptas_ds(e, 3)
        assert len(res) <= 3 + 2 * math.ceil(3 / 3)

    def test_guarantee_all_k(self):
        e = grid(4, 5)
        opt = oracle_solve("ds", e.graph)[0]
        for k in (2, 3, 4, 6):
            res = ptas_ds(e, k)
            assert len(res) <= opt + 2 * math.ceil(opt / k), k

    def test_disconnected_rejected(self):
        e = embed(build_graph(2, []), [[], []])
        with pytest.raises(GraphInputError):
            ptas_ds(e, 2)

    def test_two_triangles_rejected(self):
        e = embed_outerplanar(build_graph(6, [(0, 1), (1, 2), (2, 0),
                                              (3, 4), (4, 5), (5, 3)]))
        assert e.euler_genus == 0
        with pytest.raises(GraphInputError, match="connected"):
            ptas_ds(e, 2)


class TestDisconnectedInputs:
    def test_mis_and_vc_per_component(self):
        g = build_graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
        e = embed_outerplanar(g)
        mis = ptas_mis(e, 2)
        assert 6 in mis                       # the isolated vertex is free
        vc = ptas_vc(e, 2)
        assert all(u in vc or v in vc for u, v in g.edges)
