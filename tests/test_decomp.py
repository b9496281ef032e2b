"""Decomposition validator, nice form, heuristic decomposition, text format."""

import random

import pytest

from conftest import cycle_graph, path_graph
from shallowtd.baker import build_slices
from shallowtd.decomp import (FORGET, INTRODUCE, JOIN, LEAF,
                              TreeDecomposition, emit_td, heuristic_td,
                              make_nice, parse_td, validate)
from shallowtd.generators import (apex_over_grid, grid,
                                  random_planar_triangulation, toroidal_grid)
from shallowtd.genus_td import genus_td
from shallowtd.graph import GraphInputError, build_graph
from shallowtd.planar_td import band_host, planar_bfs_td


class TestValidate:
    def test_single_bag_c6(self):
        td = TreeDecomposition(nodes=1, tree_edges=[],
                               bags=[tuple(range(6))])
        rep = validate(td, cycle_graph(6))
        assert rep.valid and rep.width == 5

    def test_path_decomposition(self):
        td = TreeDecomposition(nodes=3, tree_edges=[(0, 1), (1, 2)],
                               bags=[(0, 1), (1, 2), (2, 3)])
        assert validate(td, path_graph(4)).valid

    def test_uncovered_edge(self):
        td = TreeDecomposition(nodes=2, tree_edges=[(0, 1)],
                               bags=[(0, 1), (2, 3)])
        rep = validate(td, path_graph(4))
        assert not rep.valid and rep.witness == (1, 2)

    def test_uncovered_vertex(self):
        td = TreeDecomposition(nodes=1, tree_edges=[], bags=[(0, 1)])
        rep = validate(td, build_graph(3, [(0, 1)]))
        assert not rep.valid and rep.witness == 2

    def test_broken_connectivity(self):
        td = TreeDecomposition(nodes=3, tree_edges=[(0, 1), (1, 2)],
                               bags=[(0, 1), (1, 2), (0, 2)])
        rep = validate(td, cycle_graph(3))
        assert not rep.valid and "subtree" in rep.violation

    def test_not_a_tree(self):
        td = TreeDecomposition(nodes=2, tree_edges=[],
                               bags=[(0,), (0,)])
        assert not validate(td, build_graph(1, [])).valid

    def test_one_bag_always_valid(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(1, 8)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                     if rng.random() < 0.4]
            g = build_graph(n, edges)
            td = TreeDecomposition(nodes=1, tree_edges=[],
                                   bags=[tuple(range(n))])
            assert validate(td, g).valid


class TestMakeNice:
    def _check_nice(self, nd):
        for i in range(nd.node_count):
            kind = nd.kind[i]
            kids = nd.children[i]
            if kind == LEAF:
                assert nd.bag[i] == () and not kids
            elif kind in (INTRODUCE, FORGET):
                (c,) = kids
                a, b = set(nd.bag[i]), set(nd.bag[c])
                if kind == INTRODUCE:
                    assert a - b == {nd.vertex[i]} and b <= a
                else:
                    assert b - a == {nd.vertex[i]} and a <= b
            else:
                c1, c2 = kids
                assert nd.bag[i] == nd.bag[c1] == nd.bag[c2]
        assert nd.bag[nd.root] == ()

    def test_single_bag_triangle(self):
        td = TreeDecomposition(nodes=1, tree_edges=[], bags=[(0, 1, 2)])
        nd = make_nice(td)
        assert nd.width == 2
        self._check_nice(nd)

    def test_width_preserved_on_grid(self):
        td = planar_bfs_td(grid(4, 4), 0)
        nd = make_nice(td)
        assert nd.width == td.width
        self._check_nice(nd)

    def test_empty_graph(self):
        td = TreeDecomposition(nodes=1, tree_edges=[], bags=[()])
        nd = make_nice(td)
        assert nd.node_count >= 1 and nd.bag[nd.root] == ()

    def test_join_shapes(self):
        td = TreeDecomposition(nodes=4, tree_edges=[(0, 1), (0, 2), (0, 3)],
                               bags=[(0, 1), (1, 2), (0, 3), (1, 4)])
        g = build_graph(5, [(0, 1), (1, 2), (0, 3), (1, 4)])
        assert validate(td, g).valid
        nd = make_nice(td)
        self._check_nice(nd)
        assert nd.width == td.width

    # The DP engines walk node ids in ascending order: every child must be
    # numbered below its parent, and the root last.
    @pytest.mark.parametrize("build", [
        pytest.param(lambda: [heuristic_td(apex_over_grid(4)),
                              heuristic_td(grid(5, 6).graph)], id="heuristic"),
        pytest.param(lambda: [planar_bfs_td(random_planar_triangulation(40, 3),
                                            0), planar_bfs_td(grid(6, 6), 7)],
                     id="planar-bfs"),
        pytest.param(lambda: [genus_td(toroidal_grid(5, 5), 0)[0]],
                     id="genus"),
        pytest.param(lambda: [s.td for mode in ("delete", "duplicate",
                                                "dominate")
                              for s in build_slices(band_host(grid(7, 7), 0),
                                                    3, 1, mode).slices],
                     id="band-slices"),
    ])
    def test_children_numbered_before_parents(self, build):
        for td in build():
            nd = make_nice(td)
            assert nd.root == nd.node_count - 1
            parent = [None] * nd.node_count
            for i, kids in enumerate(nd.children):
                for c in kids:
                    assert c < i and parent[c] is None
                    parent[c] = i
            assert [i for i, p in enumerate(parent) if p is None] == [nd.root]


class TestHeuristicTd:
    def test_valid_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 14)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                     if rng.random() < 0.3]
            g = build_graph(n, edges)
            td = heuristic_td(g)
            assert validate(td, g).valid

    def test_tree_width_one(self):
        g = build_graph(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
        assert heuristic_td(g).width == 1

    def test_loops_constrain_no_bag(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]
        loops = [(2, 2), (4, 4), (4, 4), (0, 0)]
        plain = heuristic_td(build_graph(6, edges))
        looped_graph = build_graph(6, loops[:2] + edges + loops[2:])
        looped = heuristic_td(looped_graph)
        assert looped == plain
        assert validate(looped, looped_graph).valid
        assert heuristic_td(build_graph(1, [(0, 0)])).bags == [(0,)]


class TestTdTextFormat:
    def test_roundtrip(self):
        td = planar_bfs_td(grid(3, 3), 0)
        text = emit_td(td, 9)
        td2, host_n = parse_td(text)
        assert host_n == 9
        assert td2.bags == td.bags and sorted(td2.tree_edges) == sorted(td.tree_edges)

    def test_missing_header(self):
        with pytest.raises(GraphInputError):
            parse_td("b 0 1 2\n")

    def test_bag_line_for_a_node_out_of_range(self):
        with pytest.raises(GraphInputError, match="line 3: .*node 1"):
            parse_td("td 1 1 2\nb 0 0 1\nb 1 0\n")
        with pytest.raises(GraphInputError, match="line 2: .*node -1"):
            parse_td("td 1 1 2\nb -1 0 1\nb 0 0 1\n")

    def test_second_bag_line_for_a_node(self):
        with pytest.raises(GraphInputError, match="line 3: duplicate b line"):
            parse_td("td 1 1 2\nb 0 0 1\nb 0 1\n")

    def test_second_header(self):
        with pytest.raises(GraphInputError, match="line 3: duplicate td line"):
            parse_td("td 1 1 2\nb 0 0 1\ntd 1 1 2\n")

    @pytest.mark.parametrize("header", ["td -1 1 2", "td 1 1 -2"])
    def test_negative_count(self, header):
        with pytest.raises(GraphInputError, match="line 1: negative"):
            parse_td(header + "\nb 0 0 1\n")

    def test_vertex_repeated_in_a_bag(self):
        with pytest.raises(GraphInputError, match="line 2: bag 0 lists"):
            parse_td("td 1 1 2\nb 0 0 0 1 1\n")

    def test_header_width_differs_from_the_bags(self):
        with pytest.raises(GraphInputError, match="line 1: header width 9"):
            parse_td("td 1 9 2\nb 0 0 1\n")

    def test_empty_decomposition_roundtrips(self):
        td = heuristic_td(build_graph(0, []))
        assert parse_td(emit_td(td, 0)) == (td, 0)
