"""Brute-force reference implementations: exact values, budgets, witnesses."""

import pytest

from conftest import complete_graph, cycle_graph, path_graph, star_graph
from shallowtd import oracles
from shallowtd.decomp import validate
from shallowtd.generators import apex_over_grid, grid
from shallowtd.graph import build_graph
from shallowtd.oracles import (OracleBudgetError, OracleCheckError,
                               exact_treewidth, oracle_solve,
                               subiso_backtracking)


class TestOracleSolve:
    def test_triangle_mis(self, triangle):
        assert oracle_solve("mis", triangle)[0] == 1

    def test_grid33_mis(self):
        value, witness = oracle_solve("mis", grid(3, 3).graph)
        assert value == 5 and len(witness) == 5

    def test_p7_ds(self):
        assert oracle_solve("ds", path_graph(7))[0] == 3

    def test_vc_examples(self, triangle):
        assert oracle_solve("vc", triangle)[0] == 2
        assert oracle_solve("vc", star_graph(5))[0] == 1

    def test_budget(self):
        with pytest.raises(OracleBudgetError):
            oracle_solve("mis", build_graph(25, []))

    def test_unknown_problem(self, triangle):
        with pytest.raises(ValueError):
            oracle_solve("coloring", triangle)

    def test_broken_witness_raises(self, triangle, monkeypatch):
        monkeypatch.setattr(oracles, "_best_is",
                            lambda adj, remaining: set(remaining))
        with pytest.raises(OracleCheckError, match="not independent"):
            oracle_solve("mis", triangle)


class TestExactTreewidth:
    def test_trees_width_one(self):
        for g in (path_graph(6), star_graph(7)):
            width, td = exact_treewidth(g)
            assert width == 1 and validate(td, g).valid and td.width == 1

    def test_c6(self):
        width, td = exact_treewidth(cycle_graph(6))
        assert width == 2 and validate(td, cycle_graph(6)).valid

    def test_grid33(self):
        g = grid(3, 3).graph
        width, td = exact_treewidth(g)
        assert width == 3 and validate(td, g).valid and td.width == 3

    def test_apex3(self):
        g = apex_over_grid(3)
        width, td = exact_treewidth(g)
        assert width == 4 and validate(td, g).valid and td.width == 4

    def test_clique(self):
        width, td = exact_treewidth(complete_graph(5))
        assert width == 4

    def test_budget(self):
        with pytest.raises(OracleBudgetError):
            exact_treewidth(build_graph(13, []))


class TestSubisoBacktracking:
    def test_p3_in_triangle_count(self, triangle):
        res = subiso_backtracking(triangle, path_graph(3))
        assert res.count == 6 and res.mapping is not None

    def test_c4_is_grid22(self):
        res = subiso_backtracking(grid(2, 2).graph, cycle_graph(4))
        assert res.mapping is not None

    def test_k3_absent_in_grid(self):
        res = subiso_backtracking(grid(5, 5).graph, complete_graph(3))
        assert res.mapping is None and res.count == 0

    def test_induced_flag(self, triangle):
        assert subiso_backtracking(triangle, path_graph(3),
                                   induced=True).mapping is None

    def test_budget(self):
        with pytest.raises(OracleBudgetError):
            subiso_backtracking(grid(11, 11).graph, path_graph(3))
        with pytest.raises(OracleBudgetError):
            subiso_backtracking(grid(3, 3).graph, path_graph(7))
