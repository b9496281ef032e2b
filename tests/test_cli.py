"""Command-line interface: exit codes, JSON reports, artifact round-trips."""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_planar
from conftest import DIGON, relabel_embedded, witness_entry
from shallowtd.cli import run
from shallowtd.decomp import (emit_td, heuristic_td, narrower_td, parse_td,
                              validate)
from shallowtd.dp import MAX_STATES, check_solution, dp_mis
from shallowtd.generators import (grid, random_planar_triangulation,
                                  toroidal_grid, wall)
from shallowtd.genus_td import cut_graph
from shallowtd.graph import (MAX_VERTICES, GraphInputError, emit_graph,
                             parse_graph)
from shallowtd.oracles import MAX_SET_PROBLEM, oracle_solve
from shallowtd.planar_td import min_eccentricity_root, planar_bfs_td

SRC = Path(__file__).resolve().parents[1] / "src"

# optima of the 7x7 grid, past the oracles' size limit: independence number
# ceil(49 / 2), its complement, and the domination number of the 7x7 grid
GRID7X7_OPTIMA = {"mis": 25, "vc": 24, "ds": 12}

# a labelling of grid(4, 5) under which min-degree elimination is wider
# (5) than planar_bfs_td from root 5 (4); level order is no narrower, so
# solve still runs on min-degree
GRID4X5_LABELS = [14, 11, 12, 15, 10, 16, 1, 17, 7, 4, 3, 18, 5, 8, 6, 13,
                  19, 0, 2, 9]


def invoke(capsys, monkeypatch, argv, stdin=""):
    import io
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_grid(self, capsys, monkeypatch):
        code, out, _ = invoke(capsys, monkeypatch,
                              ["generate", "--kind", "grid",
                               "--rows", "3", "--cols", "3"])
        assert code == 0
        g = parse_graph(out)
        assert g.graph.n == 9 and g.graph.m == 12

    def test_unknown_flag_usage_error(self, capsys, monkeypatch):
        code, _, _ = invoke(capsys, monkeypatch,
                            ["generate", "--bogus", "1"])
        assert code == 2

    def test_seed_defaults_to_zero(self, capsys, monkeypatch):
        argv = ["generate", "--kind", "random-triangulation", "--size", "12"]
        code, out1, _ = invoke(capsys, monkeypatch, argv)
        code2, out2, _ = invoke(capsys, monkeypatch, argv + ["--seed", "0"])
        assert code == code2 == 0 and out1 == out2
        code3, out3, _ = invoke(capsys, monkeypatch, argv + ["--seed", "10"])
        assert code3 == 0 and out3 != out1

    @pytest.mark.parametrize("kind, defaults", [
        ("grid", ["--rows", "3", "--cols", "3"]),
        ("torus", ["--rows", "3", "--cols", "3"]),
        ("apex", ["--size", "3"]), ("wall", ["--size", "3"]),
        ("random-triangulation", ["--size", "3", "--seed", "0"])])
    def test_options_left_out_take_their_defaults(self, capsys, monkeypatch,
                                                  kind, defaults):
        argv = ["generate", "--kind", kind]
        code, out, _ = invoke(capsys, monkeypatch, argv)
        code2, out2, _ = invoke(capsys, monkeypatch, argv + defaults)
        assert code == code2 == 0 and out == out2


# the generate options each kind reads; any other given is a usage error
GENERATE_READS = {"grid": ("rows", "cols"), "torus": ("rows", "cols"),
                  "apex": ("size",), "wall": ("size",),
                  "random-triangulation": ("size", "seed")}
IGNORED_OPTIONS = [
    pytest.param(["generate", "--kind", kind, f"--{opt}", "5"],
                 f"generate --kind {kind} takes no --{opt}",
                 id=f"generate-{kind}-{opt}")
    for kind, reads in GENERATE_READS.items()
    for opt in ("rows", "cols", "size", "seed") if opt not in reads
] + [
    pytest.param(["oracle", "--problem", problem, *flag],
                 f"oracle --problem {problem} takes no {flag[0]}",
                 id=f"oracle-{problem}-{flag[0][2:]}")
    for problem in ("mis", "vc", "ds", "treewidth")
    for flag in (["--pattern", "/nonexistent"], ["--induced"])]


@pytest.mark.parametrize("argv, message", IGNORED_OPTIONS)
def test_an_option_the_command_ignores_is_a_usage_error(capsys, monkeypatch,
                                                        argv, message):
    # refused before any input is read or any graph generated
    code, out, err = invoke(capsys, monkeypatch, argv, stdin="v 2\ne 0 1\n")
    assert code == 2 and out == ""
    assert f"error: {message}\n" in err


class TestPipelines:
    def _grid_text(self, capsys, monkeypatch, rows=4, cols=4):
        _, out, _ = invoke(capsys, monkeypatch,
                           ["generate", "--kind", "grid",
                            "--rows", str(rows), "--cols", str(cols)])
        return out

    def test_decompose_and_validate(self, capsys, monkeypatch, tmp_path):
        gtext = self._grid_text(capsys, monkeypatch)
        gfile = tmp_path / "g.g"
        gfile.write_text(gtext)
        tdfile = tmp_path / "g.td"
        code, out, _ = invoke(capsys, monkeypatch,
                              ["decompose", "--method", "planar-bfs",
                               "--root", "0", "--input", str(gfile),
                               "--out", str(tdfile)])
        assert code == 0
        report = json.loads(out)
        assert report["valid"] and report["bound_checked"]
        assert report["width"] <= report["width_bound"]
        td, host_n = parse_td(tdfile.read_text())
        assert validate(td, parse_graph(gtext).graph).valid

        code, out, _ = invoke(capsys, monkeypatch,
                              ["validate", "--graph", str(gfile),
                               "--td", str(tdfile)])
        assert code == 0 and json.loads(out)["valid"]

    @pytest.mark.parametrize("name, method", [
        ("grid", "planar-bfs"), ("wall", "planar-bfs"),
        ("triangulation", "planar-bfs"), ("torus", "genus")])
    def test_decompose_out_round_trip(self, capsys, monkeypatch, tmp_path,
                                      name, method):
        e = {"grid": lambda: grid(7, 9), "wall": lambda: wall(4)[1],
             "triangulation": lambda: random_planar_triangulation(120, 5),
             "torus": lambda: toroidal_grid(6, 7)}[name]()
        gfile = tmp_path / "g.g"
        gfile.write_text(emit_graph(e))
        tdfile = tmp_path / "g.td"
        code, out, _ = invoke(capsys, monkeypatch,
                              ["decompose", "--method", method,
                               "--input", str(gfile), "--out", str(tdfile)])
        assert code == 0
        report = json.loads(out)
        assert report["valid"]
        bound = 3 * report["depth"]
        if method == "genus":
            cg = cut_graph(e, report["root"])
            assert report["depth"] == cg.depth
            bound = 3 * (cg.depth + 1) + len(cg.x_vertices)
        assert report["width_bound"] == bound and report["bound_checked"]
        assert report["width"] <= bound
        build = (reference_planar.genus_td if method == "genus"
                 else reference_planar.planar_bfs_td)
        ref = build(e, report["root"])
        assert report["nodes"] < ref.nodes       # one node per triangle
        assert report["width"] == ref.width
        code, out, _ = invoke(capsys, monkeypatch,
                              ["validate", "--graph", str(gfile),
                               "--td", str(tdfile)])
        assert code == 0 and json.loads(out)["valid"]

    def test_validate_rejects_mismatch(self, capsys, monkeypatch, tmp_path):
        gfile = tmp_path / "g.g"
        gfile.write_text("v 3\ne 0 1\ne 1 2\ne 2 0\n")
        tdfile = tmp_path / "bad.td"
        tdfile.write_text("td 1 1 3\nb 0 0 1\n")
        code, out, _ = invoke(capsys, monkeypatch,
                              ["validate", "--graph", str(gfile),
                               "--td", str(tdfile)])
        assert code == 1 and not json.loads(out)["valid"]

    def test_validate_rejects_malformed_text(self, capsys, monkeypatch,
                                             tmp_path):
        # a header width of 9 over bags of width 1 once read as valid
        (tmp_path / "g.g").write_text("v 2\ne 0 1\n")
        (tmp_path / "g.td").write_text("td 1 9 2\nb 0 0 1\n")
        code, out, err = invoke(capsys, monkeypatch,
                                ["validate", "--graph", str(tmp_path / "g.g"),
                                 "--td", str(tmp_path / "g.td")])
        assert code == 1 and out == ""
        assert "line 1: header width 9" in err

    def test_size_budget_is_a_domain_error(self, capsys, monkeypatch,
                                           tmp_path):
        code, out, err = invoke(capsys, monkeypatch,
                                ["solve", "--problem", "mis"],
                                stdin=f"v {MAX_VERTICES + 1}\n")
        assert code == 1 and out == ""
        assert err == (f"error: line 1: {MAX_VERTICES + 1} vertices exceed "
                       f"the budget of {MAX_VERTICES}\n")
        (tmp_path / "g.g").write_text("v 2\ne 0 1\n")
        (tmp_path / "g.td").write_text(f"td {2 * MAX_VERTICES + 1} 1 2\n")
        code, out, err = invoke(capsys, monkeypatch,
                                ["validate", "--graph", str(tmp_path / "g.g"),
                                 "--td", str(tmp_path / "g.td")])
        assert code == 1 and out == ""
        assert err == (f"error: line 1: over the budget of {MAX_VERTICES} "
                       f"host vertices and {2 * MAX_VERTICES} nodes\n")

    def test_validate_reports_host_size_mismatch(self, capsys, monkeypatch,
                                                 tmp_path):
        gtext, ttext = "v 3\ne 0 1\ne 1 2\n", "td 1 1 4\nb 0 0 1\n"
        (tmp_path / "g.g").write_text(gtext)
        (tmp_path / "g.td").write_text(ttext)
        code, out, err = invoke(capsys, monkeypatch,
                                ["validate", "--graph", str(tmp_path / "g.g"),
                                 "--td", str(tmp_path / "g.td")])
        report = json.loads(out)
        assert code == 1 and err == "" and report["valid"] is False
        assert report["violation"] == ("decomposition is for a 4-vertex "
                                       "host, graph has 3")
        assert report["input_fingerprint"] == hashlib.sha256(
            (gtext + ttext).encode()).hexdigest()[:16]

    def test_solve(self, capsys, monkeypatch):
        gtext = self._grid_text(capsys, monkeypatch, 3, 3)
        code, out, _ = invoke(capsys, monkeypatch,
                              ["solve", "--problem", "mis"], stdin=gtext)
        report = json.loads(out)
        assert code == 0 and report["value"] == 5 and report["verified"]

    @pytest.mark.parametrize("text, width", [("v 0\n", -1),
                                             ("v 6\ne 0 1\ne 1 2\ne 3 4\n", 1)])
    def test_decompose_heuristic_needs_no_root(self, capsys, monkeypatch,
                                               text, width):
        # the empty host and a disconnected one with an isolated vertex
        code, out, err = invoke(capsys, monkeypatch,
                                ["decompose", "--method", "heuristic"],
                                stdin=text)
        report = json.loads(out)
        assert code == 0 and err == "" and report["valid"]
        assert report["width"] == width
        assert "root" not in report and "depth" not in report

    @pytest.mark.parametrize("method, e", [("planar-bfs", grid(3, 3)),
                                           ("genus", toroidal_grid(3, 3))])
    @pytest.mark.parametrize("root", ["-1", "9"])
    def test_decompose_root_out_of_range(self, capsys, monkeypatch, method, e,
                                         root):
        code, out, err = invoke(capsys, monkeypatch,
                                ["decompose", "--method", method,
                                 "--root", root], stdin=emit_graph(e))
        assert code == 1 and out == ""
        assert f"root {root} out of range [0, 9)" in err

    @pytest.mark.parametrize("root", ["0", "99", "-1"])
    def test_decompose_heuristic_refuses_a_root(self, capsys, monkeypatch,
                                                root):
        # min-degree elimination takes no root, so any --root is refused
        # before the input is read, in range or not
        code, out, err = invoke(capsys, monkeypatch,
                                ["decompose", "--method", "heuristic",
                                 "--root", root], stdin="v 2\ne 0 1\n")
        assert code == 2 and out == ""
        assert "decompose --method heuristic takes no --root" in err

    @pytest.mark.parametrize("method", ["planar-bfs", "genus"])
    @pytest.mark.parametrize("text, message", [
        ("v 4\ne 0 1\ne 2 3\nrot 0 0\nrot 1 1\nrot 2 2\nrot 3 3\n",
         "graph is not connected"),
        ("v 3\ne 0 1\nrot 0 0\nrot 1 1\nrot 2\n", "graph is not connected"),
        ("v 0\n", "empty graph has no root")])
    def test_decompose_default_root_on_host_without_one(
            self, capsys, monkeypatch, method, text, message):
        code, out, err = invoke(capsys, monkeypatch,
                                ["decompose", "--method", method], stdin=text)
        assert code == 1 and out == ""
        assert message in err and "Traceback" not in err

    # solve builds elimination orders alone for every host, the relabelled
    # grid4x5 included, where planar_bfs_td would be one narrower; on the
    # 7x7 grid level order is the narrower (7 against min-degree's 8)
    @pytest.mark.parametrize("e", [
        pytest.param(grid(1, 5), id="grid1x5"),
        pytest.param(grid(3, 3), id="grid3x3"),
        pytest.param(grid(4, 4), id="grid4x4"),
        pytest.param(grid(4, 5), id="grid4x5"),
        pytest.param(relabel_embedded(grid(4, 5), GRID4X5_LABELS),
                     id="grid4x5-relabelled"),
        pytest.param(wall(1)[1], id="wall1"),
        pytest.param(wall(2)[1], id="wall2"),
        pytest.param(random_planar_triangulation(6, 0), id="tri6"),
        pytest.param(random_planar_triangulation(9, 1), id="tri9"),
        pytest.param(random_planar_triangulation(12, 1), id="tri12"),
        pytest.param(grid(7, 7), id="grid7x7")])
    @pytest.mark.parametrize("problem", ["mis", "vc", "ds"])
    def test_solve_runs_on_the_narrower_decomposition(self, capsys,
                                                      monkeypatch, e, problem):
        g = e.graph
        code, out, err = invoke(capsys, monkeypatch,
                                ["solve", "--problem", problem],
                                stdin=emit_graph(e))
        report = json.loads(out)
        assert code == 0 and err == "" and report["verified"]
        assert report["width"] == narrower_td(g).width
        assert "method" not in report
        assert report["value"] == (oracle_solve(problem, g)[0]
                                   if g.n <= MAX_SET_PROBLEM
                                   else GRID7X7_OPTIMA[problem])

    def test_solve_builds_no_planar_decomposition(self, capsys, monkeypatch):
        from shallowtd import cli

        def unused(*args):
            raise AssertionError("solve built a planar decomposition")

        monkeypatch.setattr(cli, "planar_bfs_td", unused)
        monkeypatch.setattr(cli, "min_eccentricity_root", unused)
        code, out, err = invoke(capsys, monkeypatch,
                                ["solve", "--problem", "mis"],
                                stdin=emit_graph(grid(4, 5)))
        assert code == 0 and err == ""
        assert json.loads(out)["value"] == 10

    def test_relabelled_grid_is_narrower_under_planar_bfs(self):
        # the cost of solving on elimination orders alone: both break ties
        # on vertex ids, and under this labelling they end one wider than
        # the BFS construction from root 5
        e = relabel_embedded(grid(4, 5), GRID4X5_LABELS)
        assert planar_bfs_td(e, 5).width == 4
        assert heuristic_td(e.graph).width == 5
        assert narrower_td(e.graph).width == 5

    @pytest.mark.parametrize("host, argv", [
        pytest.param(["--kind", "grid", "--rows", "30", "--cols", "30"],
                     ["solve", "--problem", "mis"], id="solve-mis-grid30"),
        pytest.param(["--kind", "apex", "--size", "12"],
                     ["solve", "--problem", "ds"], id="solve-ds-apex12"),
        pytest.param(["--kind", "grid", "--rows", "20", "--cols", "20"],
                     ["ptas", "--problem", "mis", "--k", "40"],
                     id="ptas-mis-grid20-k40")])
    def test_dp_past_its_state_budget_exits_1(self, capsys, monkeypatch,
                                               host, argv):
        _, text, _ = invoke(capsys, monkeypatch, ["generate", *host])
        start = time.perf_counter()
        code, out, err = invoke(capsys, monkeypatch, argv, stdin=text)
        assert code == 1 and out == ""
        assert f"the budget is {MAX_STATES}" in err and "Traceback" not in err
        assert time.perf_counter() - start < 30

    def test_solve_ds_on_the_11x11_grid_fits_the_budget(self, capsys,
                                                        monkeypatch):
        # width 11: only the dominated entries the forgets drop keep every
        # table within MAX_STATES (without them one holds 146,109)
        text = self._grid_text(capsys, monkeypatch, rows=11, cols=11)
        code, out, err = invoke(capsys, monkeypatch,
                                ["solve", "--problem", "ds"], stdin=text)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert (report["width"], report["value"]) == (11, 29)

    def test_ptas(self, capsys, monkeypatch):
        gtext = self._grid_text(capsys, monkeypatch)
        code, out, _ = invoke(capsys, monkeypatch,
                              ["ptas", "--problem", "vc", "--k", "3"],
                              stdin=gtext)
        report = json.loads(out)
        assert code == 0 and report["bound_checked"]
        assert len(report["per_offset_values"][0]) == 3

    def test_ptas_k_usage_error(self, capsys, monkeypatch):
        code, _, err = invoke(capsys, monkeypatch,
                              ["ptas", "--problem", "mis", "--k", "0"],
                              stdin="v 1\n")
        assert code == 2

    @pytest.mark.parametrize("k", ["1", "x"])
    def test_ptas_k_below_two_or_not_int_is_usage_error(self, capsys,
                                                        monkeypatch, k):
        code, out, err = invoke(capsys, monkeypatch,
                                ["ptas", "--problem", "mis", "--k", k],
                                stdin=emit_graph(grid(3, 3)))
        assert code == 2 and out == ""
        assert "argument --k" in err

    @pytest.mark.parametrize("repeats", ["0", "-1", "x"])
    def test_bench_repeats_below_one_or_not_int_is_usage_error(
            self, capsys, monkeypatch, repeats):
        # zero repeats would time nothing and write Infinity into the report
        code, out, err = invoke(capsys, monkeypatch,
                                ["bench", "--repeats", repeats])
        assert code == 2 and out == ""
        assert "argument --repeats" in err

    @pytest.mark.parametrize("max_edges", ["999", "500", "0", "x"])
    def test_bench_max_edges_below_1000_or_not_int_is_usage_error(
            self, capsys, monkeypatch, max_edges):
        # the smallest timed grid has 1000 edges: a lower cap would report
        # no rows and a vacuous within_bound
        code, out, err = invoke(capsys, monkeypatch,
                                ["bench", "--max-edges", max_edges])
        assert code == 2 and out == ""
        assert "argument --max-edges" in err

    def test_subiso_and_oracle(self, capsys, monkeypatch, tmp_path):
        gtext = self._grid_text(capsys, monkeypatch)
        pat = tmp_path / "c4.g"
        pat.write_text("v 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n")
        code, out, _ = invoke(capsys, monkeypatch,
                              ["subiso", "--pattern", str(pat)], stdin=gtext)
        report = json.loads(out)
        assert code == 0 and report["found"] and report["verified"]

        code, out, _ = invoke(capsys, monkeypatch,
                              ["oracle", "--problem", "subiso",
                               "--pattern", str(pat)], stdin=gtext)
        assert code == 0 and json.loads(out)["found"]

    def test_oracle_treewidth(self, capsys, monkeypatch):
        gtext = self._grid_text(capsys, monkeypatch, 3, 3)
        code, out, _ = invoke(capsys, monkeypatch,
                              ["oracle", "--problem", "treewidth"],
                              stdin=gtext)
        report = json.loads(out)
        assert code == 0 and report["value"] == 3 and report["valid"]

    def test_domain_error_exit_one(self, capsys, monkeypatch):
        # solving on a torus via the planar method is a domain error
        _, ttext, _ = invoke(capsys, monkeypatch,
                             ["generate", "--kind", "torus",
                              "--rows", "3", "--cols", "3"])
        code, _, err = invoke(capsys, monkeypatch,
                              ["ptas", "--problem", "mis", "--k", "2"],
                              stdin=ttext)
        assert code == 1 and "error" in err

    def test_failed_result_check_exit_one(self, capsys, monkeypatch):
        from shallowtd import dp
        monkeypatch.setattr(dp, "_run_subset_dp", lambda nd, g:
                            {0: witness_entry(range(g.n))})
        gtext = self._grid_text(capsys, monkeypatch, 3, 3)
        code, out, err = invoke(capsys, monkeypatch,
                                ["solve", "--problem", "mis"], stdin=gtext)
        assert code == 1 and out == ""
        assert "not independent" in err and "Traceback" not in err

    def test_failed_oracle_check_exit_one(self, capsys, monkeypatch):
        from shallowtd import oracles
        monkeypatch.setattr(oracles, "_best_is",
                            lambda adj, remaining: set(remaining))
        gtext = self._grid_text(capsys, monkeypatch, 3, 3)
        code, out, err = invoke(capsys, monkeypatch,
                                ["oracle", "--problem", "mis"], stdin=gtext)
        assert code == 1 and out == ""
        assert "not independent" in err and "Traceback" not in err

    def test_dot_export(self, capsys, monkeypatch, tmp_path):
        dot = tmp_path / "g.dot"
        code, _, _ = invoke(capsys, monkeypatch,
                            ["generate", "--kind", "grid", "--rows", "2",
                             "--cols", "2", "--dot", str(dot)])
        assert code == 0 and dot.read_text().startswith("graph G")

    def test_decompose_dot_export(self, capsys, monkeypatch, tmp_path):
        dot, out = tmp_path / "td.dot", tmp_path / "g.td"
        code, _, _ = invoke(capsys, monkeypatch,
                            ["decompose", "--out", str(out), "--dot", str(dot)],
                            stdin=self._grid_text(capsys, monkeypatch, 3, 3))
        assert code == 0
        td, _ = parse_td(out.read_text())
        lines = dot.read_text().splitlines()
        assert lines[0] == "graph TD {" and lines[-1] == "}"
        assert sum("[label=" in line for line in lines) == len(td.bags)

    @pytest.mark.parametrize("argv, builder", [
        (["decompose"], "_dot_td"),
        (["generate", "--kind", "grid", "--rows", "2", "--cols", "2"],
         "_dot_graph"),
    ])
    def test_dot_text_built_only_with_dot(self, capsys, monkeypatch, argv,
                                          builder):
        from shallowtd import cli

        def unwanted(obj):
            raise AssertionError(f"{builder} ran without --dot")
        monkeypatch.setattr(cli, builder, unwanted)
        code, _, err = invoke(capsys, monkeypatch, argv,
                              stdin=emit_graph(grid(3, 3)))
        assert code == 0, err

    @pytest.mark.parametrize("argv", [
        ["decompose", "--input", "{dir}"],
        ["decompose", "--out", "{dir}"],
        ["validate", "--graph", "{dir}"],
        ["generate", "--kind", "grid", "--dot", "{dir}"],
    ])
    def test_directory_path_exit_one(self, capsys, monkeypatch, tmp_path, argv):
        code, out, err = invoke(capsys, monkeypatch,
                                [a.format(dir=tmp_path) for a in argv],
                                stdin=emit_graph(grid(2, 2)))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    def test_out_of_memory_exit_one(self, capsys, monkeypatch):
        from shallowtd import cli

        def exhausted(text):
            raise MemoryError          # as from "v 100000000" under a cap
        monkeypatch.setattr(cli, "parse_graph", exhausted)
        code, out, err = invoke(capsys, monkeypatch,
                                ["solve", "--problem", "mis"],
                                stdin="v 100000000\n")
        assert code == 1 and out == ""
        assert err == "error: out of memory\n"

    def test_self_loop_input_exit_one(self, capsys, monkeypatch):
        code, out, err = invoke(capsys, monkeypatch,
                                ["solve", "--problem", "mis"],
                                stdin="v 2\ne 0 0\ne 0 1\n")
        assert code == 1 and out == ""
        assert "self-loop" in err and "Traceback" not in err

    @pytest.mark.parametrize("problem", ["mis", "vc", "ds"])
    def test_solve_disconnected_with_and_without_rotations(
            self, capsys, monkeypatch, problem):
        plain = "v 4\ne 0 1\ne 2 3\n"
        embedded = plain + "rot 0 0\nrot 1 1\nrot 2 2\nrot 3 3\n"
        values = []
        for text in (plain, embedded):
            code, out, err = invoke(capsys, monkeypatch,
                                    ["solve", "--problem", problem], stdin=text)
            report = json.loads(out)
            assert code == 0 and err == "" and report["verified"]
            values.append(report["value"])
        assert values == [2, 2]

    @pytest.mark.parametrize("problem, value", [("mis", 2), ("vc", 1),
                                                ("ds", 2)])
    def test_solve_isolated_vertex_beside_embedded_edge(
            self, capsys, monkeypatch, problem, value):
        # n - m + f = 3 - 1 + 1: not connected, so not the planar path
        text = "v 3\ne 0 1\nrot 0 0\nrot 1 1\nrot 2\n"
        code, out, err = invoke(capsys, monkeypatch,
                                ["solve", "--problem", problem], stdin=text)
        report = json.loads(out)
        assert code == 0 and err == "" and report["verified"]
        assert report["value"] == value

    @pytest.mark.parametrize("problem", ["mis", "vc", "ds"])
    def test_solve_two_dart_face(self, capsys, monkeypatch, problem):
        # parallel edges bound a face of two darts; min-degree needs no
        # triangulation
        code, out, err = invoke(capsys, monkeypatch,
                                ["solve", "--problem", problem], stdin=DIGON)
        report = json.loads(out)
        assert code == 0 and err == "" and report["verified"]
        assert report["value"] == oracle_solve(problem,
                                               parse_graph(DIGON).graph)[0]

    @pytest.mark.parametrize("problem", ["mis", "vc", "ds"])
    def test_ptas_two_dart_face(self, capsys, monkeypatch, problem):
        # the later parallel edge is dropped before the band host is
        # triangulated
        code, out, err = invoke(capsys, monkeypatch,
                                ["ptas", "--problem", problem, "--k", "2"],
                                stdin=DIGON)
        report = json.loads(out)
        assert code == 0 and err == "" and report["bound_checked"]
        g = parse_graph(DIGON).graph
        opt = oracle_solve(problem, g)[0]
        check_solution(problem, g, set(report["witness"]))
        assert report["value"] == len(report["witness"])
        if problem == "mis":
            assert report["value"] >= opt - opt // 2
        elif problem == "vc":
            assert report["value"] <= opt + opt // 2
        else:
            assert report["value"] <= opt + 2 * math.ceil(opt / 2)

    def test_subiso_two_dart_face(self, capsys, monkeypatch, tmp_path):
        pattern = tmp_path / "p.txt"
        pattern.write_text("v 2\ne 0 1\n")
        code, out, err = invoke(capsys, monkeypatch,
                                ["subiso", "--pattern", str(pattern)],
                                stdin=DIGON)
        report = json.loads(out)
        assert code == 0 and err == "" and report["found"]
        u, v = report["mapping"]
        assert parse_graph(DIGON).graph.adjacent(u, v)

    @pytest.mark.parametrize("files, line", [
        pytest.param({"g.g": "v 2\ne 0 y\n", "g.td": "td 1 1 2\nb 0 0 1\n"},
                     "line 2: a field of 'e 0 y' is not an integer",
                     id="graph"),
        pytest.param({"g.g": "v 2\ne 0 1\n", "g.td": "td 1 1 2\nb 0 0 x\n"},
                     "line 2: a field of 'b 0 0 x' is not an integer",
                     id="decomposition")])
    def test_non_integer_token_names_its_line(self, capsys, monkeypatch,
                                              tmp_path, files, line):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code, out, err = invoke(capsys, monkeypatch,
                                ["validate", "--graph", str(tmp_path / "g.g"),
                                 "--td", str(tmp_path / "g.td")])
        assert code == 1 and out == ""
        assert err == f"error: {line}\n"

    def test_genus_decompose_single_vertex(self, capsys, monkeypatch):
        # no edge, so no face: the dual tree is empty
        code, out, err = invoke(capsys, monkeypatch,
                                ["decompose", "--method", "genus"],
                                stdin="v 1\nrot 0\n")
        report = json.loads(out)
        assert code == 0 and err == "" and report["valid"]
        td, host_n = parse_td(report["decomposition"])
        assert host_n == 1 and td.bags == [(0,)]


class TestFrame:
    """Every subcommand runs through run(): one parser, one clock, one
    report writer."""

    @pytest.mark.parametrize("argv, code", [
        pytest.param(["decompose", "--input", "{g}"], 0, id="decompose"),
        pytest.param(["decompose", "--method", "heuristic", "--input", "{g}"],
                     0, id="decompose-heuristic"),
        pytest.param(["validate", "--graph", "{g}", "--td", "{td}"], 0,
                     id="validate"),
        pytest.param(["validate", "--graph", "{g}", "--td", "{bad}"], 1,
                     id="validate-mismatch"),
        pytest.param(["solve", "--problem", "ds", "--input", "{g}"], 0,
                     id="solve"),
        pytest.param(["ptas", "--problem", "vc", "--k", "2", "--input", "{g}"],
                     0, id="ptas"),
        pytest.param(["subiso", "--pattern", "{p}", "--input", "{g}"], 0,
                     id="subiso"),
        pytest.param(["oracle", "--problem", "mis", "--input", "{g}"], 0,
                     id="oracle-mis"),
        pytest.param(["oracle", "--problem", "treewidth", "--input", "{g}"],
                     0, id="oracle-treewidth"),
        pytest.param(["oracle", "--problem", "subiso", "--pattern", "{p}",
                      "--input", "{g}"], 0, id="oracle-subiso"),
    ])
    def test_report_key_order(self, capsys, monkeypatch, tmp_path, argv,
                              code):
        files = {"g": tmp_path / "g.txt", "td": tmp_path / "g.td",
                 "bad": tmp_path / "bad.td", "p": tmp_path / "p.txt"}
        files["g"].write_text(emit_graph(grid(3, 3)))
        files["td"].write_text("td 1 8 9\nb 0 " + " ".join(map(str, range(9)))
                               + "\n")
        files["bad"].write_text("td 1 1 4\nb 0 0 1\n")
        files["p"].write_text("v 2\ne 0 1\n")
        got, out, _ = invoke(capsys, monkeypatch,
                             [a.format(**files) for a in argv])
        keys = list(json.loads(out))
        assert got == code
        assert keys[:2] == ["command", "input_fingerprint"]
        assert keys[-2:] == ["version", "wall_time"]
        assert out.count("\n") == 1 and out.endswith("\n")

    def test_bench_report_starts_with_command(self, capsys, monkeypatch):
        from shallowtd import bench
        monkeypatch.setattr(bench, "run_bench",
                            lambda max_edges, repeats: {"rows": []})
        code, out, _ = invoke(capsys, monkeypatch, ["bench"])
        assert code == 0
        assert list(json.loads(out)) == ["command", "rows", "version",
                                         "wall_time"]

    def test_back_to_back_runs_share_no_parser_state(self, capsys,
                                                     monkeypatch):
        # grid(5, 5): the default root, the double-sweep midpoint, is 4
        text = emit_graph(grid(5, 5))
        roots = []
        for argv in (["decompose", "--root", "0"], ["decompose"],
                     ["decompose", "--root", "3"], ["decompose"]):
            code, out, _ = invoke(capsys, monkeypatch, argv, stdin=text)
            assert code == 0
            roots.append(json.loads(out)["root"])
        assert roots == [0, 4, 3, 4]

    def test_solver_is_looked_up_at_call_time(self, capsys, monkeypatch):
        # a wrapper bound onto the module attribute, as a tracer binds it,
        # is the solver that runs
        from shallowtd import cli
        calls = []

        def counting(nd, g):
            calls.append(g.n)
            return dp_mis(nd, g)

        monkeypatch.setattr(cli, "dp_mis", counting)
        code, out, _ = invoke(capsys, monkeypatch,
                              ["solve", "--problem", "mis"],
                              stdin=emit_graph(grid(3, 3)))
        assert code == 0 and json.loads(out)["value"] == 5
        assert calls == [9]

    @pytest.mark.parametrize("raised, code", [
        pytest.param(None, 0, id="success"),
        pytest.param(GraphInputError("refused"), 1, id="domain-error"),
        pytest.param(MemoryError(), 1, id="out-of-memory"),
        pytest.param(RuntimeError("bug"), None, id="escaping-bug"),
    ])
    @pytest.mark.parametrize("collecting", [True, False],
                             ids=["collector-on", "collector-off"])
    def test_handler_runs_with_the_collector_paused(
            self, capsys, monkeypatch, raised, code, collecting):
        from shallowtd import cli
        seen = []

        def recording(nd, g):
            seen.append(gc.isenabled())
            if raised is not None:
                raise raised
            return dp_mis(nd, g)

        monkeypatch.setattr(cli, "dp_mis", recording)
        argv = ["solve", "--problem", "mis"]
        stdin = emit_graph(grid(3, 3))
        gc.enable() if collecting else gc.disable()
        try:
            if code is None:
                with pytest.raises(RuntimeError, match="bug"):
                    invoke(capsys, monkeypatch, argv, stdin=stdin)
                got = None
            else:
                got, _, _ = invoke(capsys, monkeypatch, argv, stdin=stdin)
            after = gc.isenabled()
        finally:
            gc.enable()
        assert got == code and seen == [False]
        assert after == collecting          # the caller's state, restored

    @pytest.mark.parametrize("collecting", [True, False],
                             ids=["collector-on", "collector-off"])
    def test_usage_error_keeps_the_callers_collector_state(
            self, capsys, monkeypatch, collecting):
        gc.enable() if collecting else gc.disable()
        try:
            code, _, _ = invoke(capsys, monkeypatch,
                                ["solve", "--problem", "nope"])
            after = gc.isenabled()
        finally:
            gc.enable()
        assert code == 2 and after == collecting

    def test_commands_leave_no_cyclic_garbage_of_their_own(
            self, capsys, monkeypatch, tmp_path):
        # the pause is safe only while reference counting frees everything
        # the program builds: a cycle among its objects (say, a closure that
        # refers to itself in a DP engine) would grow memory until the
        # caller's collector runs, so it must fail here instead.  After a
        # warm-up run has built the parser, a command leaves no cyclic
        # garbage at all: the report is one json.dumps (the C encoder)
        files = {"g": tmp_path / "g.txt", "t": tmp_path / "t.txt",
                 "g16": tmp_path / "g16.txt", "p": tmp_path / "p.txt",
                 "td": tmp_path / "g.td"}
        files["g"].write_text(emit_graph(grid(6, 6)))
        files["t"].write_text(emit_graph(toroidal_grid(5, 6)))
        files["g16"].write_text(emit_graph(grid(16, 16)))
        files["p"].write_text("v 4\ne 0 1\ne 0 2\ne 0 3\n")
        commands = [
            (["decompose", "--method", "planar-bfs", "--input", "{g}",
              "--out", "{td}"], 0),
            (["decompose", "--method", "genus", "--input", "{t}"], 0),
            (["solve", "--problem", "mis", "--input", "{g}"], 0),
            (["solve", "--problem", "ds", "--input", "{g}"], 0),
            (["ptas", "--problem", "ds", "--k", "2", "--input", "{g}"], 0),
            (["subiso", "--pattern", "{p}", "--input", "{g}"], 0),
            (["validate", "--graph", "{g}", "--td", "{td}"], 0),
            (["ptas", "--problem", "ds", "--k", "12", "--input", "{g16}"],
             1),                                  # the DP state budget
        ]
        argvs = [[a.format(**files) for a in argv] for argv, _ in commands]
        invoke(capsys, monkeypatch, argvs[0])   # warm-up: the parser, imports
        gc.collect()                        # garbage from before this test
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            codes = [invoke(capsys, monkeypatch, argv)[0] for argv in argvs]
            gc.collect()
            garbage = [repr(obj)[:80] for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert codes == [code for _, code in commands]
        assert garbage == []


# ---------------------------------------------------------------------------
# Mutated input: every command exits 0, 1 or 2, and nothing escapes run().

FUZZ_HOSTS = [emit_graph(grid(3, 3)), emit_graph(toroidal_grid(3, 3)),
              emit_graph(wall(2)[1]),
              emit_graph(random_planar_triangulation(8, 1)),
              "v 6\ne 0 1\ne 1 2\ne 2 0\ne 2 3\ne 3 4\ne 4 5\n"]
FUZZ_COMMANDS = [
    ["decompose", "--method", "planar-bfs"],
    ["decompose", "--method", "genus"],
    ["decompose", "--method", "heuristic"],
    ["solve", "--problem", "mis"], ["solve", "--problem", "ds"],
    ["ptas", "--problem", "vc", "--k", "2"],
    ["ptas", "--problem", "ds", "--k", "3"],
    ["subiso", "--pattern", "{triangle}"],
    ["oracle", "--problem", "mis"],
    ["validate", "--graph", "{graph}"],
]
FUZZ_KEYWORDS = ["v", "e", "rot", "td", "b", "t", "x"]


def _mutated(draw, text: str) -> str:
    """`text` after one to three mutations: a line dropped, duplicated or
    swapped with another, one integer changed, or a keyword changed.  New
    integers stay small, so that no case allocates much memory; running
    out of memory has its own test."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["drop", "duplicate", "swap", "integer",
                                    "keyword"]))
        words = lines[i].split()
        if how == "drop":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, lines[i])
        elif how == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif how == "integer" and len(words) > 1:
            words[draw(st.integers(1, len(words) - 1))] = str(
                draw(st.integers(-3, 40)))
            lines[i] = " ".join(words)
        elif how == "keyword":
            words[0] = draw(st.sampled_from(FUZZ_KEYWORDS))
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    triangle = root / "triangle.txt"
    triangle.write_text("v 3\ne 0 1\ne 1 2\ne 2 0\n")
    return {"triangle": str(triangle), "graph": str(root / "graph.txt")}


def _host_td_text(text: str) -> str:
    obj = parse_graph(text)
    g = getattr(obj, "graph", obj)
    return emit_td(heuristic_td(g), g.n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_input_exits_zero_one_or_two(fuzz_files, data):
    host = data.draw(st.sampled_from(FUZZ_HOSTS))
    argv = [a.format(**fuzz_files)
            for a in data.draw(st.sampled_from(FUZZ_COMMANDS))]
    if argv[0] != "validate":
        stdin = _mutated(data.draw, host)
    else:
        # the decomposition on stdin, its host in a file; one is mutated
        stdin, graph_text = _host_td_text(host), host
        if data.draw(st.booleans()):
            stdin = _mutated(data.draw, stdin)
        else:
            graph_text = _mutated(data.draw, host)
        Path(fuzz_files["graph"]).write_text(graph_text)
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.object(sys, "stdin", io.StringIO(stdin)),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        code = run(argv)
    assert code in (0, 1, 2), (argv, stdin, err.getvalue())
    assert "Traceback" not in err.getvalue()


def run_optimized(args, cwd):
    """The CLI in a fresh interpreter under ``python -O``, which strips
    assert statements: every check it needs must raise on its own."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-O", "-c", "from shallowtd.cli import main; main()",
         *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


class TestOptimizedInterpreter:
    def test_decompose_valid(self, tmp_path):
        (tmp_path / "g.txt").write_text(emit_graph(grid(5, 5)))
        res = run_optimized(["decompose", "--input", "g.txt"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert '"valid": true' in res.stdout

    def test_validate_reports_broken_subtree(self, tmp_path):
        (tmp_path / "g.txt").write_text("v 3\ne 0 1\ne 1 2\ne 2 0\n")
        (tmp_path / "bad.td").write_text(
            "td 3 1 3\nb 0 0 1\nb 1 1 2\nb 2 0 2\nt 0 1\nt 1 2\n")
        res = run_optimized(["validate", "--graph", "g.txt", "--td", "bad.td"],
                            tmp_path)
        assert res.returncode == 1
        report = json.loads(res.stdout)
        assert not report["valid"]
        assert report["violation"] == ("bags containing a vertex do not form "
                                       "a subtree")

    def test_two_dart_face_decomposes(self, tmp_path):
        # the later parallel edge is dropped before triangulating
        (tmp_path / "g.txt").write_text(DIGON)
        res = run_optimized(["decompose", "--root", "0", "--input", "g.txt",
                             "--out", "g.td"], tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["valid"] and report["bound_checked"]
        td, host_n = parse_td((tmp_path / "g.td").read_text())
        assert host_n == 3 and validate(td, parse_graph(DIGON).graph).valid

    def test_solve_ds(self, tmp_path):
        (tmp_path / "g.txt").write_text(emit_graph(grid(4, 4)))
        res = run_optimized(["solve", "--problem", "ds", "--input", "g.txt"],
                            tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["verified"]
        assert report["value"] == 4        # domination number of the 4x4 grid

    def test_ptas_ds(self, tmp_path):
        (tmp_path / "g.txt").write_text(emit_graph(grid(4, 4)))
        res = run_optimized(["ptas", "--problem", "ds", "--k", "2",
                             "--input", "g.txt"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["bound_checked"]

    def test_subiso_k4_in_triangulation(self, tmp_path):
        # K4 is one twin class, so its images come from the class witness
        (tmp_path / "g.txt").write_text(
            emit_graph(random_planar_triangulation(12, 3)))
        (tmp_path / "k4.txt").write_text(
            "v 4\n" + "".join(f"e {a} {b}\n" for a in range(4)
                              for b in range(a + 1, 4)))
        res = run_optimized(["subiso", "--input", "g.txt",
                             "--pattern", "k4.txt"], tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["found"] and report["verified"]
        assert '"verified": true' in res.stdout


def run_module(args, cwd, stdin="") -> subprocess.CompletedProcess:
    """``python -m shallowtd.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "shallowtd.cli", *args],
                          cwd=cwd, env=env, input=stdin, capture_output=True,
                          text=True, timeout=120)


class TestModuleEntryPoint:
    def test_solve_writes_a_report(self, tmp_path):
        res = run_module(["solve", "--problem", "mis"], tmp_path,
                         stdin=emit_graph(grid(3, 3)))
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["command"] == "solve" and report["verified"]
        assert report["value"] == 5        # independence number of the 3x3 grid

    def test_help_prints_usage(self, tmp_path):
        res = run_module(["--help"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("usage: shallowtd")


def run_fresh(code: str, args, cwd) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter in development mode, which warns about
    every file left unclosed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-X", "dev", "-c", code, *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


class TestFreshInterpreter:
    def test_import_leaves_numpy_out(self, tmp_path):
        # the package has no runtime dependency; numpy is a test-only import
        res = run_fresh("import sys, shallowtd.cli; "
                        "print('numpy' in sys.modules)", [], tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_input_files_are_closed(self, tmp_path):
        (tmp_path / "g.txt").write_text(emit_graph(grid(3, 3)))
        (tmp_path / "p.txt").write_text("v 2\ne 0 1\n")
        main = "from shallowtd.cli import main; main()"
        for argv in (["subiso", "--input", "g.txt", "--pattern", "p.txt"],
                     ["oracle", "--problem", "subiso", "--input", "g.txt",
                      "--pattern", "p.txt"]):
            res = run_fresh(main, argv, tmp_path)
            assert res.returncode == 0, res.stderr
            assert "ResourceWarning" not in res.stderr
