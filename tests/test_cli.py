"""Command-line interface: exit codes, JSON reports, artifact round-trips."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reference_planar
from conftest import DIGON, relabel_embedded, witness_entry
from shallowtd.cli import run
from shallowtd.decomp import heuristic_td, parse_td, validate
from shallowtd.dp import check_solution, dp_mis
from shallowtd.generators import (grid, random_planar_triangulation,
                                  toroidal_grid, wall)
from shallowtd.genus_td import cut_graph
from shallowtd.graph import emit_graph, parse_graph
from shallowtd.oracles import oracle_solve
from shallowtd.planar_td import min_eccentricity_root, planar_bfs_td

SRC = Path(__file__).resolve().parents[1] / "src"

# a labelling of grid(4, 5) under which min-degree elimination is wider
# (5) than planar_bfs_td (4); solve still runs on min-degree
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

    # solve builds min-degree alone for every host, the relabelled grid4x5
    # included, where planar_bfs_td would be one narrower
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
        pytest.param(random_planar_triangulation(12, 1), id="tri12")])
    @pytest.mark.parametrize("problem", ["mis", "vc", "ds"])
    def test_solve_runs_on_the_narrower_decomposition(self, capsys,
                                                      monkeypatch, e, problem):
        g = e.graph
        code, out, err = invoke(capsys, monkeypatch,
                                ["solve", "--problem", problem],
                                stdin=emit_graph(e))
        report = json.loads(out)
        assert code == 0 and err == "" and report["verified"]
        assert report["width"] == heuristic_td(g).width
        assert "method" not in report
        assert report["value"] == oracle_solve(problem, g)[0]

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
        # the cost of solving on min-degree alone: it breaks ties on vertex
        # ids, and under this labelling it ends one wider than the BFS
        # construction
        e = relabel_embedded(grid(4, 5), GRID4X5_LABELS)
        assert planar_bfs_td(e, min_eccentricity_root(e.graph)).width == 4
        assert heuristic_td(e.graph).width == 5

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
        # grid(5, 5): the min-eccentricity root is the centre, vertex 12
        text = emit_graph(grid(5, 5))
        roots = []
        for argv in (["decompose", "--root", "0"], ["decompose"],
                     ["decompose", "--root", "3"], ["decompose"]):
            code, out, _ = invoke(capsys, monkeypatch, argv, stdin=text)
            assert code == 0
            roots.append(json.loads(out)["root"])
        assert roots == [0, 12, 3, 12]

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
