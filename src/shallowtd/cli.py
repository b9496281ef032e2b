"""Command-line front end: generation, decomposition, validation, exact and
approximate solving, pattern search, oracles, and the kernel benchmark.

Exit codes: 0 success, 1 domain error (invalid or infeasible input),
2 usage error.  Reports are JSON on stdout (graph and decomposition text
formats where noted); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from .baker import _ptas_detail
from .decomp import (TreeDecomposition, emit_td, heuristic_td, make_nice,
                     parse_td, validate)
from .dp import (SolutionCheckError, check_solution, dp_ds, dp_mis, dp_vc,
                 subiso_driver, verify_subiso)
from .generators import (apex_over_grid, grid, random_planar_triangulation,
                         toroidal_grid, wall)
from .genus_td import GenusPipelineError, genus_td
from .graph import (EmbeddedGraph, Graph, GraphInputError, eccentricity,
                    emit_graph, parse_graph, planar_is_connected)
from .oracles import (OracleBudgetError, OracleCheckError, exact_treewidth,
                      oracle_solve, subiso_backtracking)
from .planar_td import min_eccentricity_root, planar_bfs_td

# GraphInputError and EmbeddingError are ValueErrors; OSError covers a
# missing, unreadable or directory path for any file option.
_DOMAIN_ERRORS = (GenusPipelineError, SolutionCheckError, OracleBudgetError,
                  OracleCheckError, ValueError, OSError)


def _read_text(path: str | None) -> str:
    """The text of the file at `path`, or of stdin when `path` is None or
    "-"."""
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _plain(obj: Graph | EmbeddedGraph) -> Graph:
    return obj.graph if isinstance(obj, EmbeddedGraph) else obj


def _need_embedding(obj) -> EmbeddedGraph:
    if not isinstance(obj, EmbeddedGraph):
        raise GraphInputError("this command needs rotation lines "
                              "(an embedded graph) on input")
    return obj


def _fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _report(payload: dict, started: float) -> None:
    payload.setdefault("version", __version__)
    payload["wall_time"] = round(time.perf_counter() - started, 6)
    json.dump(payload, sys.stdout, default=sorted)
    sys.stdout.write("\n")


def _dot_graph(g: Graph) -> str:
    lines = ["graph G {"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in g.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_td(td: TreeDecomposition) -> str:
    lines = ["graph TD {"]
    for i, bag in enumerate(td.bags):
        label = "{" + ",".join(map(str, bag)) + "}"
        lines.append(f'  {i} [label="{label}"];')
    lines += [f"  {a} -- {b};" for a, b in td.tree_edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write_dot(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_generate(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("SHALLOW_SEED", "0"))
    if args.kind == "grid":
        obj = grid(args.rows, args.cols)
    elif args.kind == "torus":
        obj = toroidal_grid(args.rows, args.cols)
    elif args.kind == "apex":
        obj = apex_over_grid(args.size)
    elif args.kind == "wall":
        obj = wall(args.size)[1]
    elif args.kind == "random-triangulation":
        obj = random_planar_triangulation(args.size, seed)
    else:  # pragma: no cover - argparse restricts choices
        raise GraphInputError(f"unknown kind {args.kind!r}")
    sys.stdout.write(emit_graph(obj))
    _write_dot(args.dot, _dot_graph(_plain(obj)))
    return 0


def _cmd_decompose(args) -> int:
    started = time.perf_counter()
    text = _read_text(args.input)
    obj = parse_graph(text)
    g = _plain(obj)
    if args.method == "heuristic":
        td = heuristic_td(g)
    else:
        root = args.root if args.root is not None else min_eccentricity_root(g)
        if args.method == "planar-bfs":
            td = planar_bfs_td(_need_embedding(obj), root)
        else:
            td, bound = genus_td(_need_embedding(obj), root)
    rep = validate(td, g)
    td_text = emit_td(td, g.n)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(td_text)
    _write_dot(args.dot, _dot_td(td))
    payload = {
        "command": "decompose",
        "input_fingerprint": _fingerprint(text),
        "method": args.method,
    }
    if args.method == "heuristic":      # no root: min-degree needs none
        payload.update(width=td.width, valid=rep.valid, nodes=td.nodes)
    else:
        depth = eccentricity(g, root)
        if args.method == "planar-bfs":
            bound = 3 * depth
        payload.update(root=root, width=td.width, valid=rep.valid,
                       nodes=td.nodes, depth=depth, width_bound=bound,
                       bound_checked=td.width <= bound)
    if not args.out:
        payload["decomposition"] = td_text
    _report(payload, started)
    return 0 if rep.valid else 1


def _cmd_validate(args) -> int:
    started = time.perf_counter()
    gtext = _read_text(args.graph)
    ttext = _read_text(args.td)
    g = _plain(parse_graph(gtext))
    td, host_n = parse_td(ttext)
    if host_n != g.n:
        rep_payload = {"command": "validate", "valid": False,
                       "violation": f"decomposition is for a {host_n}-vertex "
                                    f"host, graph has {g.n}"}
        _report(rep_payload, started)
        return 1
    rep = validate(td, g)
    _report({
        "command": "validate",
        "input_fingerprint": _fingerprint(gtext + ttext),
        "valid": rep.valid,
        "width": rep.width,
        "violation": rep.violation,
    }, started)
    return 0 if rep.valid else 1


def _solvers():
    return {"mis": dp_mis, "vc": dp_vc,
            "ds": lambda nd, g: dp_ds(nd, g, set(range(g.n)))}


def _feasible(problem: str, g: Graph, s: set[int]) -> bool:
    try:
        check_solution(problem, g, s)
    except SolutionCheckError:
        return False
    return True


def _cmd_solve(args) -> int:
    started = time.perf_counter()
    text = _read_text(args.input)
    obj = parse_graph(text)
    g = _plain(obj)
    method, td = "heuristic", heuristic_td(g)
    # min-degree is narrower on most planar hosts, but it breaks ties on
    # vertex ids and some labellings make it the wider one (a relabelled
    # 4x5 grid: 5 against 4), so a planar host gets both
    if (isinstance(obj, EmbeddedGraph) and obj.euler_genus == 0 and g.n
            and planar_is_connected(obj)):
        planar = planar_bfs_td(obj, min_eccentricity_root(g))
        if planar.width <= td.width:    # ties go to the paper's construction
            method, td = "planar-bfs", planar
    witness = _solvers()[args.problem](make_nice(td), g)
    _report({
        "command": "solve",
        "input_fingerprint": _fingerprint(text),
        "problem": args.problem,
        "method": method,
        "width": td.width,
        "value": len(witness),
        "witness": sorted(witness),
        "verified": _feasible(args.problem, g, witness),
    }, started)
    return 0


def _cmd_ptas(args) -> int:
    started = time.perf_counter()
    text = _read_text(args.input)
    e = _need_embedding(parse_graph(text))
    detail = _ptas_detail(e, args.problem, args.k)
    _report({
        "command": "ptas",
        "input_fingerprint": _fingerprint(text),
        "problem": args.problem,
        "k": args.k,
        "value": len(detail.chosen),
        "witness": sorted(detail.chosen),
        "offset_chosen": detail.per_component_offsets,
        "per_offset_values": detail.per_offset_values,
        "bound_checked": _feasible(args.problem, e.graph, detail.chosen),
    }, started)
    return 0


def _cmd_subiso(args) -> int:
    started = time.perf_counter()
    text = _read_text(args.input)
    e = _need_embedding(parse_graph(text))
    h = _plain(parse_graph(_read_text(args.pattern)))
    mapping = subiso_driver(e, h, induced=args.induced)
    _report({
        "command": "subiso",
        "input_fingerprint": _fingerprint(text),
        "pattern_vertices": h.n,
        "induced": args.induced,
        "found": mapping is not None,
        "mapping": None if mapping is None else [mapping[q] for q in range(h.n)],
        "verified": mapping is None or verify_subiso(e.graph, h, mapping,
                                                     args.induced),
    }, started)
    return 0


def _cmd_oracle(args) -> int:
    started = time.perf_counter()
    text = _read_text(args.input)
    g = _plain(parse_graph(text))
    payload = {"command": "oracle", "input_fingerprint": _fingerprint(text),
               "problem": args.problem}
    if args.problem in ("mis", "vc", "ds"):
        value, witness = oracle_solve(args.problem, g)
        payload.update(value=value, witness=sorted(witness))
    elif args.problem == "treewidth":
        width, td = exact_treewidth(g)
        payload.update(value=width, valid=validate(td, g).valid,
                       decomposition=emit_td(td, g.n))
    else:  # subiso
        if not args.pattern:
            raise GraphInputError("oracle subiso needs --pattern")
        h = _plain(parse_graph(_read_text(args.pattern)))
        res = subiso_backtracking(g, h, induced=args.induced)
        payload.update(found=res.mapping is not None, count=res.count,
                       mapping=None if res.mapping is None
                       else [res.mapping[q] for q in range(h.n)])
    _report(payload, started)
    return 0


def _cmd_bench(args) -> int:
    started = time.perf_counter()
    from .bench import run_bench
    payload = run_bench(max_edges=args.max_edges, repeats=args.repeats)
    payload["command"] = "bench"
    _report(payload, started)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="shallowtd",
        description="Narrow tree decompositions of shallow planar and "
                    "bounded-genus graphs, with slicing-based solvers.")
    sub = p.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("generate", help="emit a graph in text format")
    gen.add_argument("--kind", required=True,
                     choices=["grid", "torus", "apex", "wall",
                              "random-triangulation"])
    gen.add_argument("--rows", type=int, default=3)
    gen.add_argument("--cols", type=int, default=3)
    gen.add_argument("--size", type=int, default=3)
    gen.add_argument("--seed", type=int, default=None,
                     help="overrides SHALLOW_SEED")
    gen.add_argument("--dot", metavar="FILE", default=None)
    gen.set_defaults(func=_cmd_generate)

    dec = sub.add_parser("decompose", help="tree-decompose a graph")
    dec.add_argument("--method", default="planar-bfs",
                     choices=["planar-bfs", "genus", "heuristic"])
    dec.add_argument("--root", type=int, default=None)
    dec.add_argument("--input", default=None, help="graph file (default stdin)")
    dec.add_argument("--out", default=None, help="write decomposition text here")
    dec.add_argument("--dot", metavar="FILE", default=None)
    dec.set_defaults(func=_cmd_decompose)

    val = sub.add_parser("validate", help="check a decomposition against a graph")
    val.add_argument("--graph", required=True)
    val.add_argument("--td", default=None, help="decomposition file (default stdin)")
    val.set_defaults(func=_cmd_validate)

    sol = sub.add_parser("solve", help="exact solve via tree-decomposition DP")
    sol.add_argument("--problem", required=True, choices=["mis", "vc", "ds"])
    sol.add_argument("--input", default=None)
    sol.set_defaults(func=_cmd_solve)

    pt = sub.add_parser("ptas", help="level-slicing approximation scheme")
    pt.add_argument("--problem", required=True, choices=["mis", "vc", "ds"])
    pt.add_argument("--k", type=int, required=True)
    pt.add_argument("--input", default=None)
    pt.set_defaults(func=_cmd_ptas)

    si = sub.add_parser("subiso", help="fixed-pattern search in a planar host")
    si.add_argument("--pattern", required=True)
    si.add_argument("--induced", action="store_true")
    si.add_argument("--input", default=None)
    si.set_defaults(func=_cmd_subiso)

    orc = sub.add_parser("oracle", help="brute-force reference solvers")
    orc.add_argument("--problem", required=True,
                     choices=["mis", "vc", "ds", "treewidth", "subiso"])
    orc.add_argument("--pattern", default=None)
    orc.add_argument("--induced", action="store_true")
    orc.add_argument("--input", default=None)
    orc.set_defaults(func=_cmd_oracle)

    ben = sub.add_parser("bench", help="decomposition kernel benchmark")
    ben.add_argument("--max-edges", type=int, default=100_000)
    ben.add_argument("--repeats", type=int, default=3)
    ben.set_defaults(func=_cmd_bench)
    return p


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:          # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        if args.cmd == "ptas" and args.k < 2:
            print("ptas: --k must be at least 2", file=sys.stderr)
            return 2
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())
