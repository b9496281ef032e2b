"""Command-line front end: generation, decomposition, validation, exact and
approximate solving, pattern search, oracles, and the kernel benchmark.

Every subcommand runs in one frame, `run`: the parser is built once per
process, a handler returns `(report, exit_code)`, and `run` times it, maps a
domain error to exit 1 and writes the report as one JSON line on stdout
(`command` first, `version` and `wall_time` last; `generate` writes graph
text instead).  Exit codes: 0 success, 1 domain error (invalid or
infeasible input), 2 usage error (argparse, including `ptas --k` below 2
and `bench --repeats` below 1).  Diagnostics go to stderr.  Run it as
`shallowtd` or as `python -m shallowtd.cli`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from . import __version__
from .baker import _ptas_detail
from .decomp import (TreeDecomposition, emit_td, heuristic_td, make_nice,
                     parse_td, validate)
from .dp import SolutionCheckError, dp_ds, dp_mis, dp_vc, subiso_driver
from .generators import (apex_over_grid, grid, random_planar_triangulation,
                         toroidal_grid, wall)
from .genus_td import GenusPipelineError, genus_td
from .graph import (EmbeddedGraph, Graph, GraphInputError, eccentricity,
                    emit_graph, parse_graph)
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


def _fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _read_graph(path: str | None) -> tuple[Graph | EmbeddedGraph, str]:
    """The graph in the file at `path` (stdin when None or "-") and the
    fingerprint of its text."""
    text = _read_text(path)
    return parse_graph(text), _fingerprint(text)


def _plain(obj: Graph | EmbeddedGraph) -> Graph:
    return obj.graph if isinstance(obj, EmbeddedGraph) else obj


def _need_embedding(obj) -> EmbeddedGraph:
    if not isinstance(obj, EmbeddedGraph):
        raise GraphInputError("this command needs rotation lines "
                              "(an embedded graph) on input")
    return obj


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


def _cmd_generate(args) -> tuple[None, int]:
    if args.kind == "grid":
        obj = grid(args.rows, args.cols)
    elif args.kind == "torus":
        obj = toroidal_grid(args.rows, args.cols)
    elif args.kind == "apex":
        obj = apex_over_grid(args.size)
    elif args.kind == "wall":
        obj = wall(args.size)[1]
    else:  # random-triangulation; argparse restricts the choices
        obj = random_planar_triangulation(args.size, args.seed)
    sys.stdout.write(emit_graph(obj))
    _write_dot(args.dot, _dot_graph(_plain(obj)))
    return None, 0


def _cmd_decompose(args) -> tuple[dict, int]:
    obj, fingerprint = _read_graph(args.input)
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
    report = {"input_fingerprint": fingerprint, "method": args.method}
    if args.method == "heuristic":      # no root: min-degree needs none
        report.update(width=td.width, valid=rep.valid, nodes=td.nodes)
    else:
        depth = eccentricity(g, root)
        if args.method == "planar-bfs":
            bound = 3 * depth
        report.update(root=root, width=td.width, valid=rep.valid,
                      nodes=td.nodes, depth=depth, width_bound=bound,
                      bound_checked=td.width <= bound)
    if not args.out:
        report["decomposition"] = td_text
    return report, 0 if rep.valid else 1


def _cmd_validate(args) -> tuple[dict, int]:
    gtext = _read_text(args.graph)
    ttext = _read_text(args.td)
    g = _plain(parse_graph(gtext))
    td, host_n = parse_td(ttext)
    report = {"input_fingerprint": _fingerprint(gtext + ttext)}
    if host_n != g.n:
        report.update(valid=False,
                      violation=f"decomposition is for a {host_n}-vertex "
                                f"host, graph has {g.n}")
        return report, 1
    rep = validate(td, g)
    report.update(valid=rep.valid, width=rep.width, violation=rep.violation)
    return report, 0 if rep.valid else 1


# `verified` and `bound_checked` below are always true: dp_mis, dp_vc, dp_ds,
# _ptas_detail and subiso_driver check their result and raise
# SolutionCheckError, which exits 1 with no report, when the check fails.


def _cmd_solve(args) -> tuple[dict, int]:
    obj, fingerprint = _read_graph(args.input)
    g = _plain(obj)
    td = heuristic_td(g)
    # looked up at call time, so a wrapper rebound onto this module's
    # dp_mis, dp_vc or dp_ds (a tracer, a test) is the one that runs
    solver = {"mis": dp_mis, "vc": dp_vc, "ds": dp_ds}[args.problem]
    witness = solver(make_nice(td), g)
    return {"input_fingerprint": fingerprint, "problem": args.problem,
            "width": td.width, "value": len(witness),
            "witness": sorted(witness), "verified": True}, 0


def _cmd_ptas(args) -> tuple[dict, int]:
    obj, fingerprint = _read_graph(args.input)
    detail = _ptas_detail(_need_embedding(obj), args.problem, args.k)
    return {"input_fingerprint": fingerprint, "problem": args.problem,
            "k": args.k, "value": len(detail.chosen),
            "witness": sorted(detail.chosen),
            "offset_chosen": detail.per_component_offsets,
            "per_offset_values": detail.per_offset_values,
            "bound_checked": True}, 0


def _cmd_subiso(args) -> tuple[dict, int]:
    obj, fingerprint = _read_graph(args.input)
    e = _need_embedding(obj)
    h = _plain(_read_graph(args.pattern)[0])
    mapping = subiso_driver(e, h, induced=args.induced)
    return {"input_fingerprint": fingerprint, "pattern_vertices": h.n,
            "induced": args.induced, "found": mapping is not None,
            "mapping": None if mapping is None
            else [mapping[q] for q in range(h.n)],
            "verified": True}, 0


def _cmd_oracle(args) -> tuple[dict, int]:
    obj, fingerprint = _read_graph(args.input)
    g = _plain(obj)
    report = {"input_fingerprint": fingerprint, "problem": args.problem}
    if args.problem in ("mis", "vc", "ds"):
        value, witness = oracle_solve(args.problem, g)
        report.update(value=value, witness=sorted(witness))
    elif args.problem == "treewidth":
        width, td = exact_treewidth(g)
        report.update(value=width, valid=validate(td, g).valid,
                      decomposition=emit_td(td, g.n))
    else:  # subiso
        if not args.pattern:
            raise GraphInputError("oracle subiso needs --pattern")
        h = _plain(_read_graph(args.pattern)[0])
        res = subiso_backtracking(g, h, induced=args.induced)
        report.update(found=res.mapping is not None, count=res.count,
                      mapping=None if res.mapping is None
                      else [res.mapping[q] for q in range(h.n)])
    return report, 0


def _cmd_bench(args) -> tuple[dict, int]:
    from .bench import run_bench
    return run_bench(max_edges=args.max_edges, repeats=args.repeats), 0


# ---------------------------------------------------------------------------
# Argument parsing.


def _at_least(low: int):
    """argparse type: an integer of at least `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return parse


@functools.cache
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
    gen.add_argument("--seed", type=int, default=0)
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
    pt.add_argument("--k", type=_at_least(2), required=True)
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
    ben.add_argument("--repeats", type=_at_least(1), default=3)
    ben.set_defaults(func=_cmd_bench)
    return p


def run(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:          # argparse uses 2 for usage errors
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        report, code = args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if report is not None:
        json.dump({"command": args.cmd, **report, "version": __version__,
                   "wall_time": round(time.perf_counter() - started, 6)},
                  sys.stdout, default=sorted)
        sys.stdout.write("\n")
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
