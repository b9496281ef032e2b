"""The streaming line reader that ``shallowtd.graph.text_columns`` replaced.

``text_records`` yields one record per line and ``parse_graph`` and
``parse_td`` check each record as it comes, so the first faulty line in
file order is the one named.  The property tests require the block-wise
reader to give equal objects or the same GraphInputError message on every
input.
"""

from __future__ import annotations

import math

from shallowtd.decomp import TreeDecomposition
from shallowtd.graph import (MAX_VERTICES, EmbeddedGraph, Graph,
                             GraphInputError, build_graph, embed)


def text_records(text: str, shapes: dict[str, tuple[int, float]]):
    """(line number, keyword, integer fields) per non-blank line of `text`
    without ``#`` comments; `shapes` maps keywords to least and most field
    counts.  Any other line raises GraphInputError naming its number."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        shape = shapes.get(parts[0])
        if shape is None or not shape[0] <= len(parts) - 1 <= shape[1]:
            raise GraphInputError(f"line {lineno}: cannot parse {raw!r}")
        try:
            fields = list(map(int, parts[1:]))
        except ValueError:
            raise GraphInputError(f"line {lineno}: a field of {raw!r} is not "
                                  "an integer") from None
        yield lineno, parts[0], fields


def parse_graph(text: str) -> Graph | EmbeddedGraph:
    """Parse the `v/e/rot` format; returns an EmbeddedGraph when rotation
    lines are present.  Self-loop lines are rejected as malformed input; a
    loop that a library caller passes to ``build_graph`` constrains no
    solver, checker or oracle."""
    n = None
    edges: list[tuple[int, int]] = []
    rot: dict[int, list[int]] = {}
    rot_line: dict[int, int] = {}       # vertex -> its rot line's number
    for lineno, key, fields in text_records(
            text, {"v": (1, 1), "e": (2, 2), "rot": (1, math.inf)}):
        if key == "v":
            if n is not None:
                raise GraphInputError(f"line {lineno}: duplicate v line")
            n = fields[0]
            if n > MAX_VERTICES:
                raise GraphInputError(f"line {lineno}: {n} vertices exceed "
                                      f"the budget of {MAX_VERTICES}")
        elif key == "e":
            u, v = fields
            if u == v:
                raise GraphInputError(f"line {lineno}: self-loop at vertex {u}")
            edges.append((u, v))
        else:
            v = fields[0]
            if v in rot:
                raise GraphInputError(f"line {lineno}: duplicate rot line "
                                      f"for vertex {v}")
            rot[v], rot_line[v] = fields[1:], lineno
    if n is None:
        raise GraphInputError("missing v line")
    stray = next((v for v in rot if not 0 <= v < n), None)
    if stray is not None:
        raise GraphInputError(f"line {rot_line[stray]}: rot line for vertex "
                              f"{stray}, outside [0, {n})")
    g = build_graph(n, edges)
    if not rot:
        return g
    rotation = [rot.get(v, []) for v in range(n)]
    return embed(g, rotation)


def parse_td(text: str) -> tuple[TreeDecomposition, int]:
    """The decomposition in ``emit_td``'s format and its host's vertex
    count.  Malformed text raises GraphInputError naming its line; whether
    the bags decompose a graph is ``validate``'s question."""
    header = None                       # (line number, nodes, width, host_n)
    bags: dict[int, tuple[int, ...]] = {}
    bag_line: dict[int, int] = {}       # node -> its b line's number
    tree_edges: list[tuple[int, int]] = []
    for lineno, key, fields in text_records(
            text, {"td": (3, 3), "b": (1, math.inf), "t": (2, 2)}):
        if key == "td":
            if header is not None:
                raise GraphInputError(f"line {lineno}: duplicate td line")
            header = (lineno, *fields)
            if min(header[1], header[3]) < 0:
                raise GraphInputError(f"line {lineno}: negative node or "
                                      "host vertex count")
            if header[3] > MAX_VERTICES or header[1] > 2 * MAX_VERTICES:
                raise GraphInputError(f"line {lineno}: over the budget of "
                                      f"{MAX_VERTICES} host vertices and "
                                      f"{2 * MAX_VERTICES} nodes")
        elif key == "b":
            node, bag = fields[0], fields[1:]
            if node in bags:
                raise GraphInputError(f"line {lineno}: duplicate b line for "
                                      f"node {node}")
            if len(set(bag)) != len(bag):
                raise GraphInputError(f"line {lineno}: bag {node} lists a "
                                      "vertex twice")
            bags[node], bag_line[node] = tuple(sorted(bag)), lineno
        else:
            tree_edges.append((fields[0], fields[1]))
    if header is None:
        raise GraphInputError("missing td header line")
    lineno, nodes, width, host_n = header
    stray = next((x for x in bags if not 0 <= x < nodes), None)
    if stray is not None:
        raise GraphInputError(f"line {bag_line[stray]}: b line for node "
                              f"{stray}, outside [0, {nodes})")
    td = TreeDecomposition(nodes=nodes, tree_edges=tree_edges,
                           bags=[bags.get(i, ()) for i in range(nodes)])
    if td.width != width:
        raise GraphInputError(f"line {lineno}: header width {width}, but the "
                              f"bags have width {td.width}")
    return td, host_n
