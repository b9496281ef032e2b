"""Quadratic reference for ``shallowtd.decomp.validate``.

It scans every bag once per host vertex and once per host edge.  The
property tests require the linear-time validator to return an equal
``ValidationReport`` (verdict, violation and witness) on every input.
"""

from shallowtd.decomp import (TreeDecomposition, ValidationReport, _is_tree)
from shallowtd.graph import Graph


def validate_quadratic(td: TreeDecomposition, g: Graph) -> ValidationReport:
    width = td.width
    if len(td.bags) != td.nodes:
        return ValidationReport(False, width, "bag count does not match node count", None)
    if not _is_tree(td.nodes, td.tree_edges):
        return ValidationReport(False, width, "decomposition edges do not form a tree", None)
    bag_sets = [set(b) for b in td.bags]
    for b in bag_sets:
        for v in b:
            if not (0 <= v < g.n):
                return ValidationReport(False, width, "bag references a non-host vertex", v)

    covered = set().union(*bag_sets) if bag_sets else set()
    for v in range(g.n):
        if v not in covered:
            return ValidationReport(False, width, "vertex not covered by any bag", v)

    for u, v in g.edges:
        if not any(u in b and v in b for b in bag_sets):
            return ValidationReport(False, width, "edge endpoints never share a bag", (u, v))

    adj = [[] for _ in range(td.nodes)]
    for a, b in td.tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in range(g.n):
        holding = [i for i in range(td.nodes) if v in bag_sets[i]]
        start = holding[0]
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen and v in bag_sets[y]:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(holding):
            missing = next(i for i in holding if i not in seen)
            return ValidationReport(False, width,
                                    "bags containing a vertex do not form a subtree",
                                    (v, start, missing))
    return ValidationReport(True, width)
