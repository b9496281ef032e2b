"""Output checks that share no code with the program under test.

Each check takes what the benchmark itself generated (the ``Host``), the op's
JSON report and, for ``decompose``, the decomposition file the op wrote.  It
returns ``(problem, quality)``: ``problem`` is None when the output is right
and otherwise says what is wrong; ``quality`` is the op's width ratio
(``decompose``), approximation gap (``ptas``) or None.
"""

from __future__ import annotations

import json
import math
from collections import deque

from inputs import Host, Op


def _adjacency(h: Host) -> list[set[int]]:
    adj = [set() for _ in range(h.n)]
    for u, v in h.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def eccentricity(h: Host, root: int) -> int:
    adj = _adjacency(h)
    dist = [-1] * h.n
    dist[root] = 0
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    if min(dist) < 0:
        raise ValueError("host is not connected")
    return max(dist)


def parse_td(text: str):
    """(host_n, bags, tree_edges) from the ``td/b/t`` text format."""
    header = None
    bags: dict[int, list[int]] = {}
    tree: list[tuple[int, int]] = []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "td":
            header = [int(x) for x in parts[1:]]
        elif parts[0] == "b":
            bags[int(parts[1])] = [int(x) for x in parts[2:]]
        elif parts[0] == "t":
            tree.append((int(parts[1]), int(parts[2])))
        else:
            raise ValueError(f"unparsable decomposition line {line!r}")
    if header is None or len(header) != 3:
        raise ValueError("decomposition has no td header")
    nodes, _width, host_n = header
    if sorted(bags) != list(range(nodes)):
        raise ValueError("bag ids are not 0..nodes-1")
    return host_n, [bags[i] for i in range(nodes)], tree


def td_problem(h: Host, bags: list[list[int]],
               tree: list[tuple[int, int]]) -> str | None:
    """Linear-time tree-decomposition check.

    In a tree, the nodes whose bags hold v are connected iff their number
    minus the number of tree edges whose two bags both hold v is 1; a vertex
    in no bag gives 0, so this also checks coverage.
    """
    nodes = len(bags)
    if len(tree) != nodes - 1:
        return f"{len(tree)} tree edges for {nodes} nodes"
    parent = list(range(nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in tree:
        if not (0 <= a < nodes and 0 <= b < nodes):
            return f"tree edge ({a}, {b}) out of range"
        ra, rb = find(a), find(b)
        if ra == rb:
            return "tree edges contain a cycle"
        parent[ra] = rb
    bagsets = [set(b) for b in bags]
    where: list[list[int]] = [[] for _ in range(h.n)]
    for i, bag in enumerate(bags):
        if len(bagsets[i]) != len(bag):
            return f"bag {i} repeats a vertex"
        for v in bag:
            if not 0 <= v < h.n:
                return f"bag {i} holds non-host vertex {v}"
            where[v].append(i)
    balance = [len(w) for w in where]
    for a, b in tree:
        small, big = (a, b) if len(bags[a]) <= len(bags[b]) else (b, a)
        for v in bags[small]:
            if v in bagsets[big]:
                balance[v] -= 1
    bad = next((v for v in range(h.n) if balance[v] != 1), None)
    if bad is not None:
        return (f"vertex {bad} is in no bag" if not where[bad] else
                f"bags holding vertex {bad} are not connected")
    for u, v in h.edges:
        a, b = (u, v) if len(where[u]) <= len(where[v]) else (v, u)
        if not any(b in bagsets[i] for i in where[a]):
            return f"edge ({u}, {v}) is in no bag"
    return None


def check_decompose(op: Op, report: dict, td_text: str):
    host_n, bags, tree = parse_td(td_text)
    h = op.host
    if host_n != h.n:
        return f"decomposition is for {host_n} vertices, host has {h.n}", None
    problem = td_problem(h, bags, tree)
    if problem:
        return problem, None
    width = max(len(b) for b in bags) - 1
    if report.get("valid") is not True or report.get("width") != width \
            or report.get("nodes") != len(bags):
        return "report disagrees with the decomposition file", None
    depth = eccentricity(h, report["root"])
    if h.genus == 0:
        bound = 3 * depth
    else:
        # The cut graph X is the root plus the root paths of the endpoints of
        # the 2g leftover edges, so |X| <= 2g(2 depth + 1) + 1.
        bound = 3 * (depth + 1) + 2 * h.genus * (2 * depth + 1) + 1
    if width > bound:
        return f"width {width} exceeds the proven bound {bound}", None
    return None, width / bound


def _witness(op: Op, report: dict):
    wit = report.get("witness")
    if not isinstance(wit, list) or len(set(wit)) != len(wit) \
            or any(not (isinstance(v, int) and 0 <= v < op.host.n) for v in wit):
        return None
    if report.get("value") != len(wit):
        return None
    return set(wit)


def feasible(problem: str, h: Host, s: set[int]) -> bool:
    if problem == "mis":
        return not any(u in s and v in s for u, v in h.edges)
    if problem == "vc":
        return all(u in s or v in s for u, v in h.edges)
    adj = _adjacency(h)
    return all(v in s or adj[v] & s for v in range(h.n))


def optimum(op: Op, pins: dict) -> int:
    pin = pins[op.host.name]
    return op.host.n - pin["mis"] if op.problem == "vc" else pin[op.problem]


def check_solve(op: Op, report: dict, pins: dict):
    s = _witness(op, report)
    if s is None:
        return "malformed witness", None
    if not feasible(op.problem, op.host, s):
        return f"{op.problem} witness is infeasible", None
    opt = optimum(op, pins)
    if len(s) != opt:
        return f"value {len(s)} but the pinned optimum is {opt}", None
    return None, None


def check_ptas(op: Op, report: dict, pins: dict):
    """Feasible and within the scheme's proven guarantee: OPT - floor(OPT/k)
    for MIS, OPT + floor(OPT/k) for VC, OPT + 2 ceil(OPT/k) for DS."""
    s = _witness(op, report)
    if s is None:
        return "malformed witness", None
    if not feasible(op.problem, op.host, s):
        return f"{op.problem} witness is infeasible", None
    opt, k, value = optimum(op, pins), op.k, len(s)
    lo, hi = {"mis": (opt - opt // k, opt),
              "vc": (opt, opt + opt // k),
              "ds": (opt, opt + 2 * math.ceil(opt / k))}[op.problem]
    if not lo <= value <= hi:
        return f"value {value} outside the guarantee [{lo}, {hi}]", None
    return None, abs(value - opt) / opt


def check_subiso(op: Op, report: dict):
    found = report.get("found")
    if found is not op.expect_found:
        return f"found={found}, pinned {op.expect_found}", None
    if not found:
        return (None, None) if report.get("mapping") is None else \
            ("absent pattern reported with a mapping", None)
    image = report.get("mapping")
    h, p = op.host, op.pattern
    if not isinstance(image, list) or len(image) != p.n \
            or len(set(image)) != p.n \
            or any(not (isinstance(v, int) and 0 <= v < h.n) for v in image):
        return "malformed mapping", None
    adj = _adjacency(h)
    pedges = {frozenset(e) for e in p.edges}
    for a in range(p.n):
        for b in range(a + 1, p.n):
            in_host = image[b] in adj[image[a]]
            in_pattern = frozenset((a, b)) in pedges
            if in_pattern and not in_host:
                return f"pattern edge ({a}, {b}) not mapped to a host edge", None
            if op.induced and in_host and not in_pattern:
                return f"induced mapping adds host edge at ({a}, {b})", None
    return None, None


def check(op: Op, stdout: str, td_text: str | None, pins: dict):
    """Dispatch on the op's command; the report is the last stdout line."""
    lines = stdout.strip().splitlines()
    if not lines:
        return "no report on stdout", None
    try:
        report = json.loads(lines[-1])
    except ValueError:
        return "report is not JSON", None
    if op.command == "decompose":
        return check_decompose(op, report, td_text or "")
    if op.command == "solve":
        return check_solve(op, report, pins)
    if op.command == "ptas":
        return check_ptas(op, report, pins)
    return check_subiso(op, report)
