"""Brute-force reference implementations for tests and acceptance checks.

Everything here is intentionally simple, slow, and independent of the main
solvers — including the feasibility checkers.  Budget overruns raise; they
never silently degrade.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .decomp import TreeDecomposition
from .graph import Graph

MAX_SET_PROBLEM = 24
MAX_TREEWIDTH = 12
MAX_ISO_HOST = 100
MAX_ISO_PATTERN = 6


class OracleBudgetError(RuntimeError):
    """The instance exceeds what the brute-force path is allowed to attempt."""


class OracleCheckError(RuntimeError):
    """An oracle's witness failed the oracle's own feasibility check.  Kept
    apart from the solvers' checks, so the oracles share no code with them."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise OracleCheckError(message)


def _adj_sets(g: Graph) -> list[set[int]]:
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


# ---------------------------------------------------------------------------
# Optimization problems by exhaustive branching.


def oracle_solve(problem: str, g: Graph) -> tuple[int, set[int]]:
    """Optimal value and witness for mis / vc / ds by exhaustive search."""
    if g.n > MAX_SET_PROBLEM:
        raise OracleBudgetError(
            f"{problem} oracle limited to {MAX_SET_PROBLEM} vertices, got {g.n}")
    if problem == "mis":
        wit = _best_is(_adj_sets(g), set(range(g.n)))
        _check(_is_independent(g, wit), "oracle set is not independent")
        return len(wit), wit
    if problem == "vc":
        wit = _best_vc(g)
        _check(_is_cover(g, wit), "oracle vertex cover misses an edge")
        return len(wit), wit
    if problem == "ds":
        wit = _best_ds(g)
        _check(_is_dominating(g, wit), "oracle dominating set misses a vertex")
        return len(wit), wit
    raise ValueError(f"unknown problem {problem!r}")


def _is_independent(g: Graph, s: set[int]) -> bool:
    return all(u not in s or v not in s for u, v in g.edges if u != v)


def _is_cover(g: Graph, s: set[int]) -> bool:
    return all(u in s or v in s for u, v in g.edges if u != v)


def _is_dominating(g: Graph, s: set[int]) -> bool:
    adj = _adj_sets(g)
    return all(v in s or adj[v] & s for v in range(g.n))


def _best_is(adj: list[set[int]], remaining: set[int]) -> set[int]:
    # branch on a maximum-degree vertex: out, or in with its neighborhood gone
    live = {v: adj[v] & remaining for v in remaining}
    isolated = {v for v, nb in live.items() if not nb}
    if len(isolated) == len(remaining):
        return set(remaining)
    v = max(remaining - isolated, key=lambda x: (len(live[x]), -x))
    take = _best_is(adj, remaining - live[v] - {v}) | {v}
    skip = _best_is(adj, remaining - {v})
    return take if len(take) >= len(skip) else skip


def _best_vc(g: Graph) -> set[int]:
    edges = [(u, v) for u, v in g.edges if u != v]

    def rec(cover: set[int], best: set[int] | None) -> set[int] | None:
        if best is not None and len(cover) >= len(best):
            return best
        open_edge = next(((u, v) for u, v in edges
                          if u not in cover and v not in cover), None)
        if open_edge is None:
            return set(cover)
        u, v = open_edge
        best = rec(cover | {u}, best)
        best = rec(cover | {v}, best)
        return best

    return rec(set(), None)


def _best_ds(g: Graph) -> set[int]:
    adj = _adj_sets(g)
    closed = [adj[v] | {v} for v in range(g.n)]

    def rec(chosen: set[int], dominated: set[int],
            best: set[int] | None) -> set[int] | None:
        if best is not None and len(chosen) >= len(best):
            return best
        undom = next((v for v in range(g.n) if v not in dominated), None)
        if undom is None:
            return set(chosen)
        for w in sorted(closed[undom]):
            best = rec(chosen | {w}, dominated | closed[w], best)
        return best

    return rec(set(), set(), None)


# ---------------------------------------------------------------------------
# Exact treewidth via elimination-ordering dynamic programming.


def exact_treewidth(g: Graph) -> tuple[int, TreeDecomposition]:
    """Minimum width and an optimal decomposition, n <= 12.

    f(S) = best width eliminating S first; eliminating v after S costs the
    number of vertices outside S u {v} reachable from v through S.
    """
    if g.n > MAX_TREEWIDTH:
        raise OracleBudgetError(
            f"treewidth oracle limited to {MAX_TREEWIDTH} vertices, got {g.n}")
    n = g.n
    if n == 0:
        return -1, TreeDecomposition(nodes=1, tree_edges=[], bags=[()])
    adj = _adj_sets(g)
    full = (1 << n) - 1

    def cost(mask: int, v: int) -> int:
        # vertices outside mask|{v} reachable from v with interior in mask
        seen = 1 << v
        stack = [v]
        out = 0
        while stack:
            x = stack.pop()
            for y in adj[x]:
                bit = 1 << y
                if seen & bit:
                    continue
                seen |= bit
                if mask & bit:
                    stack.append(y)
                else:
                    out += 1
        return out

    @lru_cache(maxsize=None)
    def f(mask: int) -> int:
        if mask == 0:
            return -1
        best = n
        for v in range(n):
            if mask & (1 << v):
                rest = mask & ~(1 << v)
                best = min(best, max(f(rest), cost(rest, v)))
        return best

    width = f(full)
    # peel off the vertex eliminated last, repeatedly; reverse to get the
    # forward elimination order
    order: list[int] = []
    mask = full
    while mask:
        for v in range(n):
            if mask & (1 << v):
                rest = mask & ~(1 << v)
                if max(f(rest), cost(rest, v)) <= width:
                    order.append(v)
                    mask = rest
                    break
    order.reverse()

    # build the decomposition along the elimination order with fill-in
    fill = [set(a) for a in adj]
    bags: list[tuple[int, ...]] = []
    attach: list[int | None] = []
    position = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = {u for u in fill[v] if position[u] > i}
        bags.append(tuple(sorted({v} | later)))
        for a in later:
            for b in later:
                if a != b:
                    fill[a].add(b)
        attach.append(min(later, key=lambda u: position[u]) if later else None)
    tree_edges = []
    for i, a in enumerate(attach):
        if a is not None:
            tree_edges.append((i, position[a]))
        elif i != len(order) - 1:
            tree_edges.append((i, len(order) - 1))
    td = TreeDecomposition(nodes=len(bags), tree_edges=tree_edges, bags=bags)
    return width, td


# ---------------------------------------------------------------------------
# Subgraph isomorphism by backtracking.


@dataclass
class IsoResult:
    mapping: dict[int, int] | None
    count: int


def subiso_backtracking(g: Graph, h: Graph, induced: bool = False) -> IsoResult:
    """First injective pattern embedding plus the count of all of them."""
    if g.n > MAX_ISO_HOST or h.n > MAX_ISO_PATTERN:
        raise OracleBudgetError(
            f"iso oracle limited to host {MAX_ISO_HOST} / pattern "
            f"{MAX_ISO_PATTERN}, got {g.n} / {h.n}")
    if h.n == 0:
        return IsoResult({}, 1)
    gadj = _adj_sets(g)
    hadj = _adj_sets(h)
    first: dict[int, int] | None = None
    count = 0

    def rec(q: int, image: list[int], used: set[int]):
        nonlocal first, count
        if q == h.n:
            count += 1
            if first is None:
                first = {i: image[i] for i in range(h.n)}
            return
        for v in range(g.n):
            if v in used or len(gadj[v]) < len(hadj[q]):
                continue
            ok = True
            for p in range(q):
                gedge = image[p] in gadj[v]
                pedge = p in hadj[q]
                if pedge != gedge and (pedge or induced):
                    ok = False
                    break
            if ok:
                image.append(v)
                used.add(v)
                rec(q + 1, image, used)
                image.pop()
                used.discard(v)

    rec(0, [], set())
    if first is not None:
        _check(all(first[p] in gadj[first[q]]
                   for p in range(h.n) for q in hadj[p]),
               "oracle pattern embedding misses a pattern edge")
    return IsoResult(first, count)
