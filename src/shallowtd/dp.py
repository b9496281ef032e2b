"""Exact dynamic programming over nice tree decompositions.

Solvers for maximum independent set, minimum vertex cover, minimum dominating
set (with a required-domination subset), and fixed-pattern subgraph
isomorphism, plus the level-slicing driver that searches a planar host for a
small connected pattern window by window.

All solvers walk the nice decomposition bottom-up.  Edge checks happen at
introduce nodes: the minimal node whose bag contains both endpoints of a host
edge is an introduce of one endpoint with the other present, so checking a
newly introduced vertex against its bag suffices to see every edge exactly
once per branch.
"""

from __future__ import annotations

from .decomp import (FORGET, INTRODUCE, JOIN, LEAF, NiceDecomposition,
                     make_nice)
from .graph import (EmbeddedGraph, Graph, GraphInputError,
                    connected_components, diameter, induced_embedded_subgraph)
from .planar_td import band_host, slice_td

MAX_PATTERN = 8


class SolutionCheckError(RuntimeError):
    """A result failed the independent check that guards it: the
    decomposition or the solver is broken.  Never silently ignored."""


def check_solution(problem: str, g: Graph, s, required=None) -> None:
    """Raise SolutionCheckError unless s is an independent set of g ("mis"),
    a vertex cover ("vc"), or dominates `required` (every vertex when None;
    "ds")."""
    if problem == "mis":
        bad = next(((u, v) for u, v in g.edges if u in s and v in s), None)
        if bad is not None:
            raise SolutionCheckError(f"result not independent at edge {bad}")
    elif problem == "vc":
        bad = next(((u, v) for u, v in g.edges
                    if u not in s and v not in s), None)
        if bad is not None:
            raise SolutionCheckError(f"result misses edge {bad}")
    else:
        nbr = g.neighbor_sets()
        targets = range(g.n) if required is None else sorted(required)
        bad = next((v for v in targets if v not in s and not (nbr[v] & s)),
                   None)
        if bad is not None:
            raise SolutionCheckError(f"vertex {bad} not dominated")


# ---------------------------------------------------------------------------
# Independent set / vertex cover: states are subsets of the bag.


def dp_mis(nd: NiceDecomposition, g: Graph) -> set[int]:
    """Maximum independent set of g; witness returned and self-consistent."""
    table = _run_subset_dp(nd, g, minimize=False)
    witness = table[frozenset()]
    check_solution("mis", g, witness)
    return set(witness)


def dp_vc(nd: NiceDecomposition, g: Graph) -> set[int]:
    """Minimum vertex cover of g."""
    table = _run_subset_dp(nd, g, minimize=True)
    witness = table[frozenset()]
    check_solution("vc", g, witness)
    return set(witness)


def _run_subset_dp(nd: NiceDecomposition, g: Graph, minimize: bool):
    """Shared engine: states are the bag vertices chosen (into the IS, or
    into the cover); values are full witness sets.  For MIS a new vertex may
    join the chosen set only with no chosen bag neighbor; for VC a new vertex
    may stay out only with all bag neighbors chosen.  Both rules keep exactly
    the states extendable to feasible solutions."""
    nbr = g.neighbor_sets()
    better = min if minimize else max
    tables: dict[int, dict[frozenset[int], frozenset[int]]] = {}

    for node in nd.postorder():
        kind = nd.kind[node]
        if kind == LEAF:
            tables[node] = {frozenset(): frozenset()}
        elif kind == INTRODUCE:
            v = nd.vertex[node]
            child = tables.pop(nd.children[node][0])
            out: dict[frozenset[int], frozenset[int]] = {}
            bag_nbrs = nbr[v] & set(nd.bag[node])
            for state, wit in child.items():
                if minimize:
                    if bag_nbrs <= state:          # every bag edge at v covered
                        _keep(out, state, wit, better)
                    _keep(out, state | {v}, wit | {v}, better)
                else:
                    _keep(out, state, wit, better)
                    if not (bag_nbrs & state):     # v independent of chosen bag
                        _keep(out, state | {v}, wit | {v}, better)
            tables[node] = out
        elif kind == FORGET:
            v = nd.vertex[node]
            child = tables.pop(nd.children[node][0])
            out = {}
            for state, wit in child.items():
                _keep(out, state - {v}, wit, better)
            tables[node] = out
        else:  # JOIN: subtrees overlap exactly in the bag, so witnesses
            # agree there and are disjoint elsewhere; union is optimal per key.
            left = tables.pop(nd.children[node][0])
            right = tables.pop(nd.children[node][1])
            out = {}
            for state, wit in left.items():
                other = right.get(state)
                if other is not None:
                    _keep(out, state, wit | other, better)
            tables[node] = out
        if not tables[node]:
            raise GraphInputError("dynamic program ran out of states: "
                                  "the decomposition does not match the graph")
    return tables[nd.root]


def _keep(out, state, wit, better):
    cur = out.get(state)
    if cur is None or better(len(cur), len(wit)) == len(wit):
        if cur is None or len(cur) != len(wit):
            out[state] = wit


# ---------------------------------------------------------------------------
# Dominating set: three states per bag vertex.

_BLACK, _DOM, _UNDOM = 0, 1, 2


def dp_ds(nd: NiceDecomposition, g: Graph, required: set[int]) -> set[int]:
    """Minimum set S with every required vertex in S or adjacent to S.

    Per bag vertex: chosen (black), not chosen but already dominated, or not
    chosen and so far undominated.  Introducing a black vertex upgrades its
    bag neighbors; forgetting an undominated required vertex kills the state;
    joins OR the domination flags of matching black patterns.
    """
    required = set(required)
    if not required:
        return set()
    nbr = g.neighbor_sets()
    tables: dict[int, dict[tuple[int, ...], frozenset[int]]] = {}

    for node in nd.postorder():
        kind = nd.kind[node]
        bag = nd.bag[node]
        if kind == LEAF:
            tables[node] = {(): frozenset()}
        elif kind == INTRODUCE:
            v = nd.vertex[node]
            cbag = nd.bag[nd.children[node][0]]
            child = tables.pop(nd.children[node][0])
            pos = bag.index(v)
            vnbr = nbr[v]
            out: dict[tuple[int, ...], frozenset[int]] = {}
            for state, wit in child.items():
                # v chosen: upgrade undominated bag neighbors of v.
                black = list(state)
                for i, u in enumerate(cbag):
                    if u in vnbr and black[i] == _UNDOM:
                        black[i] = _DOM
                black.insert(pos, _BLACK)
                _keep_min(out, tuple(black), wit | {v})
                # v not chosen, dominated now iff some bag neighbor is black.
                dom = any(u in vnbr and state[i] == _BLACK
                          for i, u in enumerate(cbag))
                plain = list(state)
                plain.insert(pos, _DOM if dom else _UNDOM)
                _keep_min(out, tuple(plain), wit)
                if not dom:
                    # Also track v as "will be dominated later" only via the
                    # undominated state; upgrades happen at later introduces.
                    pass
            tables[node] = out
        elif kind == FORGET:
            v = nd.vertex[node]
            cbag = nd.bag[nd.children[node][0]]
            child = tables.pop(nd.children[node][0])
            pos = cbag.index(v)
            out = {}
            for state, wit in child.items():
                if state[pos] == _UNDOM and v in required:
                    continue
                _keep_min(out, state[:pos] + state[pos + 1:], wit)
            tables[node] = out
        else:  # JOIN
            left = tables.pop(nd.children[node][0])
            right = tables.pop(nd.children[node][1])
            buckets: dict[tuple[int, ...], list] = {}
            for state, wit in right.items():
                key = tuple(s == _BLACK for s in state)
                buckets.setdefault(key, []).append((state, wit))
            out = {}
            for state, wit in left.items():
                key = tuple(s == _BLACK for s in state)
                for rstate, rwit in buckets.get(key, ()):
                    merged = tuple(
                        _BLACK if a == _BLACK else
                        (_DOM if _DOM in (a, b) else _UNDOM)
                        for a, b in zip(state, rstate))
                    _keep_min(out, merged, wit | rwit)
            tables[node] = out
        if not tables[node]:
            raise GraphInputError("dominating-set dynamic program ran out of "
                                  "states: no feasible assignment exists")
    witness = tables[nd.root][()]
    check_solution("ds", g, witness, required)
    return set(witness)


def _keep_min(out, state, wit):
    cur = out.get(state)
    if cur is None or len(wit) < len(cur):
        out[state] = wit


# ---------------------------------------------------------------------------
# Fixed-pattern subgraph isomorphism.

_UNSEEN, _DONE = -2, -1


def dp_subiso(nd: NiceDecomposition, g: Graph, h: Graph,
              induced: bool = False) -> dict[int, int] | None:
    """Injective map V(h) -> V(g) preserving edges (and non-edges if
    induced), or None.  State: per pattern vertex, unseen / finished / its
    bag image.  A pattern vertex may be assigned only when its image is
    introduced; forgetting an image requires every pattern neighbor to be
    finished or mapped to an adjacent bag vertex.
    """
    if h.n == 0:
        return {}
    if h.n > MAX_PATTERN:
        raise GraphInputError(
            f"pattern has {h.n} vertices; at most {MAX_PATTERN} supported")
    if h.n > g.n:
        return None
    gnbr = g.neighbor_sets()
    hnbr = h.neighbor_sets()
    hedge = {(min(a, b), max(a, b)) for a, b in h.edges}

    def hadj(p: int, q: int) -> bool:
        return (min(p, q), max(p, q)) in hedge

    start = tuple([_UNSEEN] * h.n)
    tables: dict[int, dict[tuple[int, ...], tuple]] = {}

    for node in nd.postorder():
        kind = nd.kind[node]
        if kind == LEAF:
            tables[node] = {start: ()}
        elif kind == INTRODUCE:
            v = nd.vertex[node]
            child = tables.pop(nd.children[node][0])
            out: dict[tuple[int, ...], tuple] = {}
            deg_ok = [len(gnbr[v]) >= len(hnbr[q]) for q in range(h.n)]
            for state, wit in child.items():
                out.setdefault(state, wit)       # v stays outside the image
                for q in range(h.n):
                    if state[q] != _UNSEEN or not deg_ok[q]:
                        continue
                    ok = True
                    for p in range(h.n):
                        u = state[p]
                        if u < 0:
                            continue
                        gedge = u in gnbr[v]
                        pedge = hadj(p, q)
                        if pedge and not gedge:
                            ok = False
                            break
                        if gedge and not pedge and induced:
                            ok = False
                            break
                    if ok:
                        ns = state[:q] + (v,) + state[q + 1:]
                        out.setdefault(ns, wit + ((q, v),))
            tables[node] = out
        elif kind == FORGET:
            v = nd.vertex[node]
            child = tables.pop(nd.children[node][0])
            out = {}
            for state, wit in child.items():
                q = next((i for i, x in enumerate(state) if x == v), None)
                if q is None:
                    out.setdefault(state, wit)
                    continue
                # all pattern edges at q must be settled before v disappears
                if any(state[p] == _UNSEEN or
                       (state[p] >= 0 and state[p] not in gnbr[v])
                       for p in hnbr[q]):
                    continue
                ns = state[:q] + (_DONE,) + state[q + 1:]
                out.setdefault(ns, wit)
            tables[node] = out
        else:  # JOIN: bag images must agree; finished sets must be disjoint.
            left = tables.pop(nd.children[node][0])
            right = tables.pop(nd.children[node][1])
            buckets: dict[tuple[int, ...], list] = {}
            for state, wit in right.items():
                key = tuple(x if x >= 0 else _UNSEEN for x in state)
                buckets.setdefault(key, []).append((state, wit))
            out = {}
            for state, wit in left.items():
                key = tuple(x if x >= 0 else _UNSEEN for x in state)
                for rstate, rwit in buckets.get(key, ()):
                    if any(a == _DONE and b == _DONE
                           for a, b in zip(state, rstate)):
                        continue
                    merged = tuple(b if a == _UNSEEN else a
                                   for a, b in zip(state, rstate))
                    out.setdefault(merged, wit + rwit)
            tables[node] = out
        if not tables[node]:
            return None

    goal = tuple([_DONE] * h.n)
    hit = tables[nd.root].get(goal)
    if hit is None:
        return None
    mapping = dict(hit)
    check_mapping(g, h, mapping, induced)
    return mapping


def verify_subiso(g: Graph, h: Graph, mapping: dict[int, int],
                  induced: bool) -> bool:
    """Structural check of a pattern embedding, independent of how it was
    produced: injective, edge-preserving, non-edge-preserving if induced."""
    if sorted(mapping) != list(range(h.n)):
        return False
    if len(set(mapping.values())) != h.n:
        return False
    hedge = {(min(a, b), max(a, b)) for a, b in h.edges}
    for p in range(h.n):
        for q in range(p + 1, h.n):
            gedge = g.adjacent(mapping[p], mapping[q])
            pedge = (p, q) in hedge
            if pedge and not gedge:
                return False
            if induced and gedge and not pedge:
                return False
    return True


def check_mapping(g: Graph, h: Graph, mapping: dict[int, int],
                  induced: bool) -> None:
    """Raise SolutionCheckError unless verify_subiso accepts mapping."""
    if not verify_subiso(g, h, mapping, induced):
        kind = "induced " if induced else ""
        raise SolutionCheckError(f"mapping {mapping} is not an {kind}"
                                 "embedding of the pattern")


# ---------------------------------------------------------------------------
# Slicing driver: search a planar host window by window.


def subiso_driver(e: EmbeddedGraph, h: Graph,
                  induced: bool = False) -> dict[int, int] | None:
    """Find h in e.graph (or certify absence) via level windows.

    A connected pattern of diameter d spans at most d+1 consecutive BFS
    levels, so with k = d+2 some residue class of levels misses every
    occurrence; windows are the maximal level runs between removed classes.
    All offsets are tried; the first witness in (offset, window) order wins.
    """
    if e.euler_genus != 0:
        raise GraphInputError("level slicing requires a planar embedding")
    if h.n == 0:
        return {}
    if h.n > MAX_PATTERN:
        raise GraphInputError(
            f"pattern has {h.n} vertices; at most {MAX_PATTERN} supported")
    d = diameter(h)
    if d == float("inf"):
        raise GraphInputError("pattern must be connected")
    k = int(d) + 2
    g = e.graph
    if h.n > g.n:
        return None

    for comp in connected_components(g):
        if len(comp) < h.n:
            continue
        sub, back = induced_embedded_subgraph(e, comp)
        host = band_host(sub, 0)
        for offset in range(k):
            for lo, hi in _runs_avoiding(host.layering.depth, k, offset):
                sl = slice_td(host, lo, hi)
                if sl.graph.n < h.n:
                    continue
                found = dp_subiso(make_nice(sl.td), sl.graph, h, induced)
                if found is not None:
                    mapping = {q: back[sl.back_map[v]]
                               for q, v in found.items()}
                    check_mapping(g, h, mapping, induced)
                    return mapping
    return None


def _runs_avoiding(depth: int, k: int, offset: int) -> list[tuple[int, int]]:
    """Maximal runs of levels in [0, depth] skipping levels ≡ offset (mod k)."""
    runs = []
    lo = None
    for lvl in range(depth + 1):
        if lvl % k == offset:
            if lo is not None:
                runs.append((lo, lvl - 1))
                lo = None
        elif lo is None:
            lo = lvl
    if lo is not None:
        runs.append((lo, depth))
    return runs
