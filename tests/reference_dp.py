"""Frozenset reference for the MIS / VC / DS engines of ``shallowtd.dp``,
and the pairwise-check reference for ``dp_subiso``.

Every table entry carries its full witness as a frozenset, and every
introduce and join copies it, so each transition costs O(n).  The property
tests require ``dp_mis``, ``dp_vc`` and ``dp_ds`` to return the same witness
set on every input.  ``dp_subiso`` here tests every mapped pattern vertex
against every candidate one pair at a time; the property tests require the
bitmask version to return the same mapping (or None) on every input.
Like the engines, every reference walks the nice node ids in ascending
order, children before parents.
"""

from shallowtd.decomp import FORGET, INTRODUCE, LEAF, NiceDecomposition
from shallowtd.dp import MAX_PATTERN, check_mapping, check_solution
from shallowtd.graph import Graph, GraphInputError


def reference_mis(nd: NiceDecomposition, g: Graph) -> set[int]:
    return set(_run_subset_dp(nd, g, minimize=False)[frozenset()])


def reference_vc(nd: NiceDecomposition, g: Graph) -> set[int]:
    return set(_run_subset_dp(nd, g, minimize=True)[frozenset()])


def _run_subset_dp(nd: NiceDecomposition, g: Graph, minimize: bool):
    """Shared engine: states are the bag vertices chosen (into the IS, or
    into the cover); values are full witness sets.  For MIS a new vertex may
    join the chosen set only with no chosen bag neighbor; for VC a new vertex
    may stay out only with all bag neighbors chosen.  Both rules keep exactly
    the states extendable to feasible solutions."""
    nbr = g.neighbor_sets()
    better = min if minimize else max
    tables: dict[int, dict[frozenset[int], frozenset[int]]] = {}

    for node in range(nd.node_count):
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


_BLACK, _DOM, _UNDOM = 0, 1, 2


def dp_ds(nd: NiceDecomposition, g: Graph, required: set[int]) -> set[int]:
    """Minimum set S with every required vertex in S or adjacent to S.

    Per bag vertex: chosen (black), not chosen but already dominated, or not
    chosen and so far undominated.  Introducing a black vertex upgrades its
    bag neighbors; forgetting an undominated required vertex kills the state,
    and a forget drops the dominated states as the engine does (`_dominated`);
    joins OR the domination flags of matching black patterns.
    """
    required = set(required)
    if not required:
        return set()
    nbr = g.neighbor_sets()
    tables: dict[int, dict[tuple[int, ...], frozenset[int]]] = {}

    for node in range(nd.node_count):
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
            tables[node] = {state: wit for state, wit in out.items()
                            if not _dominated(out, state, wit)}
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


def _dominated(out, state, wit) -> bool:
    """The engine's forget rule: `state` is dropped when the state with one
    of its undominated vertices dominated instead is stored with a witness
    no larger.  Both complete alike, so the minimum stays, but which of two
    equal witnesses a later tie keeps depends on it."""
    for i, s in enumerate(state):
        if s == _UNDOM:
            other = out.get(state[:i] + (_DOM,) + state[i + 1:])
            if other is not None and len(other) <= len(wit):
                return True
    return False


def _keep_min(out, state, wit):
    cur = out.get(state)
    if cur is None or len(wit) < len(cur):
        out[state] = wit


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

    for node in range(nd.node_count):
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
