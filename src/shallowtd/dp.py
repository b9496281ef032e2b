"""Exact dynamic programming over nice tree decompositions.

Solvers for maximum independent set, minimum vertex cover, minimum dominating
set (with a required-domination subset), and fixed-pattern subgraph
isomorphism, plus the level-slicing driver that searches a planar host for a
small connected pattern window by window.

All solvers walk the nice decomposition bottom-up, in ascending node ids:
``make_nice`` numbers each node after its children and the root last.  Edge
checks happen at introduce nodes: the minimal node whose bag contains both
endpoints of a host edge is an introduce of one endpoint with the other
present, so checking a newly introduced vertex against its bag suffices to
see every edge exactly once per branch.

The MIS and DS tables are keyed by Python-int bitmasks over vertex ids
(bit v for vertex v): the chosen bag vertices for MIS, the black and
undominated bag vertices for DS; a minimum vertex cover is the complement
of the MIS witness.  A table entry holds the optimum value of its state and
one O(1) link of a witness chain shared with the child tables; the witness
set is rebuilt once, at the root.  Transitions run in a fixed order and
only a strictly better value replaces an entry (the first of equal values
stays), so among several optima each solver returns one fixed witness.  The
property tests hold it equal to the witness of a reference engine that
copies a full witness set into every entry, so the level-slicing unions
built from band witnesses do not drift when the engine changes.

The pattern search counts its states up to pattern twins (vertices with the
same neighbours besides each other): a state holds one sorted multiset of
marks per twin class, not one copy per permutation of the class, and its
entries are shared witness links like those above, unrolled once at the
root into one image set per class.  Its mapping is some valid embedding,
fixed for each input: on a twin-free pattern it is the per-vertex
reference's, and with twins only its existence is held equal to the
reference's.
"""

from __future__ import annotations

from .decomp import (FORGET, INTRODUCE, JOIN, LEAF, NiceDecomposition,
                     make_nice)
from .graph import EmbeddedGraph, Graph, GraphInputError, diameter
from .planar_td import band_hosts, level_windows, slice_td

MAX_PATTERN = 8


class SolutionCheckError(RuntimeError):
    """A result failed the independent check that guards it: the
    decomposition or the solver is broken.  Never silently ignored."""


def check_solution(problem: str, g: Graph, s, required=None) -> None:
    """Raise SolutionCheckError unless s is an independent set of g ("mis"),
    a vertex cover ("vc"), or dominates `required` (every vertex when None;
    "ds").  A self-loop constrains nothing, as in the DP and the oracles."""
    if problem == "mis":
        bad = next(((u, v) for u, v in g.edges
                    if u != v and u in s and v in s), None)
        if bad is not None:
            raise SolutionCheckError(f"result not independent at edge {bad}")
    elif problem == "vc":
        bad = next(((u, v) for u, v in g.edges
                    if u != v and u not in s and v not in s), None)
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
# Table entries shared by every engine.
#
# An entry is the last link of a witness chain shared with the child tables.
# A link (head, v, rest) records v on top of the child's entry rest; a join
# (head, None, left, right) records the union of its children's chains; a
# leaf is _LEAF_ENTRY.  The head is the value of the best partial solution
# below the node in the MIS and DS engines, with v a chosen vertex, and a
# twin class in the pattern engine, with v the image of a member.  Links are
# shared, never copied, so a transition costs O(1) besides the state
# arithmetic, and the witness is read once, from the root, by `_links`.

_LEAF_ENTRY = (0, None, None)


def _neighbour_masks(g: Graph) -> list[int]:
    """Bit u of entry v is set iff u is a neighbour of v."""
    return [sum(1 << u for u in nb) for nb in g.neighbor_sets()]


def _links(entry: tuple):
    """The introduce links of the witness chain ending in `entry`."""
    stack = [entry]
    while stack:
        link = stack.pop()
        while link is not None:
            if link[1] is not None:
                yield link
            elif len(link) == 4:                  # join: follow both sides
                stack.append(link[3])
            link = link[2]


def _unroll(entry: tuple) -> set[int]:
    """The vertex set that the witness chain ending in `entry` spells."""
    return {link[1] for link in _links(entry)}


# ---------------------------------------------------------------------------
# Independent set, and vertex cover as its complement: states are subsets.


def dp_mis(nd: NiceDecomposition, g: Graph) -> set[int]:
    """Maximum independent set of g; witness returned and self-consistent."""
    witness = _unroll(_run_subset_dp(nd, g)[0])
    check_solution("mis", g, witness)
    return witness


def dp_vc(nd: NiceDecomposition, g: Graph) -> set[int]:
    """Minimum vertex cover of g: the complement of the MIS witness."""
    witness = set(range(g.n)) - _unroll(_run_subset_dp(nd, g)[0])
    check_solution("vc", g, witness)
    return witness


def _run_subset_dp(nd: NiceDecomposition, g: Graph):
    """The independent-set engine; returns the root table {0: entry}.

    A state is the bitmask (bit v for vertex v) of the bag vertices chosen
    into the independent set.  A new vertex may join the chosen set only
    with no chosen bag neighbour, which keeps exactly the states extendable
    to independent sets.  A join's value is left + right - |state|, as the
    two witnesses share exactly the chosen bag vertices.

    Introduces try "stay out" before "chosen", joins follow the left table's
    order, and only a strictly larger value replaces an entry: this order
    and tie rule fix which optimal witness is returned.
    """
    nmask = _neighbour_masks(g)
    tables: dict[int, dict[int, tuple]] = {}

    for node in range(nd.node_count):
        kind = nd.kind[node]
        if kind == LEAF:
            out = {0: _LEAF_ENTRY}
        elif kind == INTRODUCE:
            # v is in no child state, so no two outputs share a key.
            v = nd.vertex[node]
            bit = 1 << v
            bag_nbrs = nmask[v] & sum(1 << u for u in nd.bag[node])
            child = tables.pop(nd.children[node][0])
            out = {}
            for state, entry in child.items():
                out[state] = entry
                if not bag_nbrs & state:           # v independent of chosen bag
                    out[state | bit] = (entry[0] + 1, v, entry)
        elif kind == FORGET:
            keep = ~(1 << nd.vertex[node])
            child = tables.pop(nd.children[node][0])
            out = {}
            for state, entry in child.items():
                state &= keep
                cur = out.get(state)
                if cur is None or entry[0] > cur[0]:
                    out[state] = entry
        else:  # JOIN: one right state matches each left state.
            left = tables.pop(nd.children[node][0])
            right = tables.pop(nd.children[node][1])
            out = {}
            for state, entry in left.items():
                other = right.get(state)
                if other is not None:
                    out[state] = (entry[0] + other[0] - state.bit_count(),
                                  None, entry, other)
        if not out:
            raise GraphInputError("dynamic program ran out of states: "
                                  "the decomposition does not match the graph")
        tables[node] = out
    return tables[nd.root]


# ---------------------------------------------------------------------------
# Dominating set: three states per bag vertex.


def dp_ds(nd: NiceDecomposition, g: Graph, required=None) -> set[int]:
    """Minimum set S with every required vertex (every vertex when
    `required` is None) in S or adjacent to S.

    Per bag vertex: chosen (black), not chosen but already dominated, or not
    chosen and so far undominated.  A state is the pair of bitmasks (black,
    undominated) over vertex ids, packed into one int as
    black | undominated << n; a bag vertex in neither is dominated.
    Introducing a black vertex v clears its neighbours from the undominated
    mask; introducing v plain makes it undominated unless it has a black bag
    neighbour; forgetting an undominated required vertex kills the state; a
    join pairs states with equal black masks, and a vertex stays undominated
    only if it is undominated on both sides (the AND of the two states).  A
    join's value is left + right - |black|.

    Introduces try black before plain, joins follow the left table's order
    and, per left state, the right table's order among equal black masks,
    and only a strictly smaller value replaces an entry: this order and tie
    rule fix which optimal witness is returned.
    """
    required = set(range(g.n) if required is None else required)
    if not required:
        return set()
    nmask = _neighbour_masks(g)
    n = g.n
    low = (1 << n) - 1                    # the black half of a state
    tables: dict[int, dict[int, tuple]] = {}

    for node in range(nd.node_count):
        kind = nd.kind[node]
        if kind == LEAF:
            out = {0: _LEAF_ENTRY}
        elif kind == INTRODUCE:
            v = nd.vertex[node]
            bit = 1 << v
            ubit = bit << n
            vnbr = nmask[v]
            clear = ~(vnbr << n)
            child = tables.pop(nd.children[node][0])
            out = {}
            for state, entry in child.items():
                # v chosen: its undominated bag neighbours become dominated.
                key = (state & clear) | bit
                cur = out.get(key)
                if cur is None or entry[0] + 1 < cur[0]:
                    out[key] = (entry[0] + 1, v, entry)
                # v not chosen, dominated now iff some bag neighbour is black;
                # no other output has this key.
                out[state if state & vnbr else state | ubit] = entry
        elif kind == FORGET:
            v = nd.vertex[node]
            bit = 1 << v
            dead = bit << n if v in required else 0
            keep = ~(bit | bit << n)
            child = tables.pop(nd.children[node][0])
            out = {}
            for state, entry in child.items():
                if state & dead:
                    continue
                key = state & keep
                cur = out.get(key)
                if cur is None or entry[0] < cur[0]:
                    out[key] = entry
        else:  # JOIN
            left = tables.pop(nd.children[node][0])
            right = tables.pop(nd.children[node][1])
            buckets: dict[int, list] = {}
            for state, entry in right.items():
                buckets.setdefault(state & low, []).append((state, entry))
            out = {}
            for state, entry in left.items():
                black = state & low
                base = entry[0] - black.bit_count()
                for rstate, other in buckets.get(black, ()):
                    key = state & rstate           # equal black halves
                    value = base + other[0]
                    cur = out.get(key)
                    if cur is None or value < cur[0]:
                        out[key] = (value, None, entry, other)
        if not out:
            raise GraphInputError("dominating-set dynamic program ran out of "
                                  "states: no feasible assignment exists")
        tables[node] = out
    witness = _unroll(tables[nd.root][0])
    check_solution("ds", g, witness, required)
    return witness


# ---------------------------------------------------------------------------
# Fixed-pattern subgraph isomorphism, counted up to pattern twins.
#
# Pattern vertices p and q are twins when N(p) - {q} = N(q) - {p}.  This is
# an equivalence relation, each class is a clique or an independent set, and
# swapping two twins is an automorphism of the pattern, so a state need not
# say which member of a class has which image.  The pattern's slots are
# renumbered so that each twin class is a contiguous run, and every run is
# kept sorted: unseen slots (-2), then finished ones (-1), then images in
# ascending order.  A state is thus one multiset per class, where a
# per-vertex state would store one copy per permutation of the class (120
# for K5).  On a twin-free pattern every run is one slot, and the states,
# their order and the returned mapping are those of a per-vertex engine.
#
# A table entry is a witness chain of the shape above: an introduce link
# (class, image, rest) gives a member of the class its image.  The root
# entry is read once into one image set per class; a set, because a vertex
# of a join bag is introduced on both branches.

_UNSEEN, _DONE = -2, -1


def _twin_classes(h: Graph) -> list[list[int]]:
    """The twin classes of h, each in ascending order, ordered by their
    lowest vertex.  Each vertex is compared with one member per class,
    which suffices because the twin relation is transitive."""
    nbr = h.neighbor_sets()
    classes: list[list[int]] = []
    for p in range(h.n):
        for members in classes:
            q = members[0]
            if nbr[p] - {q} == nbr[q] - {p}:
                members.append(p)
                break
        else:
            classes.append([p])
    return classes


def _split(state: tuple[int, ...], wide: list[tuple[int, int]]
           ) -> tuple[tuple[int, ...], int, int]:
    """(key, low, high) of a state for a join.  The key clears finished
    slots to unseen, which keeps every run sorted.  `high` has the bits of
    the finished slots, which sit at the top of the key's unseen slots of
    their run; `low` has as many bits per run at the bottom of the run.
    Two states with equal keys can be joined iff no class has more
    finished members on the two sides than unseen slots in the key, that
    is iff one side's `low` and the other's `high` share no bit.  `wide`
    lists the runs [a, b) of two or more slots; elsewhere low == high."""
    if _DONE not in state:
        return state, 0, 0
    high = sum(1 << i for i, x in enumerate(state) if x == _DONE)
    low = high
    for a, b in wide:
        run = state[a:b]
        done = run.count(_DONE)
        if done:
            ones = (1 << done) - 1
            low = low & ~(ones << (a + run.count(_UNSEEN))) | ones << a
    return tuple(_UNSEEN if x == _DONE else x for x in state), low, high


def _merge(key: tuple[int, ...], done: int, wide: list[tuple[int, int]]
           ) -> tuple[int, ...]:
    """The key with the slots in bitmask `done` finished, runs re-sorted."""
    out = list(key)
    for i in range(len(out)):
        if done >> i & 1:
            out[i] = _DONE
    for a, b in wide:
        out[a:b] = sorted(out[a:b])
    return tuple(out)


def _class_images(entry, classes: list[list[int]]) -> dict[int, int]:
    """The mapping that the witness tree ending in `entry` spells: each
    class's members, ascending, take its images in ascending order."""
    images: list[set[int]] = [set() for _ in classes]
    for c, v, _rest in _links(entry):
        images[c].add(v)
    mapping: dict[int, int] = {}
    for members, found in zip(classes, images):
        if len(found) != len(members):
            raise SolutionCheckError(
                f"pattern twin class {members} got {len(found)} images")
        mapping.update(zip(members, sorted(found)))
    return mapping


def dp_subiso(nd: NiceDecomposition, g: Graph, h: Graph,
              induced: bool = False) -> dict[int, int] | None:
    """Injective map V(h) -> V(g) preserving edges (and non-edges if
    induced), or None.  State: per twin class of h, the multiset of its
    members' marks (unseen, finished, or a bag image), held in a sorted run
    of slots.  An introduce offers v to each class once, through the first
    slot of its run, which is unseen iff some member is; forgetting an image
    requires every pattern neighbour of its slot to be finished or mapped
    to an adjacent bag vertex.  A join pairs states whose images agree and
    whose finished members fit into each class's unseen slots.

    The mapping is some valid embedding, fixed for each input: on a
    twin-free pattern it is the per-vertex engine's; otherwise the members
    of each twin class get its images in ascending order.
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
    classes = _twin_classes(h)
    order = [p for members in classes for p in members]
    slot = {p: s for s, p in enumerate(order)}
    runs = []                              # [a, b) of each class's slots
    for members in classes:
        a = runs[-1][1] if runs else 0
        runs.append((a, a + len(members)))
    run_of = [r for r in runs for _ in range(r[1] - r[0])]
    wide = [r for r in runs if r[1] - r[0] > 1]
    # snbr[s]: slots of the pattern neighbours of slot s; smask[s] as a bitmask
    snbr = [sorted(slot[q] for q in hnbr[p]) for p in order]
    smask = [sum(1 << t for t in nb) for nb in snbr]
    degree = [len(hnbr[members[0]]) for members in classes]
    slots = range(h.n)

    start = tuple([_UNSEEN] * h.n)
    tables: dict[int, dict[tuple[int, ...], tuple]] = {}

    for node in range(nd.node_count):
        kind = nd.kind[node]
        if kind == LEAF:
            tables[node] = {start: _LEAF_ENTRY}
        elif kind == INTRODUCE:
            v = nd.vertex[node]
            gv = gnbr[v]
            child = tables.pop(nd.children[node][0])
            out: dict[tuple[int, ...], tuple] = {}
            free = [(c, *runs[c]) for c in range(len(classes))
                    if len(gv) >= degree[c]]
            for state, wit in child.items():
                out.setdefault(state, wit)       # v stays outside the image
                # a member of class c may take v iff every mapped pattern
                # neighbour has its image adjacent to v (and, if induced,
                # every mapped image adjacent to v is the image of a
                # pattern neighbour); members share their neighbours, so
                # the run's first slot speaks for the class
                mapped = near = 0
                for s in slots:
                    u = state[s]
                    if u >= 0:
                        mapped |= 1 << s
                        if u in gv:
                            near |= 1 << s
                far = mapped & ~near
                for c, a, b in free:
                    if (state[a] == _UNSEEN and not smask[a] & far
                            and not (induced and near & ~smask[a])):
                        if b == a + 1:
                            ns = state[:a] + (v,) + state[b:]
                        else:
                            run = state[a + 1:b] + (v,)
                            ns = state[:a] + tuple(sorted(run)) + state[b:]
                        if ns not in out:
                            out[ns] = (c, v, wit)
            tables[node] = out
        elif kind == FORGET:
            v = nd.vertex[node]
            gv = gnbr[v]
            child = tables.pop(nd.children[node][0])
            out = {}
            for state, wit in child.items():
                if v not in state:
                    out.setdefault(state, wit)
                    continue
                s = state.index(v)
                # all pattern edges at s must be settled before v disappears
                if any(state[t] == _UNSEEN or
                       (state[t] >= 0 and state[t] not in gv)
                       for t in snbr[s]):
                    continue
                a, b = run_of[s]
                if b == a + 1:
                    ns = state[:s] + (_DONE,) + state[b:]
                else:
                    run = state[a:s] + (_DONE,) + state[s + 1:b]
                    ns = state[:a] + tuple(sorted(run)) + state[b:]
                out.setdefault(ns, wit)
            tables[node] = out
        else:  # JOIN: bag images must agree; finished members must fit.
            left = tables.pop(nd.children[node][0])
            right = tables.pop(nd.children[node][1])
            buckets: dict[tuple[int, ...], list] = {}
            for state, wit in right.items():
                key, _low, high = _split(state, wide)
                buckets.setdefault(key, []).append((high, state, wit))
            out = {}
            for state, wit in left.items():
                key, low, _high = _split(state, wide)
                for rhigh, rstate, rwit in buckets.get(key, ()):
                    if low & rhigh:
                        continue
                    # with equal images, a side without finished members
                    # adds nothing to the other side's state
                    if not rhigh:
                        merged = state
                    elif not low:
                        merged = rstate
                    else:
                        merged = _merge(key, low | rhigh, wide)
                    if merged not in out:
                        out[merged] = (None, None, wit, rwit)
            tables[node] = out
        if not tables[node]:
            return None

    goal = tuple([_DONE] * h.n)
    root = tables[nd.root]
    if goal not in root:
        return None
    mapping = _class_images(root[goal], classes)
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
    hosts = band_hosts(e, min_vertices=h.n)
    if h.n == 0:
        return {}
    if h.n > MAX_PATTERN:
        raise GraphInputError(
            f"pattern has {h.n} vertices; at most {MAX_PATTERN} supported")
    d = diameter(h)
    if d == float("inf"):
        raise GraphInputError("pattern must be connected")
    k = int(d) + 2
    for host, back in hosts:        # none when h.n > e.graph.n
        for offset in range(k):
            for lo, hi, _core in level_windows(host.layering.depth, k,
                                               offset, "delete"):
                sl = slice_td(host, lo, hi)
                if sl.graph.n < h.n:
                    continue
                found = dp_subiso(make_nice(sl.td), sl.graph, h, induced)
                if found is not None:
                    mapping = {q: back[sl.back_map[v]]
                               for q, v in found.items()}
                    check_mapping(e.graph, h, mapping, induced)
                    return mapping
    return None
