"""Exact dynamic programming over nice tree decompositions.

Solvers for maximum independent set, minimum vertex cover, minimum dominating
set (with a required-domination subset), and fixed-pattern subgraph
isomorphism, plus the level-slicing driver that searches a planar host for a
small connected pattern window by window.

Every engine runs on one walk, ``_walk``, and supplies only its introduce,
forget and join transitions.  The walk visits the nice decomposition
bottom-up, in ascending node ids (``make_nice`` numbers each node after its
children and the root last), starts each leaf from the engine's start
state, and drops each child table once its parent is built.  An engine
may skip a table: the independent-set engine builds none at an introduce
whose parent forgets another vertex, and that forget reads the table
below the introduce and applies both steps in one sweep (see
``_run_subset_dp``).  Edge checks
happen at introduce nodes: the minimal node whose bag contains both
endpoints of a host edge is an introduce of one endpoint with the other
present, so checking a newly introduced vertex against its bag suffices to
see every edge exactly once per branch.  One state survives every
transition (no bag vertex chosen for MIS, every bag vertex black for DS,
no pattern vertex finished or mapped for the pattern search), so no table
is ever empty.

Every engine first runs one top-down pass, ``_positions``, that checks
the form and gives every bag vertex a position in 0..width: the lowest
free one at the forget where the vertex enters the bag going down, given
back at its introduce.  A nice decomposition not shaped as ``make_nice``
builds one (no nodes, the root not last, a child listed after its parent
or by two parents, a node with the wrong number of children, an introduce
or forget naming no host vertex, an introduce whose vertex the bag above
it lacks, a host vertex forgotten twice or never, a host edge that no bag
holds) is refused there with a GraphInputError, before any table is
built.

Each engine counts a chosen vertex (for the pattern search, a mapped
image) once and links it into the witness once, both at the forget where
the vertex leaves the bag.  Introduces only extend states, and joins add
their two sides plainly.  An entry's value is then the count of chosen
vertices forgotten below its node; the entries that compete for one key
hold the same chosen bag vertices, so they compare as their full counts
would, and at the empty root bag the value is the witness size.

Every table is keyed by bitmasks over bag positions, not vertex ids.  A
state is an int of at most width + 1 bits for MIS (the chosen bag
vertices), 2 (width + 1) for DS (the black and undominated ones), and
one (width + 1)-bit mask per pattern twin class (its members' bag
images), however large the host; a minimum vertex cover is the
complement of the MIS witness.  At every node the map from vertex ids to
positions is one-to-one on the bag, and a join's two children share one
map, so the tables hold the entries that vertex-id keys would, in the
same order.  A table entry holds the optimum value of its state and a witness
chain shared with the child tables; the witness set is rebuilt once, at
the root.  Transitions run in a fixed order and only a strictly better
value replaces an entry (the first of equal values stays), so among
several optima each solver returns one fixed witness.  The
property tests hold it equal to the witness of a reference engine that
copies a full witness set into every entry, so the level-slicing unions
built from band witnesses do not drift when the engine changes.

The dominating-set forget drops each entry (B, U) beside which
(B, U less one bit) is stored with a value no larger: every completion of
the dropped entry completes the kept one, at no larger cost, and every
later node keeps that so.  An introduce extends both alike and keeps the
kept mask inside the dropped one; a forget kills the kept entry only
where it kills the dropped one; a join, which pairs equal black masks
and ANDs the undominated ones, pairs the kept entry with every right
entry the dropped one pairs with, into a mask inside theirs.  So the
minimum stays.  The witness can move, as the kept entry may win a later
tie the dropped one would have won; the reference engine drops the same
entries, so the property tests still hold the witnesses equal.

The walk refuses an input once one of its tables holds more than
``MAX_STATES`` entries, with a GraphInputError naming the table size, the
decomposition width and the budget: a wide decomposition ends in a typed
error, not in hours of work or an out-of-memory kill.  A table an engine
skips is refused at the size it would have had, where it would have been
built.  The dominating-set
and pattern joins, whose output can outgrow both inputs, check the budget
after each left state, and the pattern introduce, which can multiply its
table by the number of twin classes plus one, after each child state, so
they stop as soon as their table passes it.

The pattern search counts its states up to pattern twins (vertices with the
same neighbours besides each other): per twin class, a state holds the
count of members mapped to forgotten vertices and the position mask of
the members' bag images, not one copy per permutation of the class.  Its
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
# The largest table an engine builds; one past it is refused with a
# GraphInputError.  A too-wide run keeps its tables just below the budget
# for many nodes before one crosses it, so the time to a refusal grows with
# the budget: on the 30x30 grid's MIS, 2-2.6 s at 2^17 against 48 s at 2^20.
# 2^17 keeps the 16x16 grid's MIS (largest table 81,920).
MAX_STATES = 1 << 17


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
# leaf is _LEAF_ENTRY.  Links are made only at forgets, where v leaves the
# bag, and at joins; an introduce passes its child's entry on.  The head is
# the count of chosen vertices forgotten below the node in the MIS and DS
# engines, with v a chosen vertex, and a twin class in the pattern engine,
# with v the image of a member.  Links are shared, never copied, so a
# transition costs O(1) besides the state arithmetic, and the witness is
# read once, from the root, by `_links`.

_LEAF_ENTRY = (0, None, None)


def _links(entry: tuple):
    """The forget links of the witness chain ending in `entry`."""
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


def _over_budget(nd: NiceDecomposition, size: int) -> GraphInputError:
    """The refusal an engine raises once a table of `size` entries outgrows
    MAX_STATES."""
    return GraphInputError(
        f"dynamic program table reached {size} states on a "
        f"decomposition of width {nd.width}; the budget is {MAX_STATES}")


def _positions(nd: NiceDecomposition, g: Graph,
               fold: bytearray | None = None) -> tuple[list[int], list[int]]:
    """(pos, near): per node, the position bit of its introduced or
    forgotten vertex, and per introduce the mask of the positions held by
    that vertex's bag neighbours (0 at every other node).  When `fold` is
    given, one byte per node, it gets a 1 at each introduce whose parent
    forgets another vertex: the fold points of `_run_subset_dp`.

    One top-down pass, in descending ids from the empty root bag, keeps the
    {vertex: position bit} map of each bag whose node is still to visit: a
    forget's child gets its map plus the vertex at the lowest free
    position, an introduce's child its map less the vertex, and a join's
    children the map and a copy of it.  A vertex enters a bag of k vertices
    at a position below k, so no position reaches width + 1.

    The same pass refuses nd, before any table is built, unless it has the
    shape that `make_nice` builds: one or more nodes, the root last, every
    other node the child of exactly one later node, each node with as many
    children as its kind takes, each introduce and forget naming a vertex
    in 0..g.n-1 (a negative id would silently wrap in a list), each
    introduce's vertex in the bag above it, each host vertex forgotten
    by exactly one forget (one mark per host vertex), and each host edge
    held by some bag: a vertex in two disconnected subtrees would be
    counted twice, one in no bag never chosen, and an edge in no bag never
    checked.  A vertex's bags are the subtree below its forget, so an edge
    whose ends share a bag has one end in the bag of the other's forget,
    and the edges are counted there, each once."""
    count = nd.node_count
    if not count or nd.root != count - 1:
        raise GraphInputError(f"nice decomposition has root {nd.root} "
                              f"among {count} nodes; the root must be the "
                              "last of one or more")
    kinds, children, vertex = nd.kind, nd.children, nd.vertex
    if not len(children) == len(vertex) == count:
        raise GraphInputError(f"nice decomposition lists {count} kinds, "
                              f"{len(children)} child tuples and "
                              f"{len(vertex)} vertices")
    # children per node kind; a kind missing here names no nice node
    arities = {LEAF: 0, INTRODUCE: 1, FORGET: 1, JOIN: 2}
    nbr = g.neighbor_sets()
    pos = [0] * count
    near = [0] * count
    forgotten = bytearray(g.n)      # per host vertex, forgotten yet
    edges = 0                       # host edges held by some bag
    held = {nd.root: {}}
    for node in range(count - 1, -1, -1):
        at = held.pop(node, None)   # held by no other node: updated in place
        if at is None:
            raise GraphInputError(f"nice decomposition node {node} is "
                                  "neither the root nor a child")
        kind, kids = kinds[node], children[node]
        if arities.get(kind) != len(kids):
            raise GraphInputError(f"nice decomposition node {node} of kind "
                                  f"{kind!r} has {len(kids)} children")
        for child in kids:
            if not 0 <= child < node or child in held:
                raise GraphInputError(
                    f"nice decomposition node {node} lists child {child}, "
                    "not an earlier node without another parent")
            held[child] = at
        if kind == JOIN:
            held[kids[1]] = at.copy()
        elif kind != LEAF:
            v = vertex[node]
            if v is None or not 0 <= v < g.n:
                raise GraphInputError(
                    f"nice decomposition names vertex {v}, not a vertex of "
                    f"the {g.n}-vertex host")
            if kind == INTRODUCE:
                if v not in at:
                    raise GraphInputError(
                        f"nice decomposition introduces vertex {v} at node "
                        f"{node}, but the bag above does not hold it")
                pos[node] = at.pop(v)
                vnbr = nbr[v]
                mask = 0                # a loop: a generator sum costs more
                for u, b in at.items():
                    if u in vnbr:
                        mask |= b
                near[node] = mask
            else:
                if forgotten[v]:
                    raise GraphInputError(f"nice decomposition forgets "
                                          f"vertex {v} twice")
                forgotten[v] = 1
                if (fold is not None and kinds[child] == INTRODUCE
                        and vertex[child] != v):
                    fold[child] = 1         # child: the forget's only one
                edges += len(nbr[v].intersection(at))
                taken = sum(at.values())
                pos[node] = at[v] = ~taken & (taken + 1)
    if not all(forgotten):
        raise GraphInputError(f"nice decomposition never forgets vertex "
                              f"{forgotten.index(0)}")
    total = sum(map(len, nbr)) // 2     # loops and parallels left out
    if edges != total:
        raise GraphInputError(f"nice decomposition bags hold {edges} of the "
                              f"{total} host edges")
    return pos, near


def _walk(nd: NiceDecomposition, start, introduce, forget, join) -> dict:
    """Run one engine bottom-up over nd and return the root table.

    A leaf's table is {start: _LEAF_ENTRY}; an introduce or forget node's
    is introduce(node, child) or forget(node, child), with node its id, so
    an engine reads the node's vertex and whatever it keeps per node; a
    join's is join(left, right).  Each child table is popped as its parent
    is built, and a table past MAX_STATES is refused.  A step may return
    its child table itself, for its parent to apply the step while reading
    it; the step then refuses, by itself, the table it did not build."""
    tables: dict[int, dict] = {}
    for node in range(nd.node_count):
        kind = nd.kind[node]
        children = nd.children[node]
        if kind == LEAF:
            out = {start: _LEAF_ENTRY}
        elif kind == JOIN:
            out = join(tables.pop(children[0]), tables.pop(children[1]))
        else:
            step = introduce if kind == INTRODUCE else forget
            out = step(node, tables.pop(children[0]))
        if len(out) > MAX_STATES:
            raise _over_budget(nd, len(out))
        tables[node] = out
    return tables[nd.root]


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

    A state is the bitmask, over bag positions, of the bag vertices chosen
    into the independent set.  A new vertex may join the chosen set only
    with no chosen bag neighbour, which keeps exactly the states extendable
    to independent sets.  A chosen vertex is counted and linked at its
    forget, so a join's value is left + right.

    Introduces try "stay out" before "chosen", joins follow the left table's
    order, and only a strictly larger value replaces an entry: this order
    and tie rule fix which optimal witness is returned.

    An introduce of u whose parent forgets another vertex (a fold point,
    marked by `_positions`) builds no table: it hands its child table on,
    and the forget reads each child state as "u out" and then, if u has no
    chosen bag neighbour, "u in".  That is the order in which the
    introduce would have stored them, under distinct keys, so every merge
    and tie at the forget is the one it would have made.  The introduce
    still takes the size of the table it skips and refuses it past the
    budget, so a refusal comes where and as it would with the table built.
    """
    vertex, kids = nd.vertex, nd.children
    fold = bytearray(nd.node_count)
    pos, near = _positions(nd, g, fold)

    def introduce(node, child):
        # v's position is free in every child state, so no two outputs
        # share a key; vnear holds the positions of v's bag neighbours
        bit, vnear = pos[node], near[node]
        if fold[node]:
            # the skipped table holds at most two entries per child state
            if 2 * len(child) > MAX_STATES:
                size = len(child) + sum(not vnear & state for state in child)
                if size > MAX_STATES:
                    raise _over_budget(nd, size)
            return child
        out = {}
        for state, entry in child.items():
            out[state] = entry
            if not vnear & state:              # v independent of chosen bag
                out[state | bit] = entry
        return out

    def forget(node, child):
        v, bit = vertex[node], pos[node]
        below = kids[node][0]
        # at a fold point, child is the table below the introduce of u,
        # which is not v: each state is read as "u out", then as "u in" if
        # u has no chosen bag neighbour, and both share v's count and link
        ubit = pos[below] if fold[below] else 0
        unear = near[below]
        out = {}
        for state, entry in child.items():
            free = ubit and not unear & state
            if state & bit:                    # v chosen: count and link it
                state ^= bit
                entry = (entry[0] + 1, v, entry)
            cur = out.get(state)
            if cur is None or entry[0] > cur[0]:
                out[state] = entry
            if free:
                state |= ubit
                cur = out.get(state)
                if cur is None or entry[0] > cur[0]:
                    out[state] = entry
        return out

    def join(left, right):
        # one right state matches each left state, so the output is never
        # larger than the left table
        out = {}
        for state, entry in left.items():
            other = right.get(state)
            if other is not None:
                out[state] = (entry[0] + other[0], None, entry, other)
        return out

    return _walk(nd, 0, introduce, forget, join)


# ---------------------------------------------------------------------------
# Dominating set: three states per bag vertex.


def dp_ds(nd: NiceDecomposition, g: Graph, required=None) -> set[int]:
    """Minimum set S with every required vertex (every vertex when
    `required` is None) in S or adjacent to S.

    Per bag vertex: chosen (black), not chosen but already dominated, or not
    chosen and so far undominated.  A state is the pair of bitmasks (black,
    undominated) over bag positions, packed into one int as
    black | undominated << (width + 1); a bag vertex in neither is
    dominated.
    Introducing a black vertex v clears its neighbours from the undominated
    mask; introducing v plain makes it undominated unless it has a black bag
    neighbour; forgetting an undominated required vertex kills the state; a
    join pairs states with equal black masks, and a vertex stays undominated
    only if it is undominated on both sides (the AND of the two states).  A
    black vertex is counted and linked at its forget, so a join's value is
    left + right.

    Introduces try black before plain, joins follow the left table's order
    and, per left state, the right table's order among equal black masks,
    and only a strictly smaller value replaces an entry: this order and tie
    rule fix which optimal witness is returned.

    After its merge, a forget drops each entry (B, U) for which (B, U less
    one bit) is stored with a value no larger; the module docstring gives
    why the minimum stays.  A required vertex outside the host is refused
    with a GraphInputError before any table is built.
    """
    pos, near = _positions(nd, g)
    required = set(range(g.n) if required is None else required)
    bad = min((v for v in required if not 0 <= v < g.n), default=None)
    if bad is not None:
        raise GraphInputError(f"dominating set requires vertex {bad}, not a "
                              f"vertex of the {g.n}-vertex host")
    if not required:
        return set()
    vertex = nd.vertex
    # width + 1, as the highest position bit handed out is 1 << width
    span = max(pos).bit_length()
    low = (1 << span) - 1                 # the black half of a state
    high = ~low                           # the undominated half

    def introduce(node, child):
        bit, vnear = pos[node], near[node]
        ubit = bit << span
        clear = ~(vnear << span)
        out = {}
        for state, entry in child.items():
            # v chosen: its undominated bag neighbours become dominated.
            key = (state & clear) | bit
            cur = out.get(key)
            if cur is None or entry[0] < cur[0]:
                out[key] = entry
            # v not chosen, dominated now iff some bag neighbour is black;
            # no other output has this key.
            out[state if state & vnear else state | ubit] = entry
        return out

    def forget(node, child):
        v, bit = vertex[node], pos[node]
        dead = bit << span if v in required else 0
        keep = ~(bit | bit << span)
        out = {}
        for state, entry in child.items():
            if state & dead:
                continue
            if state & bit:                    # v black: count and link it
                entry = (entry[0] + 1, v, entry)
            key = state & keep
            cur = out.get(key)
            if cur is None or entry[0] < cur[0]:
                out[key] = entry
        # drop an entry where one undominated vertex fewer costs no more;
        # deleting keeps the order of the rest and copies no entry
        dominated = []
        for key, entry in out.items():
            undominated = key & high
            while undominated:
                b = undominated & -undominated
                other = out.get(key ^ b)
                if other is not None and other[0] <= entry[0]:
                    dominated.append(key)
                    break
                undominated ^= b
        for key in dominated:
            del out[key]
        return out

    def join(left, right):
        buckets: dict[int, list] = {}
        for state, entry in right.items():
            buckets.setdefault(state & low, []).append((state, entry))
        out = {}
        for state, entry in left.items():
            for rstate, other in buckets.get(state & low, ()):
                key = state & rstate               # equal black halves
                value = entry[0] + other[0]
                cur = out.get(key)
                if cur is None or value < cur[0]:
                    out[key] = (value, None, entry, other)
            if len(out) > MAX_STATES:
                raise _over_budget(nd, len(out))
        return out

    witness = _unroll(_walk(nd, 0, introduce, forget, join)[0])
    check_solution("ds", g, witness, required)
    return witness


# ---------------------------------------------------------------------------
# Fixed-pattern subgraph isomorphism, counted up to pattern twins.
#
# Pattern vertices p and q are twins when N(p) - {q} = N(q) - {p}.  This is
# an equivalence relation, each class is a clique or an independent set, and
# swapping two twins is an automorphism of the pattern, so a state need not
# say which member of a class has which image.  A state is the pair
# (finished, masks): per class, the number of members mapped to forgotten
# vertices, and the mask of the bag positions holding its members' images;
# the other members are unseen.  A per-vertex state would store one copy per
# permutation of the class (120 for K5).  On a twin-free pattern every class
# is one vertex, and the states, their order and the returned mapping are
# those of a per-vertex engine.
#
# A table entry is a witness chain of the shape above: a forget link
# (class, image, rest) gives a member of the class its image as the image
# leaves the bag.  The root entry is read once into one image set per
# class; a valid decomposition forgets each vertex once, so a set only
# absorbs an image that an invalid one forgets twice.


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
    induced), or None.  State: per twin class of h, the count of members
    finished (mapped to forgotten vertices) and the mask of the bag
    positions holding the members' images.  An introduce offers v to each
    class with an unseen member; forgetting an image requires every
    pattern neighbour of its member to be mapped.  A join pairs states with
    equal masks whose finished members fit into each class.

    The mapping is some valid embedding, fixed for each input: on a
    twin-free pattern it is the per-vertex engine's; otherwise the members
    of each twin class get its images in ascending order.
    """
    pos, near = _positions(nd, g)
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
    size = [len(members) for members in classes]
    degree = [len(hnbr[members[0]]) for members in classes]
    # joined[c]: bit d set iff the members of class d are pattern neighbours
    # of c's; twins make this all or nothing, and c is in it iff c is a
    # clique of two or more
    joined = [sum(1 << d for d, other in enumerate(classes)
                  if other[-1] in hnbr[members[0]]) for members in classes]
    indices = range(len(classes))

    vertex = nd.vertex

    def introduce(node, child):
        bit, vnear = pos[node], near[node]
        vfar = ~vnear
        vdegree = len(gnbr[vertex[node]])
        free = [c for c in indices if vdegree >= degree[c]]
        out: dict[tuple, tuple] = {}
        for state, wit in child.items():
            out.setdefault(state, wit)           # v stays outside the image
            # a member of class c may take v iff no class in joined[c] has
            # an image away from v (and, if induced, no class outside it has
            # one next to v)
            finished, masks = state
            close = apart = 0
            for c, m in enumerate(masks):
                if m & vnear:
                    close |= 1 << c
                if m & vfar:
                    apart |= 1 << c
            for c in free:
                if (finished[c] + masks[c].bit_count() < size[c]
                        and not joined[c] & apart
                        and not (induced and close & ~joined[c])):
                    ns = (finished,
                          masks[:c] + (masks[c] | bit,) + masks[c + 1:])
                    out.setdefault(ns, wit)
            if len(out) > MAX_STATES:
                raise _over_budget(nd, len(out))
        return out

    def forget(node, child):
        v, bit = vertex[node], pos[node]
        out = {}
        for state, wit in child.items():
            finished, masks = state
            for c, m in enumerate(masks):
                if m & bit:
                    break
            else:
                out.setdefault(state, wit)
                continue
            # every pattern edge at v's member must be settled before v
            # leaves the bag: no joined class may have an unseen member.  A
            # mapped neighbour needs no check, as every mapped pattern edge
            # was checked at the introduce of its later endpoint and a join
            # pairs only equal images
            if any(finished[d] + masks[d].bit_count() < size[d]
                   for d in indices if joined[c] >> d & 1):
                continue
            out.setdefault(
                (finished[:c] + (finished[c] + 1,) + finished[c + 1:],
                 masks[:c] + (m ^ bit,) + masks[c + 1:]),
                (c, v, wit))
        return out

    def join(left, right):
        # the bag images must agree, and per class the finished members of
        # both sides must fit beside the images: finished_l + finished_r +
        # |images| <= size.  Finished counts never fall, so an overfull
        # state could never reach the goal: the fit test only prunes dead
        # states.  A side without finished members adds nothing to the
        # other, whose state fits already
        buckets: dict[tuple, list] = {}
        for (finished, masks), wit in right.items():
            buckets.setdefault(masks, []).append((finished, wit))
        out = {}
        for state, wit in left.items():
            finished, masks = state
            for rfinished, rwit in buckets.get(masks, ()):
                if not any(rfinished):
                    merged = state
                elif not any(finished):
                    merged = (rfinished, masks)
                else:
                    total = tuple(a + b for a, b in zip(finished, rfinished))
                    if any(t + m.bit_count() > s
                           for t, m, s in zip(total, masks, size)):
                        continue
                    merged = (total, masks)
                if merged not in out:
                    out[merged] = (None, None, wit, rwit)
            if len(out) > MAX_STATES:
                raise _over_budget(nd, len(out))
        return out

    empty = tuple(0 for _ in classes)
    root = _walk(nd, (empty, empty), introduce, forget, join)
    goal = root.get((tuple(size), empty))
    if goal is None:
        return None
    mapping = _class_images(goal, classes)
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
