"""Tree decompositions: validation, nice form, and text interchange."""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from operator import eq

from . import _kernels
from .graph import MAX_VERTICES, Graph, GraphInputError, text_columns


@dataclass
class TreeDecomposition:
    """Tree of vertex bags over a host graph.  Bags are sorted tuples."""

    nodes: int
    tree_edges: list[tuple[int, int]]
    bags: list[tuple[int, ...]]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


@dataclass
class ValidationReport:
    valid: bool
    width: int
    violation: str | None = None
    witness: object = None


def _root_tree(nodes: int, edges: list[tuple[int, int]]
               ) -> tuple[list[int], list[list[int]]] | None:
    """(order, children) of the tree on nodes 0..nodes-1 with `edges`,
    rooted at node 0: `order` lists every node after its parent, and
    `children[x]` lists x's children in the order of its edges.  None when
    the edges do not form a tree."""
    if nodes == 0 or len(edges) != nodes - 1:
        return None
    adj = [[] for _ in range(nodes)]
    for a, b in edges:
        if not (0 <= a < nodes and 0 <= b < nodes):
            return None
        adj[a].append(b)
        adj[b].append(a)
    children: list[list[int]] = [[] for _ in range(nodes)]
    seen = [False] * nodes
    seen[0] = True
    order = [0]
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                children[x].append(y)
                order.append(y)
                stack.append(y)
    return (order, children) if len(order) == nodes else None


def _shape(td: TreeDecomposition
           ) -> tuple[str | None, tuple[list[int], list[list[int]]] | None]:
    """(violation, rooted): the first shape violation of td (its bag count,
    then its tree edges) and None, or None and `_root_tree`'s (order,
    children) of a well-shaped td.  `validate` reports the violation and
    `make_nice` raises it."""
    if len(td.bags) != td.nodes:
        return "bag count does not match node count", None
    rooted = _root_tree(td.nodes, td.tree_edges)
    if rooted is None:
        return "decomposition edges do not form a tree", None
    return None, rooted


def validate(td: TreeDecomposition, g: Graph) -> ValidationReport:
    """Check the three bag conditions; violations go into the report.

    The checks run in a fixed order (bag count, tree shape, host vertex
    range, vertex coverage, edge coverage, subtree condition) and the first
    violation found is reported.  One pass over the bags builds
    ``holding[v]``, the nodes whose bag holds v, in increasing order.  An edge
    (u, v) is covered iff some node of the shorter of ``holding[u]`` and
    ``holding[v]`` holds the other endpoint; the first such node, which
    holds it for most edges of a root-path decomposition, is tried before
    the loop over them all.  For the subtree condition: the
    nodes holding v induce a forest in the tree, and a forest with k nodes and
    s edges has k - s components, so they are connected iff
    ``len(holding[v]) - shared[v] == 1``, where ``shared[v]`` counts the tree
    edges whose two bags both hold v; each tree edge's bags are intersected
    from the smaller one.  The total cost is O(total bag size + |E| * shorter
    occurrence list).  Only the first vertex that fails gets a search of its
    holding nodes, to name the witness (v, first holding node, first holding
    node it cannot reach).
    """
    width = td.width
    violation, _ = _shape(td)
    if violation is not None:
        return ValidationReport(False, width, violation, None)
    bag_sets = [set(b) for b in td.bags]
    holding: list[list[int]] = [[] for _ in range(g.n)]
    for i, b in enumerate(bag_sets):
        for v in b:
            if not (0 <= v < g.n):
                return ValidationReport(False, width, "bag references a non-host vertex", v)
            holding[v].append(i)

    for v in range(g.n):
        if not holding[v]:
            return ValidationReport(False, width, "vertex not covered by any bag", v)

    for u, v in g.edges:
        hu, hv = holding[u], holding[v]
        nodes, other = (hu, v) if len(hu) <= len(hv) else (hv, u)
        if other in bag_sets[nodes[0]]:
            continue
        for i in nodes:
            if other in bag_sets[i]:
                break
        else:
            return ValidationReport(False, width, "edge endpoints never share a bag", (u, v))

    shared = [0] * g.n
    for a, b in td.tree_edges:
        for v in bag_sets[a] & bag_sets[b]:    # iterates the smaller set
            shared[v] += 1
    for v in range(g.n):
        if len(holding[v]) - shared[v] != 1:
            return ValidationReport(False, width,
                                    "bags containing a vertex do not form a subtree",
                                    _subtree_witness(td, bag_sets, holding[v], v))
    return ValidationReport(True, width)


def _subtree_witness(td: TreeDecomposition, bag_sets: list[set[int]],
                     holding: list[int], v: int) -> tuple[int, int, int]:
    """(v, start, missing): search the tree from the first node holding v
    through nodes holding v; missing is the first holding node not reached."""
    adj = [[] for _ in range(td.nodes)]
    for a, b in td.tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    start = holding[0]
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen and v in bag_sets[y]:
                seen.add(y)
                stack.append(y)
    missing = next(i for i in holding if i not in seen)
    return v, start, missing


# ---------------------------------------------------------------------------
# Nice decompositions

LEAF, INTRODUCE, FORGET, JOIN = "leaf", "introduce", "forget", "join"


@dataclass
class NiceDecomposition:
    """Rooted binary decomposition of leaf/introduce/forget/join nodes.

    `children[i]` lists child ids and `vertex[i]` the introduced or
    forgotten vertex.  Children come before parents and the root last, so
    ascending ids walk the tree bottom-up.  The DP engines read only these;
    `bag` is replayed from them once, on first read, for other readers.
    """

    kind: list[str]
    children: list[tuple[int, ...]]
    vertex: list[int | None]
    root: int

    @property
    def node_count(self) -> int:
        return len(self.kind)

    @functools.cached_property
    def bag(self) -> list[tuple[int, ...]]:
        """Sorted bags: a leaf's is empty, an introduce adds its vertex to
        its child's, a forget drops it, a join copies its first child's."""
        bags: list[tuple[int, ...]] = []
        for kind, kids, v in zip(self.kind, self.children, self.vertex):
            below = bags[kids[0]] if kids else ()
            if kind == INTRODUCE:
                below = tuple(sorted((*below, v)))
            elif kind == FORGET:
                below = tuple(u for u in below if u != v)
            bags.append(below)
        return bags

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bag) - 1


def make_nice(td: TreeDecomposition) -> NiceDecomposition:
    """Convert to nice form with an empty root bag and the same width.
    Nodes are numbered as built, each after its children; no bag is built."""
    violation, rooted = _shape(td)
    if violation is not None:
        raise GraphInputError(f"input decomposition: {violation}")
    order, children = rooted
    kind, kids, vertex = [], [], []         # the fields, per nice node
    bags = [set(b) for b in td.bags]
    empty: set[int] = set()

    def morph(node: int, source: set[int], target: set[int]) -> int:
        """The top of a chain from `node`, whose bag is `source`, to a node
        whose bag is `target`: forgets, then introduces, each sorted."""
        for v in sorted(source - target):
            kind.append(FORGET)
            kids.append((node,))
            vertex.append(v)
            node = len(kind) - 1
        for v in sorted(target - source):
            kind.append(INTRODUCE)
            kids.append((node,))
            vertex.append(v)
            node = len(kind) - 1
        return node

    top = [0] * td.nodes            # per td node, the nice node atop its bag
    for x in reversed(order):
        bag = bags[x]
        if children[x]:
            morphed = [morph(top[y], bags[y], bag) for y in children[x]]
        else:
            kind.append(LEAF)
            kids.append(())
            vertex.append(None)
            morphed = [morph(len(kind) - 1, empty, bag)]
        node = morphed[0]
        for other in morphed[1:]:
            kind.append(JOIN)
            kids.append((node, other))
            vertex.append(None)
            node = len(kind) - 1
        top[x] = node
    return NiceDecomposition(kind, kids, vertex, morph(top[0], bags[0], empty))


# ---------------------------------------------------------------------------
# Heuristic decompositions for arbitrary hosts, by vertex elimination.
# `slice_td` takes min-degree elimination (`heuristic_td`) for every level
# band it keeps within the band's bound.  `solve` takes `narrower_td`:
# min-degree, unless eliminating the deepest BFS level first is strictly
# narrower.  On grids, walls and tori min-degree is up to 1.4 times the
# treewidth and level order tracks the BFS depth the paper bounds it by; on
# triangulations level order is far wider.  Neither makes a width guarantee.

def heuristic_td(g: Graph) -> TreeDecomposition:
    """Min-degree elimination: repeatedly eliminate the live vertex of
    lowest live degree (ties to the lowest id), make its live neighbours a
    clique, and give it the bag of itself and those neighbours.

    Each neighbour set holds live vertices only, and a lazy heap holds
    (live degree, vertex) entries; after an elimination only the
    eliminated vertex's neighbours get new entries, and a popped entry that
    is stale or names a dead vertex is skipped.  So every pop is the
    argmin of a full rescan, in O(sum of eliminated degree squared, plus
    heap work) time.  A self-loop constrains no bag and is ignored.
    """
    if g.n == 0:
        return TreeDecomposition(nodes=1, tree_edges=[], bags=[()])
    nbrs = [set(s) for s in g.neighbor_sets()]     # loop-free copies
    alive = [True] * g.n
    heap = [(len(s), v) for v, s in enumerate(nbrs)]
    heapq.heapify(heap)
    order: list[int] = []
    later: list[set[int]] = []
    while heap:
        d, v = heapq.heappop(heap)
        live_nb = nbrs[v]
        if not alive[v] or d != len(live_nb):
            continue
        alive[v] = False
        order.append(v)
        later.append(live_nb)                      # frozen from here on
        for a in live_nb:
            na = nbrs[a]
            before = len(na)
            na |= live_nb
            na.discard(a)
            na.discard(v)
            if len(na) != before:
                heapq.heappush(heap, (len(na), a))
    return _td_from_elimination(order, later)


def narrower_td(g: Graph) -> TreeDecomposition:
    """`heuristic_td`, unless eliminating in deepest-BFS-level-first order
    is strictly narrower; ties, disconnected and empty hosts keep it.

    The levels come from the BFS of ``_kernels.far_sweep`` (rooted at the
    lowest-id vertex farthest from vertex 0), and vertices are eliminated in
    (-level, id) order, the sweep's level lists read from the deepest up,
    with `heuristic_td`'s live-neighbour update.  The run stops, keeping
    min-degree, as soon as a live neighbourhood reaches min-degree's width;
    and it does not start when that width is at most the minimum degree, a
    lower bound on the treewidth (every stacked triangulation).  A
    neighbour set is copied on its first change, so an early stop has
    copied only the sets it touched.
    """
    td = heuristic_td(g)
    width = td.width
    nbrs = g.neighbor_sets()
    if g.n == 0 or width <= min(map(len, nbrs)):
        return td
    sweep = _kernels.far_sweep(g.nbrs)
    if sweep is None:
        return td
    order = [v for vs in reversed(sweep[2]) for v in vs]
    live: list[set[int] | None] = [None] * g.n     # None: still nbrs[v]
    later: list[set[int]] = []
    for v in order:
        live_nb = nbrs[v] if live[v] is None else live[v]
        if len(live_nb) >= width:
            return td
        later.append(live_nb)
        for a in live_nb:
            na = live[a]
            if na is None:
                na = live[a] = set(nbrs[a])
            na |= live_nb
            na.discard(a)
            na.discard(v)
    return _td_from_elimination(order, later)


def _td_from_elimination(order: list[int],
                         later: list[set[int]]) -> TreeDecomposition:
    """The elimination tree: node i holds order[i] and its neighbours
    eliminated after it (`later[i]`), and is joined to the earliest of
    those, or to node i + 1 when it has none."""
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    tree_edges = []
    for i, rest in enumerate(later):
        if rest:
            tree_edges.append((i, min(pos[w] for w in rest)))
        elif i + 1 < len(order):
            tree_edges.append((i, i + 1))
    return TreeDecomposition(nodes=len(order), tree_edges=tree_edges,
                             bags=[tuple(sorted(rest | {v}))
                                   for v, rest in zip(order, later)])


# ---------------------------------------------------------------------------
# Text interchange format

def emit_td(td: TreeDecomposition, host_n: int) -> str:
    lines = [f"td {td.nodes} {td.width} {host_n}"]
    for i, bag in enumerate(td.bags):
        lines.append(" ".join(["b", str(i), *map(str, bag)]))
    for a, c in td.tree_edges:
        lines.append(f"t {a} {c}")
    return "\n".join(lines) + "\n"


def parse_td(text: str) -> tuple[TreeDecomposition, int]:
    """The decomposition in ``emit_td``'s format and its host's vertex
    count.  Malformed text raises GraphInputError naming its line; whether
    the bags decompose a graph is ``validate``'s question."""
    header = None                       # (line number, nodes, width, host_n)
    bags: dict[int, tuple[int, ...]] = {}
    bag_line: dict[int, int] = {}       # node -> its b line's number
    tree_edges: list[tuple[int, int]] = []
    for block in text_columns(text, {"td": 3, "b": None, "t": 2}):
        faults = []             # the first (line number, fault) per keyword
        if "td" in block:
            for fields in zip(*block["td"]):
                if header is not None:
                    faults.append((fields[0], "duplicate td line"))
                    break
                header = fields
                if min(header[1], header[3]) < 0:
                    faults.append((fields[0], "negative node or host vertex "
                                              "count"))
                    break
                if header[3] > MAX_VERTICES or header[1] > 2 * MAX_VERTICES:
                    faults.append((fields[0], f"over the budget of "
                                              f"{MAX_VERTICES} host vertices "
                                              f"and {2 * MAX_VERTICES} nodes"))
                    break
        if "b" in block:
            nums, nodes, members = block["b"]
            sorted_bags = list(map(tuple, map(sorted, members)))
            known = len(bags)
            bags.update(zip(nodes, sorted_bags))
            if (len(bags) != known + len(nodes) or not all(
                    map(eq, map(len, map(set, sorted_bags)),
                        map(len, sorted_bags)))):
                for lineno, node, bag in zip(nums, nodes, sorted_bags):
                    if node in bag_line:
                        faults.append((lineno, f"duplicate b line for node "
                                               f"{node}"))
                        break
                    if len(set(bag)) != len(bag):
                        faults.append((lineno, f"bag {node} lists a vertex "
                                               "twice"))
                        break
                    bag_line[node] = lineno
            bag_line.update(zip(nodes, nums))
        if "t" in block:
            _nums, ends, other_ends = block["t"]
            tree_edges.extend(zip(ends, other_ends))
        if faults:
            lineno, fault = min(faults)
            raise GraphInputError(f"line {lineno}: {fault}")
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
