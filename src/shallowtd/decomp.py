"""Tree decompositions: validation, nice form, and text interchange."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .graph import Graph, GraphInputError, text_records


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


def validate(td: TreeDecomposition, g: Graph) -> ValidationReport:
    """Check the three bag conditions; violations go into the report.

    The checks run in a fixed order (bag count, tree shape, host vertex
    range, vertex coverage, edge coverage, subtree condition) and the first
    violation found is reported.  One pass over the bags builds
    ``holding[v]``, the nodes whose bag holds v, in increasing order.  An edge
    (u, v) is covered iff some node of the shorter of ``holding[u]`` and
    ``holding[v]`` holds the other endpoint.  For the subtree condition: the
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
    if len(td.bags) != td.nodes:
        return ValidationReport(False, width, "bag count does not match node count", None)
    if _root_tree(td.nodes, td.tree_edges) is None:
        return ValidationReport(False, width, "decomposition edges do not form a tree", None)
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
        a, b = (u, v) if len(holding[u]) <= len(holding[v]) else (v, u)
        if not any(b in bag_sets[i] for i in holding[a]):
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

    The root bag is empty.  `children[i]` lists child node indices,
    `vertex[i]` is the introduced/forgotten vertex where applicable.  Every
    child's index is below its parent's and the root is the last node, so
    ascending indices walk the tree bottom-up.
    """

    kind: list[str]
    bag: list[tuple[int, ...]]
    children: list[tuple[int, ...]]
    vertex: list[int | None]
    root: int

    @property
    def node_count(self) -> int:
        return len(self.kind)

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bag) - 1


class _NiceBuilder:
    def __init__(self):
        self.kind: list[str] = []
        self.bag: list[tuple[int, ...]] = []
        self.children: list[tuple[int, ...]] = []
        self.vertex: list[int | None] = []

    def add(self, kind, bag, children=(), vertex=None) -> int:
        self.kind.append(kind)
        self.bag.append(tuple(sorted(bag)))
        self.children.append(tuple(children))
        self.vertex.append(vertex)
        return len(self.kind) - 1

    def morph(self, node: int, target: tuple[int, ...]) -> int:
        """Forget/introduce chain turning `node`'s bag into `target`."""
        cur = set(self.bag[node])
        tgt = set(target)
        for v in sorted(cur - tgt):
            cur.discard(v)
            node = self.add(FORGET, cur, (node,), v)
        for v in sorted(tgt - cur):
            cur.add(v)
            node = self.add(INTRODUCE, cur, (node,), v)
        return node


def make_nice(td: TreeDecomposition) -> NiceDecomposition:
    """Convert to nice form; the width is preserved exactly.  Nodes are
    numbered as they are built, each after its children."""
    rooted = _root_tree(td.nodes, td.tree_edges)
    if rooted is None:
        raise GraphInputError("input decomposition is not a tree")
    order, children = rooted
    b = _NiceBuilder()
    top = [0] * td.nodes            # per td node, the nice node atop its bag
    for x in reversed(order):
        bag = td.bags[x]
        morphed = ([b.morph(top[y], bag) for y in children[x]]
                   or [b.morph(b.add(LEAF, ()), bag)])
        node = morphed[0]
        for other in morphed[1:]:
            node = b.add(JOIN, bag, (node, other))
        top[x] = node
    root = b.morph(top[0], ())
    return NiceDecomposition(kind=b.kind, bag=b.bag, children=b.children,
                             vertex=b.vertex, root=root)


# ---------------------------------------------------------------------------
# Heuristic decomposition for arbitrary hosts (min-degree elimination).
# `solve` runs its DP on it for every host, planar or not; it makes no width
# guarantee, and is narrower than `planar_bfs_td` on most planar hosts.

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
        lines.append("b " + str(i) + "".join(f" {v}" for v in bag))
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
    for lineno, key, fields in text_records(
            text, {"td": (3, 3), "b": (1, math.inf), "t": (2, 2)}):
        if key == "td":
            if header is not None:
                raise GraphInputError(f"line {lineno}: duplicate td line")
            header = (lineno, *fields)
            if min(header[1], header[3]) < 0:
                raise GraphInputError(f"line {lineno}: negative node or "
                                      "host vertex count")
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
