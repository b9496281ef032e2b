"""Reference for ``shallowtd.decomp.make_nice`` that stores every bag.

This is the nice-form builder as it ran when each nice node kept a sorted
bag tuple: every node is added through one builder that sorts its bag, and
each forget/introduce chain starts from the stored bag of the node below
it.  The property tests require ``make_nice`` to return the same kinds,
children, vertices and root, and its replayed bags to equal these.
"""

from dataclasses import dataclass

from shallowtd.decomp import (FORGET, INTRODUCE, JOIN, LEAF,
                              TreeDecomposition, _root_tree)
from shallowtd.graph import GraphInputError


@dataclass
class StoredNiceDecomposition:
    kind: list[str]
    bag: list[tuple[int, ...]]
    children: list[tuple[int, ...]]
    vertex: list[int | None]
    root: int


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


def make_nice(td: TreeDecomposition) -> StoredNiceDecomposition:
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
    return StoredNiceDecomposition(kind=b.kind, bag=b.bag,
                                   children=b.children, vertex=b.vertex,
                                   root=root)
