"""Shared fixtures: small named graphs, embedded variants, relabelling of
an embedded graph, the rotation certificate of a triangulation, and a DP
table entry with a given witness.

Every ``shallowtd`` module is imported here, before any test module.
Hypothesis draws examples partly from the literal constants of the
non-test local modules already imported, so a derandomized property test
would otherwise see other examples when run alone than in a run whose
other tests import more of the package (``shallowtd.bench`` is imported
only on demand).  An edit under ``src/`` that adds or removes a distinct
literal (a string of at most 20 characters, an integer of magnitude 100
or more, a float) still moves every derandomized example stream, as does
another Hypothesis version."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import shallowtd
from shallowtd.graph import Graph, build_graph, embed

for _module in pkgutil.walk_packages(shallowtd.__path__, "shallowtd."):
    importlib.import_module(_module.name)


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def star_graph(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# Edges 0 and 1 both join vertices 0 and 1 and bound a face of two darts.
DIGON = "v 3\ne 0 1\ne 0 1\ne 1 2\nrot 0 0 2\nrot 1 1 3 4\nrot 2 5\n"


def embed_outerplanar(g: Graph):
    """Embedding with darts at each vertex in edge-id order; planar for
    paths, cycles, stars, and trees (any rotation of a tree is planar)."""
    rot = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        rot[u].append(2 * e)
        rot[v].append(2 * e + 1)
    return embed(g, rot)


def relabel_embedded(e, label):
    """`e` with vertex v renamed label[v]; edge ids and rotations keep
    their order, so the embedding is the same."""
    g = build_graph(e.n, [(label[u], label[v]) for u, v in e.graph.edges])
    rot = [None] * e.n
    for v, darts in enumerate(e.rotation):
        rot[label[v]] = list(darts)
    return embed(g, rot)


def rotation_from_faces(g: Graph, faces) -> list[list[int]]:
    """The rotation system whose faces are `faces`, each dart in one face:
    the successor of d ^ 1 is the dart after d in its face.  Each vertex's
    cycle starts at its lowest dart."""
    assert sorted(d for cyc in faces for d in cyc) == list(range(2 * g.m))
    succ = [0] * (2 * g.m)
    for cyc in faces:
        for d, after in zip(cyc, cyc[1:] + cyc[:1]):
            succ[d ^ 1] = after
    rotation: list[list[int]] = [[] for _ in range(g.n)]
    for d0, v in enumerate(v for uv in g.edges for v in uv):
        if not rotation[v]:
            d = d0
            while True:
                rotation[v].append(d)
                d = succ[d]
                if d == d0:
                    break
    return rotation


def assert_triangulation_matches(g: Graph, triangles, ref) -> None:
    """(g, triangles), as ``graph.triangulate`` returns them, has the edges
    and faces of the reference embedding `ref`, and is certified by the
    rotation derived from its triangles: it embeds `g` at genus 0 with
    exactly these faces, and each vertex's cycle is the reference's up to
    where it starts."""
    assert g == ref.graph
    assert triangles == ref.faces
    assert all(len(f) == 3 for f in triangles)
    derived = rotation_from_faces(g, triangles)
    again = embed(g, derived)
    assert again.faces == triangles and again.euler_genus == 0
    for cyc, ref_cyc in zip(derived, ref.rotation, strict=True):
        k = ref_cyc.index(cyc[0])
        assert cyc == ref_cyc[k:] + ref_cyc[:k]


def witness_entry(vertices):
    """A root entry of the subset DP engine whose witness chain spells
    `vertices`: one (value, vertex, rest) link per vertex on a leaf entry."""
    entry = (0, None, None)
    for v in vertices:
        entry = (entry[0] + 1, v, entry)
    return entry


@pytest.fixture
def triangle():
    return cycle_graph(3)
