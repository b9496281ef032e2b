"""Quadratic reference for ``shallowtd.graph.triangulate``.

This is the ear-cutting triangulation as it ran before faces became linked
rings: each cut rebuilds the face's corner list and rescans it from the last
cut, chords go into Python rotation lists with ``list.index``, and the result
is re-embedded.  It holds the same chord rule: scanning from the last cut,
the first valid ear (its two outer corners are different vertices) is cut,
even when its chord doubles an edge.  The property tests require the linear
routine to return the same edges, rotation and faces.
"""

from shallowtd.graph import (EmbeddedGraph, EmbeddingError, GraphInputError,
                             _trace_faces, build_graph, embed, is_connected)


def triangulate(e: EmbeddedGraph) -> EmbeddedGraph:
    """Add chords until every face has exactly three darts (planar only).

    Original edges keep their ids; added chords may duplicate existing edges
    (the result is a multigraph) but never create loops.  Genus stays 0.
    """
    if e.euler_genus != 0:
        raise EmbeddingError("triangulate requires a planar embedding")
    if not is_connected(e.graph):
        raise GraphInputError("triangulate requires a connected graph")
    if e.n < 3:
        raise GraphInputError("triangulate requires at least 3 vertices")

    g = e.graph
    edges = list(g.edges)
    rot = [list(c) for c in e.rotation]
    tails: dict[int, int] = {}
    for eid, (u, v) in enumerate(edges):
        tails[2 * eid] = u
        tails[2 * eid + 1] = v

    def add_chord(face: list[int], i: int, j: int) -> tuple[int, int]:
        # chord between the corners at positions i and j of the face cycle;
        # returns the new darts (p at corner i, q at corner j)
        a = tails[face[i]]
        b = tails[face[j]]
        eid = len(edges)
        edges.append((a, b))
        p, q = 2 * eid, 2 * eid + 1
        tails[p] = a
        tails[q] = b
        rot[a].insert(rot[a].index(face[i]), p)
        rot[b].insert(rot[b].index(face[j]), q)
        return p, q

    for face in _trace_faces(g, e.rotation):
        face = list(face)
        if len(face) < 3:
            raise EmbeddingError("cannot triangulate a face with fewer than 3 darts")
        # anchor the scan at the lowest-id corner for determinism
        corners = [tails[d] for d in face]
        start = corners.index(min(corners))
        face = face[start:] + face[:start]
        while len(face) > 3:
            corners = [tails[d] for d in face]
            L = len(face)
            candidates = [i for i in range(L) if corners[i] != corners[(i + 2) % L]]
            if not candidates:
                raise EmbeddingError("no valid ear in face; embedding is degenerate")
            i = candidates[0]
            j = (i + 2) % L
            p, _q = add_chord(face, i, j)
            # ear (q, face[i], face[i+1]) is cut off; continue on the rest
            rest = [face[(j + t) % L] for t in range(L - 2)]
            face = [p] + rest

    new_g = build_graph(g.n, edges)
    return embed(new_g, rot)
