"""Level-slicing approximation schemes over planar embedded graphs.

Three modes over BFS levels with parameter k and a residue offset:
delete (drop every kth level; solve the level bands exactly; the union stays
independent because a full deleted level separates bands), duplicate (bands
of k+1 contiguous levels, adjacent bands sharing one level, so every edge
lies inside a band), and dominate (k-level cores that partition the levels,
each widened by one halo level per side so a core vertex's best dominator is
always inside its band).

All three try every offset and return the best result; ties go to the
smaller offset, so concurrent evaluation of offsets cannot change the
answer.  Disconnected inputs are handled per component; the additive
guarantees compose (dominating set requires a connected input).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .decomp import make_nice
from .dp import dp_ds, dp_mis, dp_vc
from .graph import (EmbeddedGraph, Graph, GraphInputError, Layering,
                    bfs_layering, connected_components,
                    induced_embedded_subgraph, is_connected)
from .planar_td import slice_td


@dataclass
class Slice:
    window: tuple[int, int]          # inclusive level range
    graph: Graph                     # induced subgraph, local vertex ids
    back_map: list[int]              # local id -> host vertex id
    core: tuple[int, ...]            # local ids whose constraint must be met


@dataclass
class SliceFamily:
    k: int
    offset: int
    mode: str                        # delete | duplicate | dominate
    slices: list[Slice]


def _windows(depth: int, k: int, offset: int, mode: str) -> list[tuple[int, int, tuple[int, int]]]:
    """(lo, hi, core-range) triples per mode; ranges are inclusive levels."""
    out = []
    if mode == "delete":
        lo = None
        for lvl in range(depth + 2):
            wall = lvl > depth or lvl % k == offset
            if wall:
                if lo is not None:
                    out.append((lo, lvl - 1, (lo, lvl - 1)))
                    lo = None
            elif lo is None:
                lo = lvl
    elif mode == "duplicate":
        start = offset - k if offset else 0
        while True:
            lo, hi = max(0, start), min(depth, start + k)
            out.append((lo, hi, (lo, hi)))
            if hi == depth:
                break
            start += k
    elif mode == "dominate":
        start = offset - k if offset else 0
        while True:
            clo, chi = max(0, start), min(depth, start + k - 1)
            out.append((max(0, clo - 1), min(depth, chi + 1), (clo, chi)))
            if chi == depth:
                break
            start += k
    else:
        raise GraphInputError(f"unknown slicing mode {mode!r}")
    return out


def build_slices(g: Graph, layering: Layering, k: int, offset: int,
                 mode: str) -> SliceFamily:
    """Induced level-band subgraphs for one offset; see the mode invariants
    in the module docstring."""
    if k < 2:
        raise GraphInputError(f"slicing parameter k must be >= 2, got {k}")
    if not (0 <= offset < k):
        raise GraphInputError(f"offset {offset} out of range [0, {k})")
    slices = []
    for lo, hi, (clo, chi) in _windows(layering.depth, k, offset, mode):
        verts = [v for v in range(g.n) if lo <= layering.level[v] <= hi]
        sub, back = _induced(g, verts)
        core = tuple(i for i, v in enumerate(back)
                     if clo <= layering.level[v] <= chi)
        slices.append(Slice(window=(lo, hi), graph=sub, back_map=back,
                            core=core))
    return SliceFamily(k=k, offset=offset, mode=mode, slices=slices)


def _induced(g: Graph, verts: list[int]) -> tuple[Graph, list[int]]:
    from .graph import induced_subgraph
    return induced_subgraph(g, verts)


# ---------------------------------------------------------------------------
# The three schemes.


def ptas_mis(e: EmbeddedGraph, k: int, jobs: int = 1) -> set[int]:
    return _ptas_detail(e, "mis", k, jobs).chosen


def ptas_vc(e: EmbeddedGraph, k: int, jobs: int = 1) -> set[int]:
    return _ptas_detail(e, "vc", k, jobs).chosen


def ptas_ds(e: EmbeddedGraph, k: int, jobs: int = 1) -> set[int]:
    return _ptas_detail(e, "ds", k, jobs).chosen


@dataclass
class PtasResult:
    chosen: set[int]
    per_component_offsets: list[int]
    per_offset_values: list[list[int]]   # one list per component


_MODES = {"mis": ("delete", False), "vc": ("duplicate", True),
          "ds": ("dominate", True)}


def _ptas_detail(e: EmbeddedGraph, problem: str, k: int,
                 jobs: int = 1) -> PtasResult:
    if problem not in _MODES:
        raise GraphInputError(f"unknown problem {problem!r}")
    if k < 2:
        raise GraphInputError(f"slicing parameter k must be >= 2, got {k}")
    if e.euler_genus != 0:
        raise GraphInputError("level slicing requires a planar embedding")
    g = e.graph
    if problem == "ds" and not is_connected(g):
        raise GraphInputError("dominating-set slicing requires a connected graph")
    mode, minimize = _MODES[problem]

    chosen: set[int] = set()
    offsets_used: list[int] = []
    per_offset_all: list[list[int]] = []
    for comp in connected_components(g):
        sub, back = induced_embedded_subgraph(e, comp)
        lay = bfs_layering(sub.graph, 0)

        def run(offset: int) -> set[int]:
            fam = build_slices(sub.graph, lay, k, offset, mode)
            picked: set[int] = set()
            for sl in fam.slices:
                sd = slice_td(sub, lay, *sl.window)
                nd = make_nice(sd.td)
                if problem == "mis":
                    local = dp_mis(nd, sd.graph)
                elif problem == "vc":
                    local = dp_vc(nd, sd.graph)
                else:
                    slice_id = {v: i for i, v in enumerate(sd.back_map)}
                    core_slice = {slice_id[sl.back_map[i]] for i in sl.core}
                    local = dp_ds(nd, sd.graph, core_slice)
                picked.update(sd.back_map[v] for v in local)
            return picked

        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(run, range(k)))
        else:
            results = [run(o) for o in range(k)]
        values = [len(r) for r in results]
        per_offset_all.append(values)
        best = min(range(k), key=lambda o: (values[o], o)) if minimize \
            else max(range(k), key=lambda o: (values[o], -o))
        offsets_used.append(best)
        chosen.update(back[v] for v in results[best])

    _assert_feasible(g, problem, chosen)
    return PtasResult(chosen=chosen, per_component_offsets=offsets_used,
                      per_offset_values=per_offset_all)


def _assert_feasible(g: Graph, problem: str, s: set[int]) -> None:
    if problem == "mis":
        bad = next(((u, v) for u, v in g.edges if u in s and v in s), None)
        if bad is not None:
            raise AssertionError(f"result not independent at edge {bad}")
    elif problem == "vc":
        bad = next(((u, v) for u, v in g.edges
                    if u not in s and v not in s), None)
        if bad is not None:
            raise AssertionError(f"result misses edge {bad}")
    else:
        nbr = g.neighbor_sets()
        bad = next((v for v in range(g.n)
                    if v not in s and not (nbr[v] & s)), None)
        if bad is not None:
            raise AssertionError(f"vertex {bad} not dominated")
