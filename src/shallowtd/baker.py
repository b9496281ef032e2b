"""Level-slicing approximation schemes over planar embedded graphs.

Three modes over BFS levels with parameter k and a residue offset:
delete (drop every kth level; solve the level bands exactly; the union stays
independent because a full deleted level separates bands), duplicate (bands
of k+1 contiguous levels, adjacent bands sharing one level, so every edge
lies inside a band), and dominate (k-level cores that partition the levels,
each widened by one halo level per side so a core vertex's best dominator is
always inside its band).

All three try every offset and return the best result; ties go to the
smaller offset.  Each connected component is levelled once
(``planar_td.band_hosts``).  Every band gets the min-degree decomposition of
the subgraph it induces, or, when that is wider than the band's proven
bound, the component's root-path decomposition restricted to its levels,
built on first need (``planar_td.slice_td``).  Disconnected inputs are
handled per component; the additive guarantees compose (dominating set
requires a connected input).
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomp import make_nice
from .dp import check_solution, dp_ds, dp_mis, dp_vc
from .graph import EmbeddedGraph, GraphInputError, planar_is_connected
from .planar_td import BandHost, Slice, band_hosts, level_windows, slice_td


@dataclass
class SliceFamily:
    slices: list[Slice]


def build_slices(host: BandHost, k: int, offset: int, mode: str) -> SliceFamily:
    """The decomposed level bands of one offset; see the mode invariants in
    the module docstring."""
    if k < 2:
        raise GraphInputError(f"slicing parameter k must be >= 2, got {k}")
    if not (0 <= offset < k):
        raise GraphInputError(f"offset {offset} out of range [0, {k})")
    depth = host.layering.depth
    return SliceFamily(slices=[slice_td(host, lo, hi, core) for lo, hi, core
                               in level_windows(depth, k, offset, mode)])


# ---------------------------------------------------------------------------
# The three schemes.


def ptas_mis(e: EmbeddedGraph, k: int) -> set[int]:
    return _ptas_detail(e, "mis", k).chosen


def ptas_vc(e: EmbeddedGraph, k: int) -> set[int]:
    return _ptas_detail(e, "vc", k).chosen


def ptas_ds(e: EmbeddedGraph, k: int) -> set[int]:
    return _ptas_detail(e, "ds", k).chosen


@dataclass
class PtasResult:
    chosen: set[int]
    per_component_offsets: list[int]
    per_offset_values: list[list[int]]   # one list per component


# per problem, the slicing mode and the sign under which a value is minimized
_MODES = {"mis": ("delete", -1), "vc": ("duplicate", 1), "ds": ("dominate", 1)}


def _ptas_detail(e: EmbeddedGraph, problem: str, k: int) -> PtasResult:
    if problem not in _MODES:
        raise GraphInputError(f"unknown problem {problem!r}")
    if k < 2:
        raise GraphInputError(f"slicing parameter k must be >= 2, got {k}")
    # band_hosts checks genus 0 at call time, as planar_is_connected needs
    hosts = band_hosts(e)
    g = e.graph
    if problem == "ds" and not planar_is_connected(e):
        raise GraphInputError("dominating-set slicing requires a connected graph")
    mode, sign = _MODES[problem]

    chosen: set[int] = set()
    offsets_used: list[int] = []
    per_offset_all: list[list[int]] = []
    for host, back in hosts:
        results = []
        for offset in range(k):
            picked: set[int] = set()
            for sl in build_slices(host, k, offset, mode).slices:
                nd = make_nice(sl.td)
                if problem == "mis":
                    local = dp_mis(nd, sl.graph)
                elif problem == "vc":
                    local = dp_vc(nd, sl.graph)
                else:
                    local = dp_ds(nd, sl.graph, sl.core)
                picked.update(sl.back_map[v] for v in local)
            results.append(picked)
        values = [len(r) for r in results]
        per_offset_all.append(values)
        best = min(range(k), key=lambda o: (sign * values[o], o))
        offsets_used.append(best)
        chosen.update(back[v] for v in results[best])

    check_solution(problem, g, chosen)
    return PtasResult(chosen=chosen, per_component_offsets=offsets_used,
                      per_offset_values=per_offset_all)
