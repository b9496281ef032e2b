"""Narrow tree decompositions of shallow planar and bounded-genus graphs,
with level-slicing approximation schemes and fixed-pattern search."""

__version__ = "0.1.0"

from .baker import SliceFamily, build_slices, ptas_ds, ptas_mis, ptas_vc
from .decomp import (NiceDecomposition, TreeDecomposition, emit_td,
                     heuristic_td, make_nice, narrower_td, parse_td,
                     validate)
from .dp import (SolutionCheckError, check_mapping, check_solution, dp_ds,
                 dp_mis, dp_subiso, dp_vc, subiso_driver, verify_subiso)
from .generators import (apex_over_grid, grid, hex_set_graph,
                         random_planar_triangulation, subdivide,
                         toroidal_grid, wall)
from .genus_td import (CutGraph, GenusPipelineError, contract_cut_graph,
                       cut_graph, genus_td)
from .graph import (EmbeddedGraph, EmbeddingError, Graph, GraphInputError,
                    Layering, bfs_layering, build_graph, diameter, embed,
                    emit_graph, parse_graph, triangulate)
from .oracles import (OracleBudgetError, OracleCheckError, exact_treewidth,
                      oracle_solve, subiso_backtracking)
from .planar_td import (BandHost, Slice, band_host, band_hosts,
                        min_eccentricity_root, planar_bfs_td, slice_td,
                        tree_cotree)

__all__ = [name for name in dir() if not name.startswith("_")]
