"""Zero-divisor graphs of finite commutative rings and total perfect codes.

The package builds finite commutative rings (modular, Galois, univariate
quotient, structure-constant and product rings), derives their zero-divisor
graphs, and decides total perfect code existence along several independent
routes - closed-form characterisations, a linear tree program, a polynomial
edge-pair sweep for zero-divisor graphs, and an unrestricted exact search -
which the verification suites play against each other instance by instance.
"""

from .graphs import Graph, corona, diameter, articulation_points, is_matching
from .graphs import (
    fixture_graph8,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_path,
    make_star,
)
from .rings import (
    FiniteRing,
    RingError,
    make_gf,
    make_product,
    make_quotient,
    make_zn,
)
from .ringexpr import ParseError, ResolveError, ring_from_text
from .tables import TableRingSpec, catalog_ring, make_table_ring
from .tpc import (
    Verdict,
    complete_bipartite_code,
    complete_decider,
    cycle_code,
    cycle_decider,
    end_vertex_analysis,
    enumerate_tpcs,
    find_tpc,
    is_total_perfect_code,
    path_code,
    path_decider,
    regular_parity_check,
    tree_tpc,
)
from .zdg import (
    ZdGraph,
    count_zero_divisors,
    cut_vertex_report,
    degree_one_vertices,
    mixed_decider,
    tpc_pair_solver,
    zero_divisor_graph,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "corona",
    "diameter",
    "articulation_points",
    "is_matching",
    "fixture_graph8",
    "make_complete",
    "make_complete_bipartite",
    "make_cycle",
    "make_path",
    "make_star",
    "FiniteRing",
    "RingError",
    "make_gf",
    "make_product",
    "make_quotient",
    "make_zn",
    "ParseError",
    "ResolveError",
    "ring_from_text",
    "TableRingSpec",
    "catalog_ring",
    "make_table_ring",
    "Verdict",
    "complete_bipartite_code",
    "complete_decider",
    "cycle_code",
    "cycle_decider",
    "end_vertex_analysis",
    "enumerate_tpcs",
    "find_tpc",
    "is_total_perfect_code",
    "path_code",
    "path_decider",
    "regular_parity_check",
    "tree_tpc",
    "ZdGraph",
    "count_zero_divisors",
    "cut_vertex_report",
    "degree_one_vertices",
    "mixed_decider",
    "tpc_pair_solver",
    "zero_divisor_graph",
]
