"""ramseykit: computational toolkit for small-scale Ramsey-number bounds.

Library surface: graph/coloring data model with exact densities and file
formats (graphs), monochromatic structure detection (detect), probabilistic
witness construction with clique-deletion recoloring (construct), greedy blue
embedding (embed), exact small-instance Ramsey computation (exact), and
closed-form bound evaluation (bounds).  The `ramseykit` CLI wraps all of it.
"""

from .bounds import BoundReport, evaluate_all, theorem3_exponent
from .construct import (
    ConstructParams,
    TrialReport,
    chernoff_tail_check,
    construct_witness,
    erdos_tetali_check,
    random_coloring,
    recolor_packing,
    theorem1_parameters,
    trial_seed,
)
from .detect import (
    CliquePacking,
    EmbeddingMap,
    find_clique,
    find_copy,
    max_edge_disjoint_packing,
    max_red_degree_vertex,
)
from .embed import embed_general, embed_s3
from .errors import (
    CapacityError,
    ContractViolation,
    EmbedFailure,
    InputError,
    ParseError,
    RamseyKitError,
    SearchBudgetExceeded,
)
from .exact import find_witness, is_witness, ramsey_number
from .graphs import (
    Graph,
    TwoColoring,
    complete_graph,
    coloring_from_red,
    cycle_graph,
    graph_from_edges,
    induced_coloring,
    parse_coloring,
    parse_graph,
    path_graph,
    rho_star,
    serialize_coloring,
    serialize_graph,
    star_graph,
    union_of_cliques,
    union_of_cliques_params,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CapacityError",
    "CliquePacking",
    "ConstructParams",
    "ContractViolation",
    "EmbedFailure",
    "EmbeddingMap",
    "Graph",
    "InputError",
    "ParseError",
    "RamseyKitError",
    "SearchBudgetExceeded",
    "TrialReport",
    "TwoColoring",
    "chernoff_tail_check",
    "coloring_from_red",
    "complete_graph",
    "construct_witness",
    "cycle_graph",
    "embed_general",
    "embed_s3",
    "erdos_tetali_check",
    "evaluate_all",
    "find_clique",
    "find_copy",
    "find_witness",
    "graph_from_edges",
    "induced_coloring",
    "is_witness",
    "max_edge_disjoint_packing",
    "max_red_degree_vertex",
    "parse_coloring",
    "parse_graph",
    "path_graph",
    "ramsey_number",
    "random_coloring",
    "recolor_packing",
    "rho_star",
    "serialize_coloring",
    "serialize_graph",
    "star_graph",
    "theorem1_parameters",
    "theorem3_exponent",
    "trial_seed",
    "union_of_cliques",
    "union_of_cliques_params",
]
