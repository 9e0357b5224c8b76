"""ramseykit: computational toolkit for small-scale Ramsey-number bounds.

Library surface: graph/coloring data model with exact densities and file
formats (graphs), monochromatic structure detection (detect), probabilistic
witness construction with clique-deletion recoloring (construct), greedy blue
embedding (embed), exact small-instance Ramsey computation (exact), and
closed-form bound evaluation (bounds).  The `ramseykit` CLI wraps all of it.

Importing the package loads none of these modules: each exported name is
looked up in its module on first access (PEP 562), so `import ramseykit.cli`
compiles only the CLI and the error types, and a command loads the modules
it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": ("BoundReport", "evaluate_all", "theorem3_exponent"),
    "construct": (
        "TrialReport",
        "chernoff_tail_check",
        "construct_witness",
        "erdos_tetali_check",
        "random_coloring",
        "recolor_packing",
        "theorem1_parameters",
        "trial_seed",
    ),
    "detect": (
        "CliquePacking",
        "EmbeddingMap",
        "find_clique",
        "find_copy",
        "max_edge_disjoint_packing",
    ),
    "embed": ("embed_general", "embed_s3"),
    "errors": (
        "CapacityError",
        "ContractViolation",
        "EmbedFailure",
        "InputError",
        "ParseError",
        "RamseyKitError",
        "SearchBudgetExceeded",
    ),
    "exact": ("find_witness", "is_witness", "ramsey_number"),
    "graphs": (
        "Graph",
        "TwoColoring",
        "complete_graph",
        "cycle_graph",
        "induced_coloring",
        "parse_coloring",
        "parse_graph",
        "path_graph",
        "rho_star",
        "serialize_coloring",
        "serialize_graph",
        "star_graph",
        "union_of_cliques",
        "union_of_cliques_params",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
