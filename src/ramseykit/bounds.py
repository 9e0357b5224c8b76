"""Closed-form evaluators for the bound formulas, with explicit constant
conventions.

Every suppressed constant is set to 1 and every logarithm is natural; the
resulting numbers are descriptive asymptotic quantities, not certified bounds
at finite m, and each report says so in its caveat.  Reports sharing a
`family` tag form lower/upper pairs for consistency checks.  The two finite
exact statements (the 2m+1 ceiling and the tree equality) carry no constant
caveat beyond their scope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .graphs import Graph, rho_star

ASYMPTOTIC_CAVEAT = "suppressed constant set to 1; asymptotic in m, not certified at finite m"


@dataclass(frozen=True)
class BoundReport:
    name: str
    family: str
    role: str  # "lower" | "upper" | "equality"
    inputs: dict[str, float]
    value: float
    constant_caveat: str


def theorem3_exponent(H: Graph) -> Fraction:
    """Exact exponent rho*/(1 + rho*) governing the general lower bound;
    rho*(H) < 0 exactly when H has no edge, and such an H is rejected."""
    rho = rho_star(H)
    if rho < 0:
        raise InputError("the density-driven bound needs a graph with at least one edge")
    return rho / (1 + rho)


def evaluate_all(
    s: int,
    m: int,
    t: int | None = None,
    H: Graph | None = None,
    k: int | None = None,
    pq: tuple[int, int] | None = None,
    ell: int = 2,
) -> list[BoundReport]:
    """Evaluate every bound formula applicable to the supplied inputs.

    Always emitted: the diagonal minimum, the older lower/upper pair, the
    improved lower bound with its disjoint-clique upper counterpart, and the
    max-value upper bound.  With s = 3 the exact 2m+1 ceiling and the tree
    equality are added.  Reports needing t, H, k or (p, q) appear only when
    those are given.  An input too large to evaluate in floating point
    raises Python's own overflow error, which the CLI reports as bad input.
    """
    if s < 3:
        raise InputError("s must be at least 3")
    if m <= math.e:
        raise InputError("m must exceed e (needs ln m > 1)")
    if ell < 2:
        raise InputError("chromatic number ell must be at least 2")
    logm = math.log(m)
    reports: list[BoundReport] = []

    def add(name: str, family: str, role: str, inputs: dict[str, float],
            value: float, caveat: str = ASYMPTOTIC_CAVEAT):
        if not (math.isfinite(value) and value > 0):
            raise InputError(f"report {name} evaluated to a non-positive value")
        reports.append(BoundReport(name, family, role, inputs, value, caveat))

    add(
        "diagonal_min", "diagonal", "equality", {"m": m},
        m / logm,
        "order of the diagonal minimum over graphs of size m; " + ASYMPTOTIC_CAVEAT,
    )
    add(
        "efrs_lower", "efrs", "lower", {"s": s, "m": m},
        m ** (s / (s + 2)),
    )
    add(
        "efrs_upper", "efrs", "upper", {"s": s, "m": m},
        m ** ((s - 1) / s),
    )
    add(
        "thm1_lower", "thm1", "lower", {"s": s, "m": m},
        (m / logm) ** ((s + 1) / (s + 3)),
    )
    add(
        "thm1_upper", "thm1", "upper", {"s": s, "m": m},
        m ** ((s - 1) / s) / logm ** ((s - 2) / s),
    )
    if s == 3:
        add(
            "sidorenko_upper", "sidorenko", "upper", {"m": m},
            float(2 * m + 1),
            "exact finite bound for isolated-vertex-free G; no suppressed constant",
        )
        add(
            "tree_equality", "sidorenko", "equality", {"m": m},
            float(2 * m + 1),
            "exact value when G is a tree with m edges; no suppressed constant",
        )
    add(
        "thm2_upper", "thm2", "upper", {"s": s, "m": m},
        m ** ((s - 1) / 2) / logm ** ((s - 3) / 2),
    )
    if k is not None:
        if k < 2:
            raise InputError("clique order k must be at least 2")
        add(
            "clique_vs_clique_upper", "clique", "upper", {"s": s, "k": k},
            k ** (s - 1) / math.log(k) ** (s - 2),
        )
    if H is not None:
        expo = theorem3_exponent(H)
        rho = expo / (1 - expo)
        add(
            "thm3_lower", "thm3", "lower",
            {"m": m, "rho_star": float(rho), "exponent": float(expo)},
            (m / logm) ** float(expo),
        )
    if pq is not None:
        p, q = pq
        if p < 1 or q < p:
            raise InputError("complete bipartite parameters need 1 <= p <= q")
        add(
            "kpq_lower", "kpq", "lower", {"p": p, "q": q, "m": m},
            m ** (p / (1 + p)),
            "limit exponent as q grows (epsilon suppressed); " + ASYMPTOTIC_CAVEAT,
        )
        add(
            "kpq_union_upper", "kpq", "upper", {"p": p, "q": q, "m": m},
            m ** (p / (1 + p)),
            "achieved by a disjoint union of cliques of order m^(1/(p+1)); "
            + ASYMPTOTIC_CAVEAT,
        )
        if k is not None:
            add(
                "kpq_vs_clique_upper", "kpq", "upper", {"p": p, "q": q, "k": k},
                float(k) ** p,
            )
    if t is not None:
        if t < 1:
            raise InputError("size t must be at least 1")
        add(
            "sqrt_t_upper", "sqrt_t", "upper",
            {"t": t, "m": m, "ell": ell},
            m ** math.sqrt(t),
            "exponent constant depends on the chromatic number ell "
            f"(given: {ell}) and is set to 1 here; " + ASYMPTOTIC_CAVEAT,
        )
    return reports
