"""Lower-bound witness machinery: random coloring, clique-deletion recoloring,
trial-based witness search, and Monte Carlo validators for the two tail
inequalities the construction relies on.

The pipeline per trial is: color each pair of K_n red independently with
probability p, greedily pick a maximal family of edge-disjoint red s-cliques,
recolor all their edges blue (the residual red graph is then K_s-free), and
check whether a blue copy of the target graph G survived.  A trial whose
post-recoloring coloring has no blue G is a witness that r(K_s, G) > n.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Literal

from .detect import (
    CliquePacking,
    check_node_budget,
    find_clique,
    find_copy,
    max_edge_disjoint_packing,
    packing_reaches,
)
from .errors import CapacityError, ContractViolation, InputError, SearchBudgetExceeded
from .graphs import MAX_PARSE_ORDER, Graph, TwoColoring

BlueStatus = Literal["found", "absent", "unknown"]

# The validator decides X0 >= k per sample by an exact search (worst case
# exponential in the red clique count), so n is capped like exact packing.
ERDOS_TETALI_MAX_N = 12
# Binomial draws per chunk in chernoff_tail_check; numpy draws Bin(m, p) as
# int64, which bounds m.
CHERNOFF_CHUNK = 1 << 16
CHERNOFF_MAX_M = 2**63 - 1


@dataclass(frozen=True)
class ConstructParams:
    """Knobs for the witness-search trials.

    `m` is the edge budget the parameter formulas are evaluated at (normally
    e(G)); `scale` multiplies the derived order n, standing in for the
    suppressed constant of the lower-bound theorem.
    """

    s: int
    m: int
    n_override: int | None = None
    p_override: float | None = None
    trials: int = 1
    seed: int = 0
    scale: float = 1.0
    node_budget: int | None = None

    def __post_init__(self):
        if self.s < 3:
            raise InputError("s must be at least 3")
        if self.trials < 1:
            raise InputError("trials must be positive")
        if self.p_override is not None and not 0.0 <= self.p_override <= 1.0:
            raise InputError("p must lie in [0, 1]")
        if self.n_override is not None and self.n_override < 1:
            raise InputError("n must be positive")
        check_node_budget(self.node_budget)


@dataclass(frozen=True)
class TrialReport:
    trial_index: int
    coloring: TwoColoring
    packing_size: int
    red_Ks_free: bool
    blue_G_status: BlueStatus
    red_edges_before: int
    red_edges_after: int


def theorem1_parameters(s: int, m: int, scale: float = 1.0) -> tuple[int, float]:
    """Order n and red probability p for the deletion construction.

    n = scale * (1/(3 s^3)) * (m / ln m)^((s+1)/(s+3)), floored and clamped to
    at least 2; p = (1/(3s)) * n^(-2/(s+1)) evaluated at the floored n.
    """
    if s < 3:
        raise InputError("s must be at least 3")
    if m <= math.e:
        raise InputError("edge budget m must exceed e (needs ln m > 1)")
    n_real = scale * (m / math.log(m)) ** ((s + 1) / (s + 3)) / (3 * s**3)
    n = max(2, math.floor(n_real))
    p = (1.0 / (3 * s)) * n ** (-2.0 / (s + 1))
    return n, p


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Per-trial RNG seed: blake2b of "seed:index", stable across platforms."""
    digest = hashlib.blake2b(f"{master_seed}:{trial_index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def random_coloring(n: int, p: float, seed: int) -> TwoColoring:
    """Each of the n(n-1)/2 pairs is red independently with probability p.

    One uniform draw per pair, in lexicographic pair order, so a coloring is
    fully determined by (n, p, seed).  Each red draw sets its two bits of the
    red rows directly.
    """
    if n < 0:
        raise InputError("order must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise InputError("p must lie in [0, 1]")
    draw = random.Random(seed).random
    bits = [1 << v for v in range(n)]
    rows = [0] * n
    for u in range(n):
        row, bit = rows[u], bits[u]
        for v in range(u + 1, n):
            if draw() < p:
                row |= bits[v]
                rows[v] |= bit
        rows[u] = row
    return TwoColoring._from_rows(rows)


def recolor_packing(col: TwoColoring, s: int) -> tuple[TwoColoring, CliquePacking]:
    """Recolor a greedy maximal edge-disjoint family of red s-cliques blue.

    Members are edge-disjoint, so exactly C(s,2) * packing_size red pairs
    flip; maximality of the family makes the residual red graph K_s-free.
    """
    if s < 3:
        raise InputError("s must be at least 3")
    packing = max_edge_disjoint_packing(col, s, "greedy")
    recolored = col.recolor_blue(packing.members)
    return recolored, packing


def _resolve_n_p(params: ConstructParams) -> tuple[int, float]:
    if params.n_override is not None:
        n = params.n_override
    else:
        n, _ = theorem1_parameters(params.s, params.m, params.scale)
    if params.p_override is not None:
        p = params.p_override
    else:
        p = (1.0 / (3 * params.s)) * n ** (-2.0 / (params.s + 1))
    return n, p


def run_trial(params: ConstructParams, G: Graph, n: int, p: float,
              trial_index: int) -> TrialReport:
    """One independent trial: color, recolor, verify."""
    col = random_coloring(n, p, trial_seed(params.seed, trial_index))
    before = col.red_count
    recolored, packing = recolor_packing(col, params.s)
    after = recolored.red_count
    if find_clique(recolored, "red", params.s) is not None:
        raise ContractViolation("residual red graph contains a forbidden clique")
    if before - after != math.comb(params.s, 2) * packing.size:
        raise ContractViolation("edge-flip accounting mismatch")
    try:
        emb = find_copy(recolored, "blue", G, params.node_budget)
        status: BlueStatus = "found" if emb is not None else "absent"
    except SearchBudgetExceeded:
        status = "unknown"
    return TrialReport(
        trial_index=trial_index,
        coloring=recolored,
        packing_size=packing.size,
        red_Ks_free=True,
        blue_G_status=status,
        red_edges_before=before,
        red_edges_after=after,
    )


def construct_witness(params: ConstructParams, G: Graph,
                      threads: int = 1) -> list[TrialReport]:
    """Run `params.trials` independent trials; reports come back in trial order.

    Per-trial randomness derives from (seed, trial index).  `threads` is
    accepted and ignored: the trials are pure Python, and a thread pool ran
    them slower than one thread under the interpreter lock.
    """
    if G.n < 1:
        raise InputError("target graph must be nonempty")
    n, p = _resolve_n_p(params)
    # Trial colorings are written to files that parse_coloring must read back.
    if n > MAX_PARSE_ORDER:
        raise CapacityError(f"order {n} above the cap of {MAX_PARSE_ORDER}")
    if not 0.0 <= p <= 1.0:
        raise InputError("resolved p lies outside [0, 1]")
    return [run_trial(params, G, n, p, i) for i in range(params.trials)]


# ---------------------------------------------------------------------------
# Tail-bound validators
# ---------------------------------------------------------------------------

def chernoff_tail_check(m: int, p: float, a: float, trials: int,
                        seed: int) -> tuple[float, float]:
    """Empirical frequency of the lower-tail event X - pm < -a for binomial
    X ~ Bin(m, p), against the analytic bound exp(-a^2 / (2pm)).

    The draws come in chunks of CHERNOFF_CHUNK, so memory stays flat in
    `trials`; successive chunks continue one generator stream, so the counts
    equal those of a single draw of size `trials`.
    """
    if not 1 <= m <= CHERNOFF_MAX_M:
        raise InputError(f"m must lie in [1, {CHERNOFF_MAX_M}]")
    if not 0.0 < p < 1.0:
        raise InputError("p must lie strictly between 0 and 1")
    if not math.isfinite(a) or a <= 0:
        raise InputError("a must be positive and finite")
    if trials < 1:
        raise InputError("trials must be positive")
    if seed < 0:
        raise InputError("seed must be non-negative")
    # numpy is imported here, its one use, so importing the CLI stays light.
    import numpy as np

    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, trials, CHERNOFF_CHUNK):
        xs = rng.binomial(m, p, size=min(CHERNOFF_CHUNK, trials - start))
        hits += int(np.count_nonzero(xs - p * m < -a))
    bound = math.exp(-a * a / (2.0 * p * m))
    return hits / trials, bound


def erdos_tetali_check(n: int, p: float, s: int, k: int, trials: int,
                       seed: int) -> tuple[float, float]:
    """Empirical P[X0 >= k] against (e*mu/k)^k, where X0 is the maximum number
    of edge-disjoint red s-cliques in a random coloring and mu = C(n,s) *
    p^C(s,2) is the expected clique count.

    Each sample decides X0 >= k with `packing_reaches`, which stops at the
    k-th edge-disjoint clique instead of computing X0.  Deciding is still an
    exact search in the worst case, hence the n cap.
    """
    if n > ERDOS_TETALI_MAX_N:
        raise CapacityError(f"exact packing oracle capped at n <= {ERDOS_TETALI_MAX_N}")
    if n < 0:
        raise InputError("n must be non-negative")
    if s < 3:
        raise InputError("s must be at least 3")
    if k < 1:
        raise InputError("k must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise InputError("p must lie in [0, 1]")
    if trials < 1:
        raise InputError("trials must be positive")
    mu = math.comb(n, s) * p ** math.comb(s, 2)
    hits = 0
    for i in range(trials):
        col = random_coloring(n, p, trial_seed(seed, i))
        if packing_reaches(col, s, k):
            hits += 1
    bound = (math.e * mu / k) ** k
    return hits / trials, bound
