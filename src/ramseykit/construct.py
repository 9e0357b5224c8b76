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

import _random
import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Iterator, Literal

from .detect import (
    CliquePacking,
    _exact_packing,
    _greedy_packing,
    check_exact_packing_order,
    check_node_budget,
    find_clique,
    find_copy,
)
from .errors import CapacityError, ContractViolation, InputError, SearchBudgetExceeded
from .graphs import MAX_PARSE_ORDER, Graph, TwoColoring

BlueStatus = Literal["found", "absent", "unknown"]

# Binomial draws per chunk in chernoff_tail_check; numpy draws Bin(m, p) as
# int64, which bounds m.
CHERNOFF_CHUNK = 1 << 16
CHERNOFF_MAX_M = 2**63 - 1


@dataclass(frozen=True)
class TrialReport:
    trial_index: int
    coloring: TwoColoring
    packing_size: int
    red_Ks_free: bool
    blue_G_status: BlueStatus
    red_edges_before: int
    red_edges_after: int


def theorem1_parameters(s: int, m: int) -> tuple[int, float]:
    """Order n and red probability p for the deletion construction.

    n = (1/(3 s^3)) * (m / ln m)^((s+1)/(s+3)), floored and clamped to
    at least 2; p = (1/(3s)) * n^(-2/(s+1)) evaluated at the floored n.
    """
    if s < 3:
        raise InputError("s must be at least 3")
    if m <= math.e:
        raise InputError("edge budget m must exceed e (needs ln m > 1)")
    n_real = (m / math.log(m)) ** ((s + 1) / (s + 3)) / (3 * s**3)
    n = max(2, math.floor(n_real))
    return n, _theorem1_p(s, n)


def _theorem1_p(s: int, n: int) -> float:
    """Theorem 1's red probability (1/(3s)) * n^(-2/(s+1)) at order n."""
    return (1.0 / (3 * s)) * n ** (-2.0 / (s + 1))


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Per-trial RNG seed: blake2b of "seed:index", stable across platforms.

    This is the definition; `_trial_seeds` gives the same values in trial
    order more cheaply, and the samplers draw from it.
    """
    digest = hashlib.blake2b(f"{master_seed}:{trial_index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def _trial_seeds(master_seed: int, count: int) -> Iterator[int]:
    """`trial_seed(master_seed, i)` for i = 0 .. count - 1.

    The "seed:" prefix is hashed once; each trial copies that state and
    hashes only its index, which is the same digest as hashing the whole
    string.
    """
    prefix = hashlib.blake2b(f"{master_seed}:".encode(), digest_size=8)
    from_bytes = int.from_bytes
    for i in range(count):
        digest = prefix.copy()
        digest.update(str(i).encode())
        yield from_bytes(digest.digest(), "big")


@functools.lru_cache(maxsize=8)
def _pair_plan(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, int, range], ...]]:
    """The bit of each vertex of K_n, and one (u, bit of u, range(u + 1, n))
    row per vertex: the lexicographic pair order of `random_coloring`.  The
    cache keeps the last 8 orders; at n = 10,000 one entry is about 9 MB."""
    bits = tuple(1 << v for v in range(n))
    return bits, tuple((u, bits[u], range(u + 1, n)) for u in range(n))


def random_coloring(n: int, p: float, seed: int, *, min_red: int = 0) -> TwoColoring | None:
    """Each of the n(n-1)/2 pairs is red independently with probability p.

    One uniform draw per pair, in lexicographic pair order, from the MT19937
    stream of `random.Random(seed)`, so a coloring is fully determined by
    (n, p, seed).  The draws come from the C generator `_random.Random(seed)`
    directly, which for an int seed is that stream without the Python-level
    seeding wrapper.  A seed of another type is rejected: the C generator
    would seed a str from its per-process hash.  The vertex bits and pair
    rows of order n come from the `_pair_plan` cache, and each red draw sets
    its two bits of the red rows directly.

    With `min_red` > 0 the draw is a floor: the coloring is returned only if
    it has at least `min_red` red pairs, and otherwise None.  After each row,
    and once before the first, the red pairs drawn so far plus the pairs
    still to draw are compared with the floor, so the draw stops at the first
    row after which it cannot be met.  A coloring that is returned is the
    one drawn without the floor.
    """
    if n < 0:
        raise InputError("order must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise InputError("p must lie in [0, 1]")
    if not isinstance(seed, int):
        raise InputError("seed must be an integer")
    # reach: the red pairs drawn so far plus the pairs still to draw.
    reach = n * (n - 1) // 2
    if reach < min_red:
        return None
    draw = _random.Random(seed).random
    bits, plan = _pair_plan(n)
    rows = [0] * n
    for u, bit, vs in plan:
        row = rows[u]
        for v in vs:
            if draw() < p:
                row |= bits[v]
                rows[v] |= bit
        if min_red:
            # Row u's new red bits are its bits above u; each other draw of
            # the row was blue.
            reach -= len(vs) - (row >> u).bit_count()
            if reach < min_red:
                return None
        rows[u] = row
    return TwoColoring._from_rows(rows)


def recolor_packing(col: TwoColoring, s: int) -> tuple[TwoColoring, CliquePacking]:
    """Recolor a greedy maximal edge-disjoint family of red s-cliques blue.

    The residual's red rows are the rows the greedy pass leaves in a copy of
    `col`'s rows.  Members are edge-disjoint, so exactly C(s,2) * packing_size
    red pairs flip; maximality makes the residual red graph K_s-free.
    """
    if s < 3:
        raise InputError("s must be at least 3")
    rows = col.red_adjacency_bits()
    members = tuple(_greedy_packing(rows, s))
    return TwoColoring._from_rows(rows), CliquePacking(members=members)


def run_trial(G: Graph, s: int, n: int, p: float, trial_index: int, seed: int,
              node_budget: int | None) -> TrialReport:
    """One independent trial at order n and red probability p: color,
    recolor the greedy red K_s packing, verify.

    `seed` is the trial's coloring seed, `trial_seed(master_seed, trial_index)`;
    `node_budget` bounds the blue `find_copy` of G, and a trial that exhausts
    it reports status "unknown".
    """
    col = random_coloring(n, p, seed)
    before = col.red_count
    recolored, packing = recolor_packing(col, s)
    after = recolored.red_count
    if find_clique(recolored, "red", s) is not None:
        raise ContractViolation("residual red graph contains a forbidden clique")
    if before - after != math.comb(s, 2) * packing.size:
        raise ContractViolation("edge-flip accounting mismatch")
    try:
        emb = find_copy(recolored, "blue", G, node_budget)
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


def construct_witness(G: Graph, s: int, *, trials: int, seed: int, n: int | None = None,
                      p: float | None = None, node_budget: int | None = None,
                      threads: int = 1) -> list[TrialReport]:
    """Run `trials` independent trials against the blue target G; reports
    come back in trial order.

    Without `n`, the order is Theorem 1's at m = e(G); without `p`, p is
    Theorem 1's at that order.  Every argument is checked before the first
    trial.  Trial i colors from `trial_seed(seed, i)`, taken in order from
    one `_trial_seeds` stream, and every trial's `random_coloring` reads the
    same cached tables of order n.  `threads` is accepted and ignored: the
    trials are pure Python, and a thread pool ran them slower than one
    thread under the interpreter lock.
    """
    if s < 3:
        raise InputError("s must be at least 3")
    if trials < 1:
        raise InputError("trials must be positive")
    if p is not None and not 0.0 <= p <= 1.0:
        raise InputError("p must lie in [0, 1]")
    if n is not None and n < 1:
        raise InputError("n must be positive")
    check_node_budget(node_budget)
    if G.n < 1:
        raise InputError("target graph must be nonempty")
    if n is None:
        n, _ = theorem1_parameters(s, G.edge_count)
    if p is None:
        p = _theorem1_p(s, n)
    # Trial colorings are written to files that parse_coloring must read back.
    if n > MAX_PARSE_ORDER:
        raise CapacityError(f"order {n} above the cap of {MAX_PARSE_ORDER}")
    seeds = _trial_seeds(seed, trials)
    return [run_trial(G, s, n, p, i, coloring_seed, node_budget)
            for i, coloring_seed in enumerate(seeds)]


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

    Sample i is `random_coloring(n, p, trial_seed(seed, i), min_red=need)`,
    one call per sample, with the seeds taken in order from one
    `_trial_seeds` stream (one hash of the "seed:" prefix per call) and the
    order's bit table cached.  k edge-disjoint s-cliques hold need =
    k * C(s,2) distinct red pairs, so a sample whose draw stops below that
    floor (None) is a miss, decided before the rest of the pairs are drawn.
    Every other sample decides X0 >= k with `_exact_packing` at target k,
    which stops at the k-th edge-disjoint clique instead of computing X0.
    Deciding is still an exact search in the worst case, so exact packing's
    order cap is met after the argument checks, and the bound is computed
    after the cap, both before the first sample is drawn: a bound that
    overflows ends the call at once.
    """
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
    check_exact_packing_order(n)
    mu = math.comb(n, s) * p ** math.comb(s, 2)
    bound = (math.e * mu / k) ** k
    need = k * math.comb(s, 2)
    hits = 0
    for sample_seed in _trial_seeds(seed, trials):
        col = random_coloring(n, p, sample_seed, min_red=need)
        if col is not None and len(_exact_packing(col, s, k)) == k:
            hits += 1
    return hits / trials, bound
