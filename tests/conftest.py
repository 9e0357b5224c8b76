"""Shared helpers: independent brute-force oracles and seeded instance
generators.  The oracles deliberately avoid the package's search kernels so
that agreement is a real cross-check.
"""
from __future__ import annotations

import itertools
import math
import random

from ramseykit.construct import random_coloring, trial_seed
from ramseykit.detect import max_edge_disjoint_packing
from ramseykit.graphs import Graph, TwoColoring, graph_from_edges, coloring_from_red


def all_colorings(n: int):
    """Every red/blue coloring of K_n (2^C(n,2) of them)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        red = frozenset(p for i, p in enumerate(pairs) if (bits >> i) & 1)
        yield TwoColoring(n, red)


def reference_random_red(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """The red pairs of `random_coloring(n, p, seed)` drawn as a pair list: one
    uniform draw of `random.Random(seed)` per pair, in lexicographic order."""
    draw = random.Random(seed).random
    return [(u, v) for u in range(n) for v in range(u + 1, n) if draw() < p]


def naive_has_clique(col: TwoColoring, color: str, s: int) -> bool:
    want_red = color == "red"
    for combo in itertools.combinations(range(col.n), s):
        if all(
            col.is_red(u, v) == want_red
            for u, v in itertools.combinations(combo, 2)
        ):
            return True
    return False


def naive_find_copy(col: TwoColoring, color: str, G: Graph):
    """Exhaustive injective-map search; returns a dict or None."""
    want_red = color == "red"
    for perm in itertools.permutations(range(col.n), G.n):
        if all(col.is_red(perm[u], perm[v]) == want_red for u, v in G.edges):
            return dict(enumerate(perm))
    return None


def naive_max_packing_size(col: TwoColoring, s: int) -> int:
    """Maximum edge-disjoint family of red s-cliques by plain recursion over
    include/exclude choices; only usable when the clique count is small."""
    cliques = []
    for combo in itertools.combinations(range(col.n), s):
        if all(col.is_red(u, v) for u, v in itertools.combinations(combo, 2)):
            cliques.append(frozenset(
                frozenset(p) for p in itertools.combinations(combo, 2)
            ))

    def best_from(i: int, used: frozenset) -> int:
        if i == len(cliques):
            return 0
        score = best_from(i + 1, used)
        if not (cliques[i] & used):
            score = max(score, 1 + best_from(i + 1, used | cliques[i]))
        return score

    return best_from(0, frozenset())


def reference_greedy_packing(col: TwoColoring, s: int) -> list[tuple[int, ...]]:
    """The greedy packing by definition: every s-subset in lexicographic order
    joins when all its pairs are red and none is covered by an earlier member."""
    covered: set[tuple[int, int]] = set()
    members = []
    for combo in itertools.combinations(range(col.n), s):
        pairs = list(itertools.combinations(combo, 2))
        if all(col.is_red(u, v) and (u, v) not in covered for u, v in pairs):
            members.append(combo)
            covered.update(pairs)
    return members


def reference_erdos_tetali(n: int, p: float, s: int, k: int, trials: int,
                            seed: int) -> tuple[float, float]:
    """The Erdős–Tetali validator loop that computes the maximum packing of
    every sample and compares its size with k, on the same sample colorings
    as `construct.erdos_tetali_check`."""
    hits = 0
    for i in range(trials):
        col = random_coloring(n, p, trial_seed(seed, i))
        if max_edge_disjoint_packing(col, s, "exact").size >= k:
            hits += 1
    mu = math.comb(n, s) * p ** math.comb(s, 2)
    return hits / trials, (math.e * mu / k) ** k


def random_connected_graph(rng: random.Random, m: int) -> Graph:
    """Connected graph with exactly m edges and no isolated vertices."""
    v_min = 2
    while v_min * (v_min - 1) // 2 < m:
        v_min += 1
    v = rng.randint(v_min, m + 1)
    edges = set()
    for w in range(1, v):
        edges.add((rng.randrange(w), w))
    candidates = [
        (a, b) for a in range(v) for b in range(a + 1, v) if (a, b) not in edges
    ]
    rng.shuffle(candidates)
    for pair in candidates[: m - (v - 1)]:
        edges.add(pair)
    return graph_from_edges(v, edges)


def random_bipartite_red_coloring(rng: random.Random, n: int, q: float) -> TwoColoring:
    """Triangle-free red graph: random bipartition, cross pairs red w.p. q."""
    side = [rng.random() < 0.5 for _ in range(n)]
    red = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if side[u] != side[v] and rng.random() < q
    ]
    return coloring_from_red(n, red)


# Every isolated-vertex-free graph with at most 3 edges, up to isomorphism.
GRAPHS_UP_TO_3_EDGES = {
    "K2": graph_from_edges(2, [(0, 1)]),
    "P3": graph_from_edges(3, [(0, 1), (1, 2)]),
    "2K2": graph_from_edges(4, [(0, 1), (2, 3)]),
    "K3": graph_from_edges(3, [(0, 1), (0, 2), (1, 2)]),
    "P4": graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    "K13": graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    "P3+K2": graph_from_edges(5, [(0, 1), (1, 2), (3, 4)]),
    "3K2": graph_from_edges(6, [(0, 1), (2, 3), (4, 5)]),
}


def naive_has_pinned_copy(col: TwoColoring, color: str, G: Graph, u: int, v: int) -> bool:
    """Exhaustive search for a copy of G in `color` that maps some edge of G
    onto the pair {u, v}: every edge (a, b) of G, both ways round, with every
    injective map of the other vertices of G into the rest of K_n."""
    want_red = color == "red"
    rest = [x for x in range(col.n) if x != u and x != v]
    for a, b in G.edges:
        others = [x for x in range(G.n) if x != a and x != b]
        for x, y in ((u, v), (v, u)):
            for images in itertools.permutations(rest, len(others)):
                perm = dict(zip(others, images))
                perm[a], perm[b] = x, y
                if all(col.is_red(perm[p], perm[q]) == want_red for p, q in G.edges):
                    return True
    return False


def reference_find_witness(n: int, H: Graph, G: Graph) -> TwoColoring | None:
    """The exact search with no symmetry breaking, for patterns with at least
    one edge: a DFS over the edges of K_n in lexicographic order, red before
    blue, pruning when the color class just extended contains a copy of its
    pattern through the new edge (checked by `naive_has_pinned_copy`)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    fixed = {"red": [], "blue": []}
    pattern = {"red": H, "blue": G}

    def dfs(i: int) -> TwoColoring | None:
        if i == len(pairs):
            return TwoColoring(n, frozenset(fixed["red"]))
        u, v = pairs[i]
        for color in ("red", "blue"):
            fixed[color].append((u, v))
            # The fixed pairs of this color, drawn as the red class of a coloring.
            color_class = TwoColoring(n, frozenset(fixed[color]))
            if not naive_has_pinned_copy(color_class, "red", pattern[color], u, v):
                witness = dfs(i + 1)
                if witness is not None:
                    return witness
            fixed[color].pop()
        return None

    return dfs(0)
