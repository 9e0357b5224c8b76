"""Shared helpers: independent brute-force oracles and seeded instance
generators.  The oracles deliberately avoid the package's search kernels so
that agreement is a real cross-check.
"""
from __future__ import annotations

import itertools
import math
import random

from ramseykit.construct import trial_seed
from ramseykit.detect import _greedy_packing
from ramseykit.exact import find_witness
from ramseykit.graphs import (
    Graph,
    TwoColoring,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)


def all_colorings(n: int):
    """Every red/blue coloring of K_n (2^C(n,2) of them)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        red = frozenset(p for i, p in enumerate(pairs) if (bits >> i) & 1)
        yield TwoColoring(n, red)


def reference_random_red(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """The red pairs of `random_coloring(n, p, seed)` drawn as a pair list: one
    uniform draw of the standard library's `random.Random(seed)` per pair, in
    lexicographic order, with no table and no cache."""
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


def reference_max_packing(col: TwoColoring, s: int) -> list[tuple[int, ...]]:
    """A maximum edge-disjoint family of red s-cliques by plain recursion over
    the cliques in lexicographic order, each included before it is excluded,
    with no bound, no greedy start and no stop.  The best family so far is
    replaced only by a strictly larger one, so this is the first maximum
    family in that order.  Only usable when the clique count is small."""
    cliques = [combo for combo in itertools.combinations(range(col.n), s)
               if all(col.is_red(u, v) for u, v in itertools.combinations(combo, 2))]
    best: list[tuple[int, ...]] = []

    def search(i: int, chosen: list[tuple[int, ...]], covered: frozenset) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if i == len(cliques):
            return
        pairs = frozenset(itertools.combinations(cliques[i], 2))
        if not pairs & covered:
            chosen.append(cliques[i])
            search(i + 1, chosen, covered | pairs)
            chosen.pop()
        search(i + 1, chosen, covered)

    search(0, [], frozenset())
    return best


def naive_max_packing_size(col: TwoColoring, s: int) -> int:
    """The maximum packing size X0, from `reference_max_packing`."""
    return len(reference_max_packing(col, s))


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


# A coloring whose greedy triangle packing is the one member (0, 1, 2): red is
# K_4 on {0, 1, 2, 3} plus the pair (3, 4), and vertex 5 is all blue.  The
# residual red pairs are (0, 3), (1, 3), (2, 3) and (3, 4).
ONE_TRIANGLE_PACKING = TwoColoring(
    6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])

# Members a faulty greedy pass could add after the real ones, each clearing
# fewer than 3 red pairs from ONE_TRIANGLE_PACKING's residual rows, which
# stay triangle-free.
FAULTY_TRIANGLES = {
    "blue-pair": [(2, 3, 4)],
    "two-blue-pairs": [(3, 4, 5)],
    "repeated-vertex": [(3, 3, 4)],
    "shared-pair": [(0, 1, 3)],
    "member-twice": [(0, 1, 2)],
}


def greedy_with_extra_members(extra):
    """A stand-in for `detect._greedy_packing`: the real members, then
    `extra`, each member's pairs cleared from the given rows the way the
    real pass clears them."""
    def greedy(adj, s):
        yield from _greedy_packing(adj, s)
        for member in extra:
            yield member
            mask = 0
            for v in member:
                mask |= 1 << v
            for v in member:
                adj[v] &= ~mask
    return greedy


def reference_erdos_tetali(n: int, p: float, s: int, k: int, trials: int, seed: int,
                           max_packing_size) -> tuple[float, float]:
    """The Erdős–Tetali validator loop that computes the maximum packing size
    `max_packing_size(col, s)` of every sample and compares it with k.  Sample
    i is drawn by `reference_random_red` from `trial_seed(seed, i)`, each seed
    computed on its own."""
    hits = 0
    for i in range(trials):
        col = TwoColoring(n, reference_random_red(n, p, trial_seed(seed, i)))
        if max_packing_size(col, s) >= k:
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
    return Graph(v, edges)


def random_coloring_local(rng: random.Random, n: int, q: float) -> TwoColoring:
    """Each pair of K_n red with probability q, one draw of `rng` per pair in
    lexicographic order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return TwoColoring(n, [p for p in pairs if rng.random() < q])


def random_bipartite_red_coloring(rng: random.Random, n: int, q: float) -> TwoColoring:
    """Triangle-free red graph: random bipartition, cross pairs red w.p. q."""
    side = [rng.random() < 0.5 for _ in range(n)]
    red = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if side[u] != side[v] and rng.random() < q
    ]
    return TwoColoring(n, red)


# Every isolated-vertex-free graph with at most 3 edges, up to isomorphism.
GRAPHS_UP_TO_3_EDGES = {
    "K2": Graph(2, [(0, 1)]),
    "P3": Graph(3, [(0, 1), (1, 2)]),
    "2K2": Graph(4, [(0, 1), (2, 3)]),
    "K3": Graph(3, [(0, 1), (0, 2), (1, 2)]),
    "P4": Graph(4, [(0, 1), (1, 2), (2, 3)]),
    "K13": Graph(4, [(0, 1), (0, 2), (0, 3)]),
    "P3+K2": Graph(5, [(0, 1), (1, 2), (3, 4)]),
    "3K2": Graph(6, [(0, 1), (2, 3), (4, 5)]),
}

# Patterns on at most 4 vertices, each searched against each by the exact
# search's symmetry-breaking tests.
SB_PATTERNS = {
    "K2": complete_graph(2),
    "K3": complete_graph(3),
    "P3": path_graph(3),
    "P4": path_graph(4),
    "K1_3": star_graph(3),
    "C4": cycle_graph(4),
    "paw": Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "K4-e": Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "K4": complete_graph(4),
    "2K2": Graph(4, [(0, 1), (2, 3)]),
}
# The patterns whose pinned checks are compared with the full ones.
PINNED_PATTERNS = {**SB_PATTERNS, "C5": cycle_graph(5), "P5": path_graph(5)}


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


def reference_ramsey_number(H: Graph, G: Graph, n_cap: int) -> int | None:
    """The first order from 1 up to n_cap at which `find_witness` finds no
    witness, or None: the level walk with no lower bound."""
    for n in range(1, n_cap + 1):
        if find_witness(n, H, G) is None:
            return n
    return None


def unsearched(n: int, H: Graph, G: Graph):
    """A stand-in for `find_witness` in a test where no order may be searched."""
    raise AssertionError(f"searched K_{n}")


def all_arcs_pinned_copy(adj: list[int], n: int, G: Graph, u: int, v: int) -> bool:
    """Does the host graph (bitmask rows `adj` on n vertices) contain a copy
    of G that maps some edge of G onto (u, v)?  Every edge of G is tried both
    ways round, and the other vertices of G are mapped by plain recursion."""
    if not adj[u] >> v & 1:
        return False
    gadj: list[set[int]] = [set() for _ in range(G.n)]
    for a, b in G.edges:
        gadj[a].add(b)
        gadj[b].add(a)

    def extend(image: dict[int, int], rest: list[int]) -> bool:
        if not rest:
            return True
        x, more = rest[0], rest[1:]
        for h in range(n):
            if h not in image.values() and all(
                adj[image[y]] >> h & 1 for y in gadj[x] if y in image
            ):
                image[x] = h
                if extend(image, more):
                    return True
                del image[x]
        return False

    for a, b in G.edges:
        for x, y in ((a, b), (b, a)):
            if extend({x: u, y: v}, [w for w in range(G.n) if w != x and w != y]):
                return True
    return False


def full_scan_breaks_lex(red_adj: list[int], blue_adj: list[int], u: int, v: int) -> bool:
    """Does any red row pair a < b break sb_l on the columns fixed in both
    rows?  Columns other than a and b are compared in ascending order up to
    the first one not fixed in both rows; a row pair breaks when row a has the
    first red bit where the two rows differ.  (u, v), the edge just fixed,
    is ignored: every pair is scanned."""
    n = len(red_adj)
    for a, b in itertools.combinations(range(n), 2):
        for c in range(n):
            if c == a or c == b:
                continue
            if not ((red_adj[a] | blue_adj[a]) >> c & 1 and (red_adj[b] | blue_adj[b]) >> c & 1):
                break
            ra, rb = red_adj[a] >> c & 1, red_adj[b] >> c & 1
            if ra != rb:
                if ra:
                    return True
                break
    return False


def row_major_reference_search(n: int, H: Graph, G: Graph) -> tuple[TwoColoring | None, int, int]:
    """The exact search with the whole sb_l scan and every arc placed: a DFS
    over the edges of K_n in row-major order, red before blue, that after
    every edge of either color prunes when `full_scan_breaks_lex` finds a
    broken row pair, and otherwise when `all_arcs_pinned_copy` finds a copy of
    the color's pattern through the edge.  Returns the first witness (or
    None), the number of pinned-copy checks and the number of blue children
    tried."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rows = {"red": [0] * n, "blue": [0] * n}
    pattern = {"red": H, "blue": G}
    pinned_checks = blue_children = 0

    def dfs(i: int) -> TwoColoring | None:
        nonlocal pinned_checks, blue_children
        if i == len(pairs):
            return TwoColoring(n, frozenset(p for p in pairs if rows["red"][p[0]] >> p[1] & 1))
        u, v = pairs[i]
        for color in ("red", "blue"):
            adj = rows[color]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            blue_children += color == "blue"
            if not full_scan_breaks_lex(rows["red"], rows["blue"], u, v):
                pinned_checks += 1
                if not all_arcs_pinned_copy(adj, n, pattern[color], u, v):
                    witness = dfs(i + 1)
                    if witness is not None:
                        return witness
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        return None

    return dfs(0), pinned_checks, blue_children
