"""Exact Ramsey computation on tiny instances.

find_witness runs a DFS over the edges of K_n in row-major order,
branching red before blue and pruning a branch as soon as the partially fixed
red edges contain a copy of H or the blue ones a copy of G.  The convention
throughout is red-H (the clique side in all the bound formulas) and blue-G.

Only colorings whose red adjacency matrix satisfies the sb_l constraint of
Codish, Miller, Prosser and Stuckey, "Constraints for symmetry breaking in
graph representation" (Constraints 24, 2019) are searched: for every pair of
vertices a < b, red row a is lexicographically at most red row b, comparing
columns in ascending order, skipping columns a and b, with 0 < 1.  This is
sound:

- every graph is isomorphic to one whose adjacency matrix satisfies sb_l
  (Codish et al. 2019);
- having no red H and no blue G is invariant under relabelling the vertices;
- a branch is pruned only when a column prefix fixed in both rows already
  violates sb_l, so every completion of it violates sb_l too.

Every leaf reached is therefore a witness coloring (no red H, no blue G), and
absence is exhaustive.

Containment checks are incremental: after fixing an edge only copies using
that edge are searched for, with the two kernels shared with detect.  A
complete pattern K_t is a (t-2)-clique in the common neighborhood of the
edge (`_cliques`), and for K_3 one AND of two rows.  Any other pattern is
placed with one arc (ordered edge) per orbit of its automorphism group
pinned on the new edge: `_place` starts from the placed prefix [u, v], which
is a valid partial image because (u, v) is the edge just added, and searches
only the other pattern vertices.  One arc per orbit suffices: if a copy maps
arc (a, b) onto (u, v) and the automorphism s takes the representative to
(a, b), the copy composed with s maps the representative onto (u, v).

Every vertex's red and blue degree is capped (Greenwood and Gleason, Canad.
J. Math. 7, 1955).  Let x be a dominating vertex of H, one adjacent to every
other vertex.  In a witness, the red neighbourhood N of a vertex v holds no
red H - x, since adding v as the image of x would give a red H, and no blue
G; so the coloring on N is a witness for (H - x, G), and |N| < r(H - x, G).
The blue cap is the same with the colours and patterns swapped.  An edge
that would push a degree past its cap is refused before the pinned and lex
checks, so the DFS order is unchanged and no witness is lost.  `_degree_cap`
gets r(H - x, G) from `ramsey_number` up to n - 1; each sub-pair has one
vertex fewer and stays below the edge cap, so the recursion ends.  For a
complete H it ends at r(K_2, G) = |V(G)|, which needs no search.

ramsey_number does not search the orders below L = `_lower_bound(H, G)`:
every one of them has a witness, the larger of a Chvátal–Harary colouring
(Chvátal and Harary, Pacific J. Math. 41, 1972) and a one-colour colouring,
and the DFS starts at L.  It searches no order at all when a theorem makes L
the value: a pattern without an edge, r(K_2, G) = max(1, |V(G)|),
Chvátal's r(K_m, T) = (m - 1)(|T| - 1) + 1 for a tree T (J. Graph Theory 1,
1977), which is the Chvátal–Harary bound itself, and every pair of cycles
C_m, C_k with 3 <= m <= k but (C_3, C_3) and (C_4, C_4), both 6 (Faudree
and Schelp, Discrete Math. 8, 1974; Rosta, J. Combin. Theory B 15, 1973):

- 2k - 1 for m odd;
- k + m/2 - 1 for m and k even;
- max(k + m/2 - 1, 2m - 1) for m even and k odd.

For a cycle pair L is the theorem's value, not the order of a construction.
find_witness always searches, so it still proves the values the formulas
give.

The lex check is fitted to the row-major edge order (0,1), (0,2), ..., (1,2),
....  When (u, v) is fixed, rows 0..u-1 are complete and row u is fixed up to
column v.  Take x either endpoint of the new edge and o the other: every y
with (y, o) fixed is below x, and the compared prefix of row pair (y, x) is
exactly the columns below o, y and x skipped, plus column o.  The pair passed
on the columns below o at an earlier node, and any pair without a fixed
(y, o) keeps its prefix and its red bits, so the only new violation is a
difference at column o with the 1 in row y: (y, o) red, (x, o) blue, and
rows y and x equal below o.  A red edge therefore never breaks sb_l, and a
blue one is checked against the red neighbours y of o only.
"""
from __future__ import annotations

import functools
from typing import Callable

from .bitset import iter_bits
from .detect import _cliques, _pattern_plan, _place, find_copy
from .errors import CapacityError, InputError
from .graphs import Graph, TwoColoring, graph_from_edges

# The highest order find_witness searches; the edges of its K_n are the edge cap.
MAX_ORDER = 11


def is_witness(col: TwoColoring, H: Graph, G: Graph) -> bool:
    """True iff the coloring has no red copy of H and no blue copy of G."""
    return (
        find_copy(col, "red", H) is None
        and find_copy(col, "blue", G) is None
    )


def _is_complete(g: Graph) -> bool:
    return g.n >= 2 and g.edge_count == g.n * (g.n - 1) // 2


def _chromatic_floor(g: Graph) -> int:
    """A lower bound on the chromatic number of a graph with an edge: g.n if
    it is complete, 2 if a 2-colouring pass succeeds, 3 otherwise."""
    if _is_complete(g):
        return g.n
    adj, side = g.adjacency_bits(), [-1] * g.n
    for root in range(g.n):
        if side[root] >= 0:
            continue
        side[root], stack = 0, [root]
        while stack:
            v = stack.pop()
            for w in iter_bits(adj[v]):
                if side[w] < 0:
                    side[w] = side[v] ^ 1
                    stack.append(w)
                elif side[w] == side[v]:
                    return 3
    return 2


def _cycle_length(g: Graph) -> int | None:
    """k when g is the cycle C_k: k >= 3 vertices, k edges, every degree 2
    and one component; None otherwise (2C_3, C_3 + C_4 and C_4 + K_1 are not
    cycles)."""
    if (g.n >= 3 and g.edge_count == g.n and set(g.degrees()) == {2}
            and len(g.components()) == 1):
        return g.n
    return None


def _cycle_ramsey(H: Graph, G: Graph) -> int | None:
    """r(C_m, C_k) by the theorem of Faudree and Schelp (Discrete Math. 8,
    1974) and Rosta (J. Combin. Theory B 15, 1973) when both patterns are
    cycles, m <= k; None for any other pair and for the two exceptions
    (C_3, C_3) and (C_4, C_4), whose value 6 no formula gives."""
    lengths = _cycle_length(H), _cycle_length(G)
    if None in lengths:
        return None
    m, k = sorted(lengths)
    if m == k <= 4:
        return None
    if m % 2:
        return 2 * k - 1
    if k % 2:
        return max(k + m // 2 - 1, 2 * m - 1)
    return k + m // 2 - 1


def _lower_bound(H: Graph, G: Graph) -> tuple[int, bool]:
    """(L, exact): every order below L has a witness, and exact says that L
    is r(H, G).

    When both patterns are cycles, bar (C_3, C_3) and (C_4, C_4), L is
    `_cycle_ramsey`'s value and exact: the theorem's value, not the order of
    a construction.  Otherwise L - 1 is the largest order one of these
    colourings reaches:

    - all blue on |V(G)| - 1 vertices, which has no blue G, and no red H when
      H has an edge or does not fit (|V(H)| >= |V(G)|); all red on |V(H)| - 1
      vertices, likewise with the colours and patterns swapped;
    - when both patterns have an edge, CH(H, G) - 1 = (chi'(H) - 1)(c(G) - 1)
      vertices, chi' being `_chromatic_floor` and c(G) the order of G's
      largest component: chi'(H) - 1 blue cliques of order c(G) - 1 with every
      edge between them red.  The red graph is (chi'(H) - 1)-partite, so it
      has no red H, and every blue component is smaller than c(G), so there
      is no blue G.  CH(G, H) swaps the colours.

    A witness on K_n restricts to one on every smaller K_n.  L is r(H, G)
    when a pattern has no edge (an edgeless pattern that fits is in every
    colouring), when a pattern is K_2 (a witness is all one colour), and for
    K_m against a tree T, where CH(K_m, T) is Chvátal's value.
    """
    cycles = _cycle_ramsey(H, G)
    if cycles is not None:
        return cycles, True
    orders, exact = [0], False
    for h, g in ((H, G), (G, H)):
        if h.edge_count or h.n >= g.n:
            orders.append(g.n - 1)
        if h.edge_count == 0:
            exact = True
        elif g.edge_count:
            c = max(map(len, g.components()))
            orders.append((_chromatic_floor(h) - 1) * (c - 1))
            exact |= _is_complete(h) and (h.n == 2 or c == g.n == g.edge_count + 1)
    return 1 + max(orders), exact


@functools.lru_cache
def _arc_orbit_plans(g: Graph) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """One placement order per arc orbit of the immutable pattern g, stored
    as `_place` wants it: the earlier neighbors of each position.  Built once
    per pattern.

    The representative of an orbit is its first arc (a, b) in sorted order,
    and its order is a, b, then the other vertices in the order of
    `_pattern_plan`.  Arc (x, y) is in the orbit of a representative that
    places on the pattern itself with a -> x and b -> y, since an injective
    edge-preserving self-map of a finite graph is an automorphism.
    """
    bits = g.adjacency_bits()
    own = [(1 << g.n) - 1] * g.n
    plans: list[tuple[tuple[int, ...], ...]] = []
    for a, b in sorted([*g.edges, *((b, a) for a, b in g.edges)]):
        if not any(_place(bits, own, nbrs, None, [a, b]) is not None for nbrs in plans):
            plans.append(_pattern_plan(g, (a, b))[2])
    return tuple(plans)


def _pinned_check(g: Graph, n: int) -> Callable[[list[int], int, int], bool]:
    """The test (adj, u, v) -> does the host graph `adj` on K_n contain a copy
    of g using its edge (u, v)?

    K_3 is one AND of two rows, and any other complete pattern K_t a
    (t-2)-clique in the common neighborhood of u and v.  Any other pattern is
    placed from the prefix a -> u, b -> v of each arc-orbit representative
    (a, b), where every position may go to any vertex of K_n; a pattern
    larger than K_n has no copy and gets no plans.
    """
    if _is_complete(g):
        if g.n == 3:
            return lambda adj, u, v: adj[u] & adj[v] != 0
        t = g.n - 2
        return lambda adj, u, v: next(_cliques(adj, adj[u] & adj[v], t), None) is not None
    masks = [(1 << n) - 1] * g.n
    plans = _arc_orbit_plans(g) if g.n <= n else ()

    def has_copy(adj: list[int], u: int, v: int) -> bool:
        for nbrs in plans:
            if _place(adj, masks, nbrs, None, [u, v]) is not None:
                return True
        return False

    return has_copy


def _breaks_lex(red_adj: list[int], u: int, v: int) -> bool:
    """After fixing edge (u, v) blue in row-major order: does a red row pair
    now break sb_l on the longest column prefix fixed in both of its rows?

    For x in {u, v} and o the other endpoint, the only pairs that can newly
    break are (y, x) with (y, o) red: y < x, the rows are compared on the
    columns below o (y and x skipped) and then on column o, where row y has
    the 1.  They break when the rows agree below o.
    """
    for x, o in ((u, v), (v, u)):
        row, keep = red_adj[x], ((1 << o) - 1) & ~(1 << x)
        ys = red_adj[o]
        while ys:
            low = ys & -ys
            if not (red_adj[low.bit_length() - 1] ^ row) & keep & ~low:
                return True
            ys ^= low
    return False


def _without_dominating_vertex(g: Graph) -> Graph | None:
    """g minus one vertex adjacent to every other, the rest relabelled in
    order, or None when g has no such vertex.  An automorphism swaps any two
    dominating vertices, so which one goes does not matter."""
    full = (1 << g.n) - 1
    for x, row in enumerate(g.adjacency_bits()):
        if row | 1 << x == full:
            return graph_from_edges(g.n - 1, ((a - (a > x), b - (b > x))
                                              for a, b in g.edges if x != a and x != b))
    return None


def _degree_cap(n: int, H: Graph, G: Graph) -> int:
    """The most red neighbours a vertex has in a witness coloring of K_n:
    r(H - x, G) - 1 for a dominating vertex x of H, or n - 1 when H has none
    or r(H - x, G) > n - 1 (see the module docstring)."""
    rest = _without_dominating_vertex(H)
    r = ramsey_number(rest, G, n - 1) if rest is not None and n >= 2 else None
    return n - 1 if r is None else r - 1


def find_witness(n: int, H: Graph, G: Graph) -> TwoColoring | None:
    """First witness coloring of K_n under the red-before-blue DFS, or None.

    Edges are fixed in row-major order, red before blue.  Only colorings
    whose red adjacency rows satisfy sb_l (row a lex <= row b for every
    a < b, columns a and b skipped) are visited; since every graph has such a
    labelling and witnesses stay witnesses under relabelling, None still
    means that no witness exists (Codish, Miller, Prosser and Stuckey,
    Constraints 24, 2019).  The lex check relies on the row-major order: a
    red edge never breaks sb_l, and a blue one is checked by `_breaks_lex`.

    An edge is refused, before any other check, when it gives one of its
    ends more neighbours of its colour than `_degree_cap` allows.  In a
    witness, a vertex's red neighbourhood is a witness for (H - x, G), x a
    dominating vertex of H, so it has fewer than r(H - x, G) vertices, and
    likewise in blue; no refused subtree holds a witness.  The caps come
    from `ramsey_number` on the smaller pairs up to order n - 1, on each
    call: a sub-pair whose value `_lower_bound` knows, such as the (K_2, G)
    at the end of every clique's chain, is answered without search, and any
    other is searched afresh.
    """
    if n < 1:
        raise InputError("order must be at least 1")
    pairs = n * (n - 1) // 2
    if n > MAX_ORDER:
        cap = MAX_ORDER * (MAX_ORDER - 1) // 2
        raise CapacityError(f"K_{n} has {pairs} edges, above the cap of {cap}")
    # An edgeless pattern that fits in K_n is present in every coloring.
    if H.edge_count == 0 and H.n <= n:
        return None
    if G.edge_count == 0 and G.n <= n:
        return None

    red_cap, blue_cap = _degree_cap(n, H, G), _degree_cap(n, G, H)
    edge_list = [(u, v) for u in range(n) for v in range(u + 1, n)]
    has_h, has_g = _pinned_check(H, n), _pinned_check(G, n)
    red_adj = [0] * n
    blue_adj = [0] * n

    def dfs(i: int) -> TwoColoring | None:
        if i == pairs:
            return TwoColoring(n, [(u, v) for u, v in edge_list if red_adj[u] >> v & 1])
        u, v = edge_list[i]
        bu, bv = 1 << u, 1 << v

        red_adj[u] |= bv
        red_adj[v] |= bu
        if (red_adj[u].bit_count() <= red_cap and red_adj[v].bit_count() <= red_cap
                and not has_h(red_adj, u, v)):
            witness = dfs(i + 1)
            if witness is not None:
                return witness
        red_adj[u] &= ~bv
        red_adj[v] &= ~bu

        blue_adj[u] |= bv
        blue_adj[v] |= bu
        if (blue_adj[u].bit_count() <= blue_cap and blue_adj[v].bit_count() <= blue_cap
                and not _breaks_lex(red_adj, u, v)
                and not has_g(blue_adj, u, v)):
            witness = dfs(i + 1)
            if witness is not None:
                return witness
        blue_adj[u] &= ~bv
        blue_adj[v] &= ~bu
        return None

    return dfs(0)


def ramsey_number(H: Graph, G: Graph, n_cap: int) -> int | None:
    """Smallest n with no witness coloring, or None if witnesses persist
    through n_cap (the value is then greater than n_cap).

    A value that `_lower_bound` knows exactly and that is at most MAX_ORDER
    is returned without search.  Otherwise the orders are walked: a witness
    on K_{n+1} restricts to one on K_n, so the first witness-free order is
    the Ramsey number.  Every order below the bound L has a witness, so the
    DFS starts at L, and none is built or checked below it.  The start is at
    most MAX_ORDER + 1, so that an answer beyond the cap raises the same
    CapacityError as a walk from 1 would; a known value above MAX_ORDER is
    walked for the same reason.
    """
    if n_cap < 1:
        raise InputError("n_cap must be at least 1")
    bound, exact = _lower_bound(H, G)
    if exact and bound <= MAX_ORDER:
        return bound if bound <= n_cap else None
    for n in range(min(bound, MAX_ORDER + 1), n_cap + 1):
        if find_witness(n, H, G) is None:
            return n
    return None
