import itertools
import random

import networkx as nx
import pytest

from conftest import (
    GRAPHS_UP_TO_3_EDGES,
    PINNED_PATTERNS,
    SB_PATTERNS,
    all_colorings,
    full_scan_breaks_lex,
    naive_find_copy,
    reference_find_witness,
    reference_ramsey_number,
    row_major_reference_search,
)
from ramseykit import exact
from ramseykit.detect import find_copy
from ramseykit.errors import CapacityError, InputError
from ramseykit.exact import find_witness, is_witness, ramsey_number
from ramseykit.graphs import (
    Graph,
    TwoColoring,
    coloring_from_red,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    path_graph,
    star_graph,
)

K3 = complete_graph(3)
C4 = cycle_graph(4)
THREE_K2 = GRAPHS_UP_TO_3_EDGES["3K2"]
RED_C5 = coloring_from_red(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
START_PATTERNS = {
    **GRAPHS_UP_TO_3_EDGES,
    "K4": complete_graph(4),
    "C4": C4,
    "C5": cycle_graph(5),
    "P5": path_graph(5),
}
# Patterns with a component that misses the pinned edge, and the blue
# patterns they are searched against.
DISCONNECTED = {
    "2K2": GRAPHS_UP_TO_3_EDGES["2K2"],
    "P3+K2": GRAPHS_UP_TO_3_EDGES["P3+K2"],
    "K3+K2": graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)]),
    "2K3": graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
}
AGAINST_DISCONNECTED = {
    "K3": K3, "C4": C4, "2K2": DISCONNECTED["2K2"], "K3+K2": DISCONNECTED["K3+K2"],
}
# Patterns with an isolated vertex, and three without; every ordered pair of
# them is searched.
WITH_ISOLATED = {
    "K2+K1": graph_from_edges(3, [(0, 1)]),
    "P3+K1": graph_from_edges(4, [(0, 1), (1, 2)]),
    "K3+K1": graph_from_edges(4, [(0, 1), (0, 2), (1, 2)]),
    "K13+K1": graph_from_edges(5, [(0, 1), (0, 2), (0, 3)]),
    "3K1": Graph(3),
    "K2": complete_graph(2),
    "K3": K3,
    "2K2": DISCONNECTED["2K2"],
}
# The table of TestRamseyNumber.test_published_values, with r(K4-e, K4-e)
# (Radziszowski, EJC DS1) and two tree values r(K_m, T) = (m - 1)(|T| - 1) + 1
# (Chvátal, J. Graph Theory 1, 1977).
PUBLISHED = [
    (K3, C4, 7), (K3, cycle_graph(5), 9), (K3, cycle_graph(6), 11),
    (K3, complete_graph(4), 9), (C4, C4, 6), (C4, complete_graph(4), 10),
    (SB_PATTERNS["K4-e"], SB_PATTERNS["K4-e"], 10), (K3, star_graph(5), 11),
    (complete_graph(4), star_graph(3), 10),
]


def caps_off(n, H, G):
    """`exact._degree_cap` with the rule switched off: n - 1 bounds no degree."""
    return n - 1


def red_rows_lex_ordered(col: TwoColoring) -> bool:
    """sb_l on the whole red adjacency matrix: for every a < b, red row a is
    lexicographically at most red row b, columns a and b left out."""
    for a, b in itertools.combinations(range(col.n), 2):
        cols = [c for c in range(col.n) if c != a and c != b]
        if [col.is_red(a, c) for c in cols] > [col.is_red(b, c) for c in cols]:
            return False
    return True


def assert_matches_reference(n, H, G):
    witness = find_witness(n, H, G)
    assert (witness is not None) == (reference_find_witness(n, H, G) is not None)
    if witness is not None:
        assert is_witness(witness, H, G)
        assert red_rows_lex_ordered(witness)


class TestIsWitness:
    def test_c5_witnesses_33(self):
        assert is_witness(RED_C5, K3, K3)

    def test_all_blue_k5_fails(self):
        assert not is_witness(TwoColoring(5), K3, K3)

    def test_k2_red_side(self):
        # Any red edge is a red K_2, so witnesses must be all-blue and G-free.
        k2 = complete_graph(2)
        assert not is_witness(coloring_from_red(4, [(0, 1)]), k2, complete_graph(5))
        assert is_witness(TwoColoring(2), k2, K3)
        assert not is_witness(TwoColoring(3), k2, K3)


class TestFindWitness:
    def test_witness_at_5_for_33(self):
        w = find_witness(5, K3, K3)
        assert w is not None and is_witness(w, K3, K3)

    def test_none_at_6_for_33(self):
        assert find_witness(6, K3, K3) is None

    def test_trivial_order_1(self):
        w = find_witness(1, K3, path_graph(2))
        assert w is not None and w.n == 1

    def test_matches_brute_force(self):
        patterns = [K3, path_graph(3), graph_from_edges(3, [(0, 1)])]
        for H in patterns:
            for G in patterns:
                for n in (2, 3, 4):
                    exists = any(is_witness(col, H, G) for col in all_colorings(n))
                    assert (find_witness(n, H, G) is not None) == exists

    def test_matches_brute_force_n5_richer_patterns(self):
        from ramseykit.graphs import cycle_graph

        paw = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        patterns = [K3, path_graph(4), star_graph(3), cycle_graph(4), paw]
        for H, G in itertools.product(patterns, repeat=2):
            witnesses = [col for col in all_colorings(5) if is_witness(col, H, G)]
            w = find_witness(5, H, G)
            assert (w is not None) == bool(witnesses)
            if w is not None:
                assert is_witness(w, H, G)
            # The degree caps hold in every witness, found without the DFS.
            red_cap, blue_cap = exact._degree_cap(5, H, G), exact._degree_cap(5, G, H)
            for col in witnesses:
                assert max(r.bit_count() for r in col.red_adjacency_bits()) <= red_cap
                assert max(b.bit_count() for b in col.blue_adjacency_bits()) <= blue_cap

    def test_found_witness_is_valid(self):
        for H, G in [(K3, star_graph(3)), (K3, path_graph(4)), (complete_graph(4), K3)]:
            for n in range(2, 7):
                w = find_witness(n, H, G)
                if w is not None:
                    assert is_witness(w, H, G)

    def test_edgeless_pattern_blocks_witness(self):
        # An edgeless pattern that fits is present in every coloring.
        assert find_witness(3, graph_from_edges(2, []), K3) is None
        assert find_witness(3, K3, graph_from_edges(2, [])) is None

    def test_capacity(self):
        with pytest.raises(CapacityError):
            find_witness(12, K3, K3)
        with pytest.raises(InputError):
            find_witness(0, K3, K3)


class TestSymmetryBreaking:
    def test_self_pairs_keep_their_witnesses(self):
        # Fixing the first edge red when H = G does not compose with sb_l: with
        # both rules these witnesses are lost and r(K3, K3) would come out as 4.
        assert find_witness(5, K3, K3) is not None
        assert find_witness(5, C4, C4) is not None
        # n <= 6 is covered for every pair by test_matches_unbroken_search.
        for H in SB_PATTERNS.values():
            assert_matches_reference(7, H, H)

    @pytest.mark.parametrize("h", list(SB_PATTERNS))
    def test_matches_unbroken_search(self, h):
        # n stops at 6: the unbroken reference needs minutes for all pairs at 7.
        for G in SB_PATTERNS.values():
            for n in range(2, 7):
                assert_matches_reference(n, SB_PATTERNS[h], G)


class TestReducedChecks:
    """The search with one pinned placement per arc orbit and the row-major
    lex check against the same row-major DFS with every arc placed and every
    row pair compared after every edge: same nodes, so the same first
    witness and the same number of pinned-copy checks.

    A vertex of a component that misses the pinned edge has no placed
    neighbor, so its placement starts from every vertex of K_n.  The
    disconnected red patterns are also checked against the unbroken search:
    a witness exactly when it finds one (n stops at 6, as for
    TestSymmetryBreaking.test_matches_unbroken_search).

    The reference has no degree caps, so they are off here; TestDegreeCaps
    compares the search with and without them."""

    CASES = [
        *(pytest.param(H, PINNED_PATTERNS, 7, False, id=h) for h, H in PINNED_PATTERNS.items()),
        *(pytest.param(H, AGAINST_DISCONNECTED, 6, True, id=f"{h}-disconnected")
          for h, H in DISCONNECTED.items()),
    ]

    @pytest.mark.parametrize("H, blues, max_n, unbroken", CASES)
    def test_same_search_as_full_checks(self, H, blues, max_n, unbroken, monkeypatch):
        calls = {"pinned": 0, "lex": 0}

        def counted(name, check):
            def wrapper(*args):
                calls[name] += 1
                return check(*args)
            return wrapper

        pinned_check = exact._pinned_check
        monkeypatch.setattr(exact, "_pinned_check",
                            lambda g, n: counted("pinned", pinned_check(g, n)))
        monkeypatch.setattr(exact, "_breaks_lex", counted("lex", exact._breaks_lex))
        monkeypatch.setattr(exact, "_degree_cap", caps_off)
        found = []
        for G in blues.values():
            for n in range(1, max_n + 1):
                calls.update(pinned=0, lex=0)
                witness = find_witness(n, H, G)
                want, pinned_checks, blue_children = row_major_reference_search(n, H, G)
                assert witness == want, (G, n)
                # Only the blue branch checks sb_l, once per blue child.
                assert (calls["pinned"], calls["lex"]) == (pinned_checks, blue_children), (G, n)
                if unbroken:
                    assert (witness is None) == (reference_find_witness(n, H, G) is None), (G, n)
                found.append(witness)
        assert any(w is not None for w in found)
        # r(2K3, K3) = 8 (Burr, Erdős and Spencer), so 2K3 has a witness at
        # every order searched; every other red pattern meets one without.
        assert (None in found) != (H is DISCONNECTED["2K3"])

    def test_lex_check_in_row_major_order(self):
        # Fix the pairs of K_n in row-major order, each in a random color
        # first, keeping only states that satisfy sb_l.  After a blue edge the
        # restricted check must agree with a scan of all row pairs; a red edge
        # must never break sb_l.
        rng = random.Random(11)
        outcomes = set()
        for _ in range(300):
            n = rng.randint(2, 7)
            red, blue = [0] * n, [0] * n
            for u, v in itertools.combinations(range(n), 2):
                for rows in rng.sample([red, blue], 2):
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    full = full_scan_breaks_lex(red, blue, u, v)
                    if rows is red:
                        assert not full
                        break
                    got = exact._breaks_lex(red, u, v)
                    assert got == full
                    outcomes.add(got)
                    if not got:
                        break
                    rows[u] &= ~(1 << v)
                    rows[v] &= ~(1 << u)
        assert outcomes == {False, True}

    def test_arc_orbit_plans_built_once_per_pattern(self):
        # (C4, C4) is walked, and each level builds its pinned checks afresh;
        # the second walk takes every plan from the cache.
        ramsey_number(C4, C4, 6)
        misses = exact._arc_orbit_plans.cache_info().misses
        assert ramsey_number(C4, C4, 6) == 6
        assert exact._arc_orbit_plans.cache_info().misses == misses


class TestDegreeCaps:
    """find_witness refuses an edge that gives a vertex more red neighbours
    than r(H - x, G) - 1, or more blue ones than r(H, G - y) - 1, where x and
    y are dominating vertices.  No witness has such a vertex, so the search
    must find the same first witness as the search without the caps."""

    @pytest.mark.parametrize("h", list(PINNED_PATTERNS))
    def test_same_witness_as_without_caps(self, h, monkeypatch):
        H = PINNED_PATTERNS[h]
        binding = 0
        for g, G in PINNED_PATTERNS.items():
            for n in range(1, 8):
                with monkeypatch.context() as m:
                    m.setattr(exact, "_degree_cap", caps_off)
                    want = find_witness(n, H, G)
                witness = find_witness(n, H, G)
                assert witness == want, (g, n)
                red_cap, blue_cap = exact._degree_cap(n, H, G), exact._degree_cap(n, G, H)
                binding += min(red_cap, blue_cap) < n - 1
                if witness is not None:
                    degrees = zip(witness.red_adjacency_bits(), witness.blue_adjacency_bits())
                    for red, blue in degrees:
                        assert red.bit_count() <= red_cap and blue.bit_count() <= blue_cap, (g, n)
        # Every pattern meets a blue one with a dominating vertex, so some cap binds.
        assert binding

    def test_cap_values(self):
        K4 = complete_graph(4)
        # r(K2, K4) = 4 and r(K3, K3) = 6.
        assert (exact._degree_cap(9, K3, K4), exact._degree_cap(9, K4, K3)) == (3, 5)
        # K1,3 minus its centre is 3K1, and r(3K1, K3) = 3.
        assert exact._degree_cap(7, star_graph(3), K3) == 2
        # C4 has no dominating vertex; r(K3, K4) = 9 is above 7.
        assert exact._degree_cap(8, C4, K3) == exact._degree_cap(8, K4, K4) == 7
        assert exact._degree_cap(1, K3, K3) == 0

    def test_k3_k4_level_9_makes_a_tenth_of_the_pinned_checks(self, monkeypatch):
        calls = [0]
        pinned_check = exact._pinned_check

        def counted(g, n):
            check = pinned_check(g, n)

            def wrapper(*args):
                calls[0] += 1
                return check(*args)
            return wrapper

        monkeypatch.setattr(exact, "_pinned_check", counted)
        K4 = complete_graph(4)
        # The count with the caps on includes the searches of smaller pairs.
        assert find_witness(9, K3, K4) is None
        with_caps, calls[0] = calls[0], 0
        monkeypatch.setattr(exact, "_degree_cap", caps_off)
        assert find_witness(9, K3, K4) is None
        assert 10 * with_caps <= calls[0]


class TestRamseyNumber:
    def test_r33(self):
        assert ramsey_number(K3, K3, 9) == 6

    def test_r_k3_p3(self):
        assert ramsey_number(K3, path_graph(3), 9) == 5

    def test_r_k2_k3(self):
        assert ramsey_number(complete_graph(2), K3, 9) == 3

    def test_above_cap(self):
        assert ramsey_number(K3, K3, 5) is None

    def test_published_values(self):
        # Chvatal-Harary 1972; Radziszowski, Small Ramsey Numbers (EJC DS1).
        table = [
            (K3, C4, 7), (K3, cycle_graph(5), 9), (K3, cycle_graph(6), 11),
            (K3, complete_graph(4), 9), (C4, C4, 6), (C4, complete_graph(4), 10),
        ]
        for H, G, r in table:
            assert ramsey_number(H, G, r) == r

    def test_color_swap_symmetry(self):
        pairs = [
            (complete_graph(2), K3),
            (path_graph(3), K3),
            (path_graph(3), path_graph(4)),
            (complete_graph(2), star_graph(3)),
        ]
        for H, G in pairs:
            assert ramsey_number(H, G, 8) == ramsey_number(G, H, 8)

    def test_arrowing_is_monotone_in_n(self):
        # If K_n admits no witness, neither does K_{n+1}.
        for H, G in [(K3, K3), (K3, path_graph(3))]:
            r = ramsey_number(H, G, 8)
            for n in range(r, 8):
                assert find_witness(n, H, G) is None

    def test_subgraph_monotonicity(self):
        # G' subgraph of G (no isolated vertices added) implies
        # r(K_3, G') <= r(K_3, G); checked over the m <= 3 catalog.
        catalog = list(GRAPHS_UP_TO_3_EDGES.values())
        values = {g: ramsey_number(K3, g, 8) for g in catalog}
        for g_small, g_big in itertools.permutations(catalog, 2):
            inclusion_host = coloring_from_red(g_big.n, g_big.edges)
            if g_small.n <= g_big.n and find_copy(inclusion_host, "red", g_small):
                assert values[g_small] <= values[g_big]

    def test_sidorenko_ceiling_small(self):
        for g in GRAPHS_UP_TO_3_EDGES.values():
            m = g.edge_count
            r = ramsey_number(K3, g, 2 * m + 1)
            assert r is not None and r <= 2 * m + 1


def chromatic_floor(g):
    """g.n for a complete g, 2 when some split of the vertices into two sides
    leaves no edge inside a side, 3 otherwise."""
    if g.edge_count == g.n * (g.n - 1) // 2:
        return g.n
    sides = range(1 << g.n)
    if any(all(side >> a & 1 != side >> b & 1 for a, b in g.edges) for side in sides):
        return 2
    return 3


def largest_component(g):
    """The most vertices reachable from one vertex: g.n rounds of adding both
    ends of every edge that touches the reached set."""
    best = 0
    for v in range(g.n):
        reach = {v}
        for _ in range(g.n):
            reach |= {x for edge in g.edges if reach.intersection(edge) for x in edge}
        best = max(best, len(reach))
    return best


def chvatal_harary_coloring(H, G):
    """The larger of the two Chvátal–Harary colourings: chromatic_floor(H) - 1
    blue cliques of order largest_component(G) - 1 with red between them, or
    the same with the roles of H and G and of the two colours swapped."""
    colorings = []
    for h, g, red_between in ((H, G, True), (G, H, False)):
        parts, size = chromatic_floor(h) - 1, largest_component(g) - 1
        red = [(u, v) for u, v in itertools.combinations(range(parts * size), 2)
               if (u // size != v // size) == red_between]
        colorings.append(coloring_from_red(parts * size, red))
    return max(colorings, key=lambda col: col.n)


def one_colour_coloring(H, G):
    """For patterns with an edge, the larger of all blue on |V(G)| - 1
    vertices and all red on |V(H)| - 1 vertices."""
    if G.n >= H.n:
        return TwoColoring(G.n - 1)
    return coloring_from_red(H.n - 1, itertools.combinations(range(H.n - 1), 2))


class TestChvatalHararyStart:
    """ramsey_number starts its level walk at the Chvátal–Harary bound L
    instead of at 1; each order below L has a witness, so the answer is the
    same."""

    @pytest.mark.parametrize("h", list(START_PATTERNS))
    def test_same_answer_as_walk_from_1(self, h):
        H = START_PATTERNS[h]
        for g, G in START_PATTERNS.items():
            assert ramsey_number(H, G, 8) == reference_ramsey_number(H, G, 8), (h, g)

    def test_isolated_vertices_same_as_walk_from_1(self):
        # No catalogue pattern has an isolated vertex.  These reach c(G) of a
        # pattern with a one-vertex component in `_lower_bound`, the pinned
        # placement of an isolated position, and the edgeless-pattern exits.
        # Witnesses must also exist where the search without symmetry
        # breaking, whose pinned check is brute force, finds one.
        for h, H in WITH_ISOLATED.items():
            for g, G in WITH_ISOLATED.items():
                assert ramsey_number(H, G, 6) == reference_ramsey_number(H, G, 6), (h, g)
                if "3K1" in (h, g):
                    # Every coloring of K_3 holds 3K1, and K_2 with its edge in
                    # the colour of 3K1 holds neither pattern.
                    assert ramsey_number(H, G, 6) == 3, (h, g)
                else:
                    for n in range(1, 6):
                        want = reference_find_witness(n, H, G) is None
                        assert (find_witness(n, H, G) is None) == want, (h, g, n)

    def test_published_values_same_as_walk_from_1(self):
        for H, G, r in PUBLISHED:
            for A, B in ((H, G), (G, H)):
                assert ramsey_number(A, B, r) == reference_ramsey_number(A, B, r) == r

    @pytest.mark.parametrize("H, G, visited", [
        (K3, SB_PATTERNS["K4-e"], [7]), (K3, K3, [5, 6]), (C4, complete_graph(4), [10]),
        # All blue K5 holds neither K3 nor 3K2, so the walk from 1 would
        # search [3, ..., 7].  r(4K2, 3K2) = 10 (Cockayne and Lorimer), and
        # all red K7 holds no red 4K2.
        (K3, THREE_K2, [6, 7]), (graph_from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
                                THREE_K2, [8, 9, 10]),
    ])
    def test_orders_searched(self, monkeypatch, H, G, visited):
        seen = []
        search = exact.find_witness

        def recorded(n, *patterns):
            # The degree caps search smaller pairs; only (H, G) counts here.
            if patterns == (H, G):
                seen.append(n)
            return search(n, *patterns)

        monkeypatch.setattr(exact, "find_witness", recorded)
        assert ramsey_number(H, G, 10) == visited[-1]
        assert seen == visited

    def test_answer_above_edge_cap_raises_at_k12(self):
        # r(K2, P13) = 13 = L: the walk from 1 stops at K_12, and so must the start.
        for walk in (ramsey_number, reference_ramsey_number):
            with pytest.raises(CapacityError, match="^K_12 has 66 edges"):
                walk(complete_graph(2), path_graph(13), 15)

    @pytest.mark.parametrize("h", list(START_PATTERNS))
    def test_construction_is_a_witness(self, h):
        # The check that ramsey_number leaves out at run time: the larger
        # colouring, on K_{L-1}, has no red H and no blue G, by exhaustive
        # search.
        H = START_PATTERNS[h]
        for g, G in START_PATTERNS.items():
            col = max(chvatal_harary_coloring(H, G), one_colour_coloring(H, G),
                      key=lambda col: col.n)
            assert col.n == exact._lower_bound(H, G)[0] - 1, (h, g)
            if col.n <= 9:
                assert naive_find_copy(col, "red", H) is None, (h, g)
                assert naive_find_copy(col, "blue", G) is None, (h, g)


def walked(H, G, n_cap):
    """`reference_ramsey_number` with `_lower_bound`'s exact flag off, so that
    the degree caps' sub-pairs are searched too."""
    lower_bound = exact._lower_bound
    with pytest.MonkeyPatch.context() as m:
        m.setattr(exact, "_lower_bound", lambda H, G: (lower_bound(H, G)[0], False))
        return reference_ramsey_number(H, G, n_cap)


def trees(order):
    """Every tree on `order` vertices, up to isomorphism (networkx)."""
    return [graph_from_edges(order, t.edges()) for t in nx.nonisomorphic_trees(order)]


# Pairs whose value Chvátal's formula gives: the two tree rows of PUBLISHED
# and the three of the benchmark's table.
TREE_PAIRS = {
    "K3-K1_5": (K3, star_graph(5), 11), "K4-K1_3": (complete_graph(4), star_graph(3), 10),
    "K3-K1_3": (K3, star_graph(3), 7), "K3-K1_4": (K3, star_graph(4), 9),
    "K3-P5": (K3, path_graph(5), 9),
}


# r(C_m, C_k) <= 9 by the theorem of Faudree and Schelp (Discrete Math. 8,
# 1974) and Rosta (J. Combin. Theory B 15, 1973), m <= k.
CYCLE_PAIRS = [(3, 4, 7), (3, 5, 9), (4, 5, 7), (4, 6, 7), (4, 7, 8), (4, 8, 9),
               (5, 5, 9), (6, 6, 8)]


class TestClosedForm:
    """`_lower_bound` marks r(K2, G) = max(1, |V(G)|), Chvátal's
    r(K_m, T) = (m - 1)(|T| - 1) + 1 and the cycle pairs' r(C_m, C_k)
    (Faudree and Schelp; Rosta) exact, and ramsey_number answers them
    without search when the value is at most MAX_ORDER; each value must be
    the one the search proves."""

    def test_k2_against_every_catalogue_pattern(self):
        K2 = complete_graph(2)
        catalogue = {**GRAPHS_UP_TO_3_EDGES, **PINNED_PATTERNS, **START_PATTERNS,
                     **DISCONNECTED, **WITH_ISOLATED, "K0": Graph(0)}
        for g, G in catalogue.items():
            want = max(1, G.n)
            assert exact._lower_bound(K2, G) == exact._lower_bound(G, K2) == (want, True), g
            assert ramsey_number(K2, G, 8) == ramsey_number(G, K2, 8) == want, g
            assert walked(K2, G, 8) == walked(G, K2, 8) == want, g

    @pytest.mark.parametrize("m, max_order", [(2, 9), (3, 6), (4, 4)])
    def test_cliques_against_trees(self, m, max_order):
        # Every tree with r(K_m, T) <= 11, but for m = 2 only up to 9 vertices:
        # the walk takes about 10 s on the 106 trees of order 10 and 2 min on
        # the 235 of order 11.
        K = complete_graph(m)
        for order in range(1, max_order + 1):
            want = (m - 1) * (order - 1) + 1
            for T in trees(order):
                assert exact._lower_bound(K, T) == exact._lower_bound(T, K) == (want, True), T
                assert ramsey_number(K, T, 11) == ramsey_number(T, K, 11) == want, T
                assert walked(K, T, 11) == walked(T, K, 11) == want, T

    def test_no_shortcut_off_trees(self, monkeypatch):
        # Forests, a tree plus K1, and K4 against cycles are walked.  K3+K1
        # has |V| - 1 edges but is not connected.  K3 against a cycle is a
        # cycle pair (test_cycle_pairs).
        lower_bound, results = exact._lower_bound, {}

        def recorded(H, G):
            results[H, G] = lower_bound(H, G)
            return results[H, G]

        monkeypatch.setattr(exact, "_lower_bound", recorded)
        others = {
            "2K2": DISCONNECTED["2K2"], "P3+K2": DISCONNECTED["P3+K2"],
            "3K2": THREE_K2, "K2+K1": WITH_ISOLATED["K2+K1"],
            "P3+K1": WITH_ISOLATED["P3+K1"], "K13+K1": WITH_ISOLATED["K13+K1"],
            "K3+K1": WITH_ISOLATED["K3+K1"],
        }
        cycles = {"C4": C4, "C5": cycle_graph(5)}
        for K, patterns in ((K3, others), (complete_graph(4), {**others, **cycles})):
            for g, G in patterns.items():
                for A, B in ((K, G), (G, K)):
                    results.clear()
                    assert ramsey_number(A, B, 8) == walked(A, B, 8), g
                    assert results[A, B][1] is False, g

    @pytest.mark.parametrize("m, k, r", CYCLE_PAIRS)
    def test_cycle_pairs(self, monkeypatch, m, k, r):
        search = exact.find_witness
        for A, B in ((cycle_graph(m), cycle_graph(k)), (cycle_graph(k), cycle_graph(m))):
            assert exact._lower_bound(A, B) == (r, True)

            def unsearched(n, *patterns):
                assert patterns != (A, B), f"searched K_{n}"
                return search(n, *patterns)

            with monkeypatch.context() as patched:
                patched.setattr(exact, "find_witness", unsearched)
                assert ramsey_number(A, B, 11) == r
            # ramsey_number no longer searches these; find_witness must still
            # settle both levels.
            witness = find_witness(r - 1, A, B)
            assert witness is not None and is_witness(witness, A, B)
            assert find_witness(r, A, B) is None

    def test_no_shortcut_off_cycles(self):
        # The theorem's two exceptions are walked and give 6.
        for C in (K3, C4):
            assert exact._lower_bound(C, C)[1] is False
            assert ramsey_number(C, C, 8) == walked(C, C, 8) == 6
        # Two 2-regular patterns with two components, and a cycle beside an
        # isolated vertex: not cycles.
        not_cycles = {
            "2C3": DISCONNECTED["2K3"],
            "C3+C4": graph_from_edges(7, [(0, 1), (1, 2), (0, 2),
                                          (3, 4), (4, 5), (5, 6), (3, 6)]),
            "C4+K1": graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        }
        for g, G in not_cycles.items():
            for C in (K3, C4, cycle_graph(5)):
                assert exact._lower_bound(C, G)[1] is exact._lower_bound(G, C)[1] is False, g
        # Known values above MAX_ORDER are walked and stop at K_12.
        for A, B, r in ((K3, cycle_graph(7), 13), (cycle_graph(10), cycle_graph(10), 14)):
            assert exact._lower_bound(A, B) == exact._lower_bound(B, A) == (r, True)
            assert ramsey_number(A, B, 10) is None
            with pytest.raises(CapacityError, match="^K_12 has 66 edges"):
                ramsey_number(A, B, 12)

    def test_value_above_cap(self):
        K2 = complete_graph(2)
        assert exact._lower_bound(K3, star_graph(5)) == (11, True)
        assert ramsey_number(K3, star_graph(5), 10) is None
        assert ramsey_number(star_graph(5), K3, 10) is None
        assert ramsey_number(K2, path_graph(11), 10) is None
        # Values from 12 up are walked, and the walk stops at K_12.
        assert exact._lower_bound(K2, path_graph(13)) == (13, True)
        assert exact._lower_bound(K3, path_graph(7)) == (13, True)
        assert ramsey_number(K2, path_graph(13), 11) is None
        for H, G in ((K2, path_graph(13)), (K3, path_graph(7))):
            with pytest.raises(CapacityError, match="^K_12 has 66 edges"):
                ramsey_number(H, G, 12)

    @pytest.mark.parametrize("pair", list(TREE_PAIRS))
    def test_dfs_still_proves_tree_values(self, pair):
        # ramsey_number no longer searches these; find_witness must still
        # settle both levels.
        H, G, r = TREE_PAIRS[pair]
        for A, B in ((H, G), (G, H)):
            witness = find_witness(r - 1, A, B)
            assert witness is not None and is_witness(witness, A, B)
            assert find_witness(r, A, B) is None
