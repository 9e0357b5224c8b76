import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_colorings,
    naive_find_copy,
    naive_has_clique,
    naive_max_packing_size,
    random_coloring_local,
    reference_greedy_packing,
    reference_max_packing,
)
from ramseykit import detect
from ramseykit.construct import recolor_packing
from ramseykit.detect import (
    EmbeddingMap,
    _exact_packing,
    find_clique,
    find_copy,
    max_edge_disjoint_packing,
)
from ramseykit.errors import CapacityError, InputError, SearchBudgetExceeded
from ramseykit.graphs import (
    Graph,
    TwoColoring,
    complete_graph,
    path_graph,
)

ALL_RED_K5 = TwoColoring(5, complete_graph(5).edges)
RED_C5 = TwoColoring(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


class TestFindClique:
    def test_all_red_k5(self):
        assert find_clique(ALL_RED_K5, "red", 3) == (0, 1, 2)

    def test_c5_has_no_red_triangle(self):
        assert find_clique(RED_C5, "red", 3) is None
        assert not naive_has_clique(RED_C5, "red", 3)

    def test_s1(self):
        assert find_clique(RED_C5, "red", 1) == (0,)
        assert find_clique(RED_C5, "blue", 1) == (0,)

    def test_s_larger_than_n(self):
        assert find_clique(ALL_RED_K5, "red", 6) is None
        # The root is the one node visited: five vertices cannot hold six.
        assert find_clique(ALL_RED_K5, "red", 6, node_budget=1) is None

    def test_invalid_s(self):
        with pytest.raises(InputError):
            find_clique(ALL_RED_K5, "red", 0)

    def test_matches_oracle_exhaustively(self):
        for col in all_colorings(4):
            for color in ("red", "blue"):
                for s in (2, 3, 4):
                    got = find_clique(col, color, s)
                    assert (got is not None) == naive_has_clique(col, color, s)

    def test_budget_exhaustion(self):
        with pytest.raises(SearchBudgetExceeded):
            find_clique(TwoColoring(12, complete_graph(12).edges), "red", 12,
                        node_budget=3)


class TestFindCopy:
    def test_single_edge(self):
        col = TwoColoring(3, [(0, 1)])
        emb = find_copy(col, "blue", complete_graph(2))
        assert emb is not None and emb.validates(col, "blue")

    def test_no_blue_triangle_in_c5(self):
        # The blue graph is the complement of C_5, itself a 5-cycle.
        assert find_copy(RED_C5, "blue", complete_graph(3)) is None
        assert naive_find_copy(RED_C5, "blue", complete_graph(3)) is None

    def test_path_in_all_blue_k4(self):
        col = TwoColoring(4)
        emb = find_copy(col, "blue", path_graph(4))
        assert emb is not None and emb.validates(col, "blue")
        again = find_copy(col, "blue", path_graph(4))
        assert again.assignment == emb.assignment

    def test_too_many_vertices(self):
        assert find_copy(TwoColoring(4), "blue", complete_graph(10)) is None

    def test_rejects_unknown_color(self):
        with pytest.raises(InputError, match="color must be"):
            find_copy(TwoColoring(4), "green", complete_graph(2))
        # A pattern larger than the host is no reason to accept the color.
        with pytest.raises(InputError, match="color must be"):
            find_copy(TwoColoring(4), "green", complete_graph(5))
        for order in (2, 5):
            with pytest.raises(InputError, match="color must be"):
                find_clique(TwoColoring(3), "green", order)

    def test_isolated_vertices_map_anywhere(self):
        g = Graph(3, [(0, 1)])  # vertex 2 isolated
        col = TwoColoring(4, [(0, 1)])
        emb = find_copy(col, "red", g)
        assert emb is not None and emb.validates(col, "red")

    def test_matches_naive_enumeration(self):
        rng = random.Random(13)
        patterns = [
            complete_graph(3),
            path_graph(4),
            Graph(4, [(0, 1), (2, 3)]),
            Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)]),
            complete_graph(4),
        ]
        for trial in range(40):
            n = rng.randint(3, 6)
            col = random_coloring_local(rng, n, rng.random())
            g = patterns[trial % len(patterns)]
            for color in ("red", "blue"):
                got = find_copy(col, color, g)
                naive = naive_find_copy(col, color, g)
                assert (got is not None) == (naive is not None)
                if got is not None:
                    assert got.validates(col, color)

    def test_agrees_with_find_clique(self):
        for col in all_colorings(4):
            for color in ("red", "blue"):
                for s in (2, 3, 4):
                    a = find_clique(col, color, s) is None
                    b = find_copy(col, color, complete_graph(s)) is None
                    assert a == b
        for col in all_colorings(5):
            a = find_clique(col, "red", 3) is None
            b = find_copy(col, "red", complete_graph(3)) is None
            assert a == b

    def test_budget_exhaustion(self):
        col = TwoColoring(8)
        with pytest.raises(SearchBudgetExceeded):
            find_copy(col, "blue", complete_graph(8), node_budget=2)

    def test_unbudgeted_search_counts_nothing(self, monkeypatch):
        def unreachable(budget):
            raise AssertionError("a search without a budget built a node counter")

        monkeypatch.setattr(detect, "_NodeCounter", unreachable)
        assert find_copy(TwoColoring(8), "blue", complete_graph(8)) is not None
        assert find_copy(RED_C5, "blue", complete_graph(3)) is None

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_1_rejected(self, budget):
        with pytest.raises(InputError):
            find_copy(TwoColoring(4), "blue", complete_graph(2), node_budget=budget)
        with pytest.raises(InputError):
            find_clique(TwoColoring(4), "blue", 2, node_budget=budget)


class TestPacking:
    def test_all_red_k4(self):
        packing = max_edge_disjoint_packing(TwoColoring(4, complete_graph(4).edges), 3)
        assert packing.size == 1
        # Any two triangles of K_4 share an edge: exhaustive over pairs.
        triangles = list(itertools.combinations(range(4), 3))
        for a, b in itertools.combinations(triangles, 2):
            assert len(set(a) & set(b)) >= 2

    def test_all_red_k5_exact(self):
        packing = max_edge_disjoint_packing(ALL_RED_K5, 3, "exact")
        assert packing.size == 2 == naive_max_packing_size(ALL_RED_K5, 3)

    def test_all_blue(self):
        assert max_edge_disjoint_packing(TwoColoring(6), 3).size == 0

    def test_members_are_red_and_disjoint(self):
        rng = random.Random(17)
        for _ in range(20):
            col = random_coloring_local(rng, rng.randint(4, 9), rng.random())
            packing = max_edge_disjoint_packing(col, 3)
            seen_pairs = set()
            for member in packing.members:
                for u, v in itertools.combinations(member, 2):
                    assert col.is_red(u, v)
                    assert (u, v) not in seen_pairs
                    seen_pairs.add((u, v))

    def test_greedy_is_maximal(self):
        rng = random.Random(19)
        for _ in range(20):
            col = random_coloring_local(rng, rng.randint(4, 9), rng.random())
            packing = max_edge_disjoint_packing(col, 3)
            covered = {pair for member in packing.members
                       for pair in itertools.combinations(member, 2)}
            for combo in itertools.combinations(range(col.n), 3):
                pairs = list(itertools.combinations(combo, 2))
                if all(col.is_red(u, v) for u, v in pairs):
                    assert any(p in covered for p in pairs), (
                        "greedy packing missed an addable red triangle"
                    )

    def test_exact_at_least_greedy(self):
        rng = random.Random(23)
        for _ in range(25):
            col = random_coloring_local(rng, rng.randint(4, 8), rng.uniform(0.15, 0.6))
            greedy = max_edge_disjoint_packing(col, 3).size
            exact = max_edge_disjoint_packing(col, 3, "exact").size
            assert exact >= greedy
            red_triangles = sum(
                1 for combo in itertools.combinations(range(col.n), 3)
                if all(col.is_red(u, v) for u, v in itertools.combinations(combo, 2))
            )
            if red_triangles <= 16:  # keep the 2^count oracle tractable
                assert exact == naive_max_packing_size(col, 3)

    def test_exact_members_match_reference(self):
        # The root exits, the greedy start and the stop at the goal change no
        # member: the search returns the first maximum packing of the plain
        # include-before-exclude search.
        rng = random.Random(29)
        cols = [TwoColoring(n, complete_graph(n).edges) for n in range(1, 8)]
        cols += [random_coloring_local(rng, rng.randint(1, 8), rng.uniform(0.2, 0.9))
                 for _ in range(60)]
        for col in cols:
            for s in (3, 4):
                want = reference_max_packing(col, s)
                assert list(max_edge_disjoint_packing(col, s, "exact").members) == want, (
                    col.n, sorted(col.red), s)

    def test_exact_cap(self):
        with pytest.raises(CapacityError, match="exact packing capped at n <= 12"):
            max_edge_disjoint_packing(TwoColoring(13), 3, "exact")

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            max_edge_disjoint_packing(TwoColoring(4), 1)
        with pytest.raises(InputError):
            max_edge_disjoint_packing(TwoColoring(4), 3, "fast")


def is_red_packing(col, s, members):
    """Every member is a red s-clique and no pair is covered twice."""
    seen = set()
    for member in members:
        if len(set(member)) != s:
            return False
        for pair in itertools.combinations(sorted(member), 2):
            if not col.is_red(*pair) or pair in seen:
                return False
            seen.add(pair)
    return True


class TestGreedyPacking:
    """The greedy search on the uncovered red graph against the greedy by
    definition (`conftest.reference_greedy_packing`)."""

    # Largest n per s keeps the reference's C(n, s) subsets in the 10^5 range.
    @pytest.mark.parametrize("s, max_n", [(2, 40), (3, 40), (4, 40), (5, 26)])
    def test_matches_reference_on_seeded_colorings(self, s, max_n):
        rng = random.Random(100 + s)
        for _ in range(12):
            p = 1.0 if rng.random() < 0.25 else rng.uniform(0.1, 0.9)
            col = random_coloring_local(rng, rng.randint(s, max_n), p)
            got = max_edge_disjoint_packing(col, s).members
            assert list(got) == reference_greedy_packing(col, s), (col.n, sorted(col.red))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(1, 10),
        edge_bits=st.integers(0, 2**45 - 1),
        s=st.integers(2, 5),
    )
    def test_greedy_properties(self, n, edge_bits, s):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        col = TwoColoring(n, [p for i, p in enumerate(pairs) if (edge_bits >> i) & 1])
        members = max_edge_disjoint_packing(col, s).members
        assert list(members) == reference_greedy_packing(col, s)
        assert is_red_packing(col, s, members)
        covered = {pair for m in members for pair in itertools.combinations(m, 2)}
        for combo in itertools.combinations(range(n), s):
            clique_pairs = list(itertools.combinations(combo, 2))
            if all(col.is_red(u, v) for u, v in clique_pairs):
                assert covered.intersection(clique_pairs), f"{combo} could still join"
        if s >= 3:
            residual, packing = recolor_packing(col, s)
            assert packing.members == members
            assert residual.red == col.red - covered
            assert not naive_has_clique(residual, "red", s)


def reaches_target(col, s, k):
    """Whether exact packing at target k, as each Erdős–Tetali sample asks,
    finds k members."""
    return len(_exact_packing(col, s, k)) == k


class TestPackingDecision:
    """Exact packing at target k decides X0 >= k, X0 the maximum packing size."""

    def test_matches_naive_maximum_on_seeded_colorings(self):
        rng = random.Random(41)
        for _ in range(60):
            col = random_coloring_local(rng, rng.randint(1, 8), rng.uniform(0.2, 0.9))
            for s in (3, 4):
                x0 = naive_max_packing_size(col, s)
                for k in range(1, 6):
                    assert reaches_target(col, s, k) == (x0 >= k), (col.red, s, k)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(1, 7),
        edge_bits=st.integers(0, 2**21 - 1),
        s=st.sampled_from([3, 4]),
        k=st.integers(1, 5),
    )
    def test_matches_naive_maximum(self, n, edge_bits, s, k):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        col = TwoColoring(n, [p for i, p in enumerate(pairs) if (edge_bits >> i) & 1])
        assert reaches_target(col, s, k) == (naive_max_packing_size(col, s) >= k)

    @pytest.mark.parametrize("n, red, s, k, want", [
        # Exactly k * C(s,2) red pairs, and cap = k: the exit must not fire.
        (6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)], 3, 2, True),
        (4, complete_graph(4).edges, 4, 1, True),
        # Enough pairs, but every two triangles of K_4 share an edge.
        (4, complete_graph(4).edges, 3, 2, False),
        # Greedy stops at 2 members (012, 235); 013, 124, 235 fit.
        (6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (1, 4), (2, 4), (2, 3), (2, 5),
             (3, 5)], 3, 3, True),
    ])
    def test_boundary_instances(self, n, red, s, k, want):
        col = TwoColoring(n, red)
        assert (naive_max_packing_size(col, s) >= k) == want
        assert reaches_target(col, s, k) == want

    # Schönheim maxima of triangle packings of K_n: 7, 8 and 12 for n = 7, 8
    # and 9.  At K_7 k=7, K_8 k=8 and K_9 k=12 the vertex bound
    # sum floor(deg/(s-1)) equals k * s exactly, so the exit must not fire.
    # K_12 k=21 runs through the CLI in a subprocess with a timeout
    # (test_cli), so that a search that no longer stops fails the suite
    # instead of hanging it.
    @pytest.mark.parametrize("n, k, want", [
        (7, 7, True), (8, 8, True), (8, 9, False), (9, 12, True), (9, 13, False),
    ])
    def test_all_red_vertex_bound(self, n, k, want):
        col = TwoColoring(n, complete_graph(n).edges)
        assert reaches_target(col, 3, k) is want

    def test_target_search_stops_at_k(self):
        rng = random.Random(43)
        for _ in range(40):
            col = random_coloring_local(rng, rng.randint(4, 8), rng.uniform(0.3, 0.9))
            x0 = naive_max_packing_size(col, 3)
            assert len(_exact_packing(col, 3)) == x0
            for k in range(1, x0 + 3):
                members = _exact_packing(col, 3, k)
                assert is_red_packing(col, 3, members)
                assert len(members) == k if k <= x0 else len(members) < k

    @pytest.mark.parametrize("col, s, targets", [
        # The greedy packing of all-red K_7 is the Fano packing, 7 = cap.
        (TwoColoring(7, complete_graph(7).edges), 3, (None, *range(1, 8))),
        (random_coloring_local(random.Random(47), 12, 0.9), 3, (3,)),
    ], ids=["all-red-K7", "dense-K12"])
    def test_greedy_prefix_lists_no_clique(self, monkeypatch, col, s, targets):
        # A greedy prefix that reaches the goal is returned before the clique
        # list the branch and bound needs is built.
        def no_listing(*args):
            raise AssertionError("cliques listed although the greedy prefix reached the goal")

        monkeypatch.setattr(detect, "_cliques", no_listing)
        greedy = reference_greedy_packing(col, s)
        for k in targets:
            assert _exact_packing(col, s, k) == greedy[:k]

    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_vertex_bound_covers_the_pair_count(self, s):
        # sum floor(deg/(s-1)) <= 2R/(s-1) for R red pairs, so the per-vertex
        # bound never exceeds R // C(s,2): no target above that is reached.
        rng = random.Random(53 + s)
        cols = [TwoColoring(n, complete_graph(n).edges) for n in range(13)]
        cols += [random_coloring_local(rng, rng.randint(0, 12), rng.random())
                 for _ in range(60)]
        for col in cols:
            cap = sum(row.bit_count() // (s - 1) for row in col.red_adjacency_bits()) // s
            most = col.red_count // math.comb(s, 2)
            assert cap <= most, (col.n, sorted(col.red), s)
            for k in range(most + 1, most + 4):
                assert _exact_packing(col, s, k) == [], (col.n, sorted(col.red), s, k)

    def test_invalid_inputs(self):
        with pytest.raises(CapacityError, match="exact packing capped at n <= 12"):
            _exact_packing(TwoColoring(13), 3, 1)


class TestEmbeddingMap:
    def test_rejects_non_injective(self):
        col = TwoColoring(4)
        emb = EmbeddingMap(path_graph(3), {0: 1, 1: 2, 2: 2})
        assert not emb.validates(col, "blue")

    def test_rejects_wrong_color(self):
        col = TwoColoring(3, [(0, 1)])
        emb = EmbeddingMap(complete_graph(2), {0: 0, 1: 1})
        assert not emb.validates(col, "blue")
        assert emb.validates(col, "red")
        # Any colour but red used to count as blue.
        with pytest.raises(InputError, match="color must be 'red' or 'blue'"):
            emb.validates(TwoColoring(3), "green")

    def test_rejects_incomplete(self):
        emb = EmbeddingMap(path_graph(3), {0: 0, 1: 1})
        assert not emb.validates(TwoColoring(4), "blue")
        # K2+K1 with three keys: the edge {0, 1} is blue, but vertex 2 is unmapped.
        k2_k1 = Graph(3, [(0, 1)])
        assert EmbeddingMap(k2_k1, {0: 0, 1: 1, 2: 2}).validates(TwoColoring(4), "blue")
        assert not EmbeddingMap(k2_k1, {0: 0, 1: 1, 7: 2}).validates(TwoColoring(4), "blue")
        # Vertex 2 mapped outside the host.
        assert not EmbeddingMap(k2_k1, {0: 0, 1: 1, 2: 4}).validates(TwoColoring(4), "blue")
