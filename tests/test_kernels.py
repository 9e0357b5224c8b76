"""The two shared search kernels, `detect._cliques` and `detect._place`:
independent oracles (itertools, networkx, brute-force pinned copies), the
placed-prefix start against pinning by masks, depth far beyond the recursion
limit, and pinned node-budget thresholds.
"""
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from conftest import (
    GRAPHS_UP_TO_3_EDGES,
    PINNED_PATTERNS,
    naive_has_pinned_copy,
    random_coloring_local,
)
from ramseykit import exact
from ramseykit.detect import _cliques, _pattern_plan, _place, find_clique, find_copy
from ramseykit.errors import SearchBudgetExceeded
from ramseykit.graphs import (
    Graph,
    TwoColoring,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

# Patterns with nontrivial arc orbits, and one with none (every arc its own
# orbit: vertex 0 is the only leaf, which fixes every vertex).
ORBIT_PATTERNS = {
    "C4": cycle_graph(4),
    "C5": cycle_graph(5),
    "P5": path_graph(5),
    "K13": star_graph(3),
    "K14": star_graph(4),
    "paw": Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "K4-e": Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "K23": Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),
    "asym6": Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (4, 5), (1, 5)]),
}


def random_pattern(rng, max_vertices):
    v = rng.randint(1, max_vertices)
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
    return Graph(v, [p for p in pairs if rng.random() < 0.5])


def color_graph(col, color):
    host = nx.Graph()
    host.add_nodes_from(range(col.n))
    want_red = color == "red"
    host.add_edges_from(
        (u, v) for u in range(col.n) for v in range(u + 1, col.n)
        if col.is_red(u, v) == want_red
    )
    return host


class TestCliqueEnumerator:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(0, 9),
        edge_bits=st.integers(0, 2**36 - 1),
        cand_bits=st.integers(0, 2**9 - 1),
        s=st.integers(0, 5),
    )
    def test_matches_itertools_in_order(self, n, edge_bits, cand_bits, s):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = {p for i, p in enumerate(pairs) if (edge_bits >> i) & 1}
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        cand = cand_bits & ((1 << n) - 1)
        inside = [v for v in range(n) if (cand >> v) & 1]
        want = [
            c for c in itertools.combinations(inside, s)
            if all(p in edges for p in itertools.combinations(c, 2))
        ]
        assert list(_cliques(adj, cand, s)) == want

    def test_depth_beyond_recursion_limit(self):
        n = 1500
        full = (1 << n) - 1
        adj = [full ^ (1 << v) for v in range(n)]
        assert next(_cliques(adj, full, n)) == tuple(range(n))


class TestPlacementOracles:
    def test_find_copy_matches_networkx(self):
        rng = random.Random(2024)
        for _ in range(150):
            col = random_coloring_local(rng, rng.randint(3, 8), rng.random())
            g = random_pattern(rng, 5)
            for color in ("red", "blue"):
                emb = find_copy(col, color, g)
                pattern = nx.Graph()
                pattern.add_nodes_from(range(g.n))
                pattern.add_edges_from(g.edges)
                want = GraphMatcher(color_graph(col, color), pattern).subgraph_is_monomorphic()
                assert (emb is not None) == want
                assert emb is None or emb.validates(col, color)

    def test_reused_pattern_matches_networkx(self):
        # find_copy plans a pattern once per Graph; one Graph object, and an
        # equal but distinct one, must keep matching networkx on every host.
        for name, g in ORBIT_PATTERNS.items():
            twin = Graph(g.n, sorted(g.edges))
            assert twin == g and twin is not g
            pattern = nx.Graph()
            pattern.add_nodes_from(range(g.n))
            pattern.add_edges_from(g.edges)
            rng = random.Random(name)
            for _ in range(8):
                col = random_coloring_local(rng, rng.randint(3, 9), rng.random())
                for color in ("red", "blue"):
                    want = GraphMatcher(color_graph(col, color), pattern).subgraph_is_monomorphic()
                    emb, twin_emb = find_copy(col, color, g), find_copy(col, color, twin)
                    assert (emb is not None) == want, (name, col.red, color)
                    assert (twin_emb is not None) == want
                    if want:
                        assert emb.validates(col, color) and twin_emb.validates(col, color)
                        assert emb.assignment == twin_emb.assignment

    def test_pinned_copy_matches_brute_force(self):
        patterns = dict(GRAPHS_UP_TO_3_EDGES)
        patterns.update(ORBIT_PATTERNS)
        patterns["K4"] = complete_graph(4)
        patterns["K5"] = complete_graph(5)
        rng = random.Random(7)
        for _ in range(12):
            col = random_coloring_local(rng, rng.randint(4, 7), rng.uniform(0.3, 0.8))
            adj = col.red_adjacency_bits()
            for name, g in patterns.items():
                has_copy = exact._pinned_check(g, col.n)
                for u, v in sorted(col.red):
                    got = has_copy(adj, u, v)
                    assert got == naive_has_pinned_copy(col, "red", g, u, v), (name, u, v)

    @pytest.mark.parametrize("name, count", [
        ("C4", 1), ("C5", 1), ("P5", 4), ("K13", 2), ("K14", 2), ("paw", 5),
        ("K4-e", 3), ("K23", 2), ("asym6", 14),
    ])
    def test_one_placement_per_arc_orbit(self, name, count):
        g = ORBIT_PATTERNS[name]
        autos = [
            p for p in itertools.permutations(range(g.n))
            if all(tuple(sorted((p[a], p[b]))) in g.edges for a, b in g.edges)
        ]
        arcs = [*g.edges, *((b, a) for a, b in g.edges)]
        orbits = {frozenset((p[a], p[b]) for p in autos) for a, b in arcs}
        assert len(exact._arc_orbit_plans(g)) == len(orbits) == count

    def test_pattern_larger_than_host_has_no_arcs(self, monkeypatch):
        place = exact._place

        def small_hosts_only(adj, *args):
            # Hosts are K_9 and the patterns themselves; K3 fits, C2000 must not
            # be placed on itself.
            assert len(adj) <= 9, "a pattern that does not fit in K_n needs no placement"
            return place(adj, *args)

        want = exact.find_witness(9, complete_graph(3), cycle_graph(10))
        monkeypatch.setattr(exact, "_place", small_hosts_only)
        big = cycle_graph(2000)
        # No plan is built, and even K_9 itself holds no copy.
        assert exact._pinned_check(big, 9)(complete_graph(9).adjacency_bits(), 0, 1) is False
        assert exact.find_witness(9, complete_graph(3), big) == want
        assert want is not None

    def test_every_position_after_the_head_has_a_placed_neighbor(self):
        # Adjacency to the placed vertices comes before degree, so no position
        # of a connected pattern's plan may go to any unused host vertex.  In
        # this tree vertex 3 has the highest degree but is two steps from the
        # arcs (0, 1) and (1, 0): by degree alone it came before vertex 2.
        tree = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6)])
        patterns = {**GRAPHS_UP_TO_3_EDGES, **PINNED_PATTERNS, **ORBIT_PATTERNS, "tree": tree}
        for name, g in patterns.items():
            if len(g.components()) > 1:
                continue
            for nbrs in [_pattern_plan(g)[2], *exact._arc_orbit_plans(g)]:
                assert all(nbrs[1:]), (name, nbrs)

    def test_find_witness_does_not_call_find_copy(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("find_witness must use the placement kernel directly")

        monkeypatch.setattr(exact, "find_copy", forbidden)
        assert exact.find_witness(5, complete_graph(3), cycle_graph(4)) is not None
        assert exact.find_witness(6, complete_graph(3), complete_graph(3)) is None


def pinned_plans(g):
    """The placement orders `_pinned_check` starts at a pinned edge: one per
    arc orbit, or for a complete pattern, which it checks with a clique
    search instead, the one order 0, 1, ..., t-1."""
    if exact._is_complete(g):
        return [[list(range(i)) for i in range(g.n)]]
    return exact._arc_orbit_plans(g)


class TestPlacedPrefix:
    def test_prefix_matches_pinned_masks(self):
        # Starting from the placed prefix [u, v] finds the same image as
        # pinning positions 0 and 1 to u and v by their masks, and leaves the
        # prefix as it was when there is none.
        rng = random.Random(13)
        outcomes = set()
        for _ in range(200):
            n = rng.randint(2, 9)
            adj = random_coloring_local(rng, n, rng.random()).red_adjacency_bits()
            arcs = [(u, v) for u in range(n) for v in range(n) if adj[u] >> v & 1]
            for name, g in PINNED_PATTERNS.items():
                masks = [(1 << n) - 1] * g.n
                for nbrs in pinned_plans(g):
                    for u, v in arcs:
                        want = _place(adj, [1 << u, 1 << v, *masks[2:]], nbrs)
                        prefix = [u, v]
                        got = _place(adj, masks, nbrs, None, prefix)
                        assert got == want, (name, n, u, v)
                        assert (got is prefix) if want else (prefix == [u, v])
                        outcomes.add(want is None)
        assert outcomes == {False, True}

    def test_complete_prefix_is_the_image(self):
        assert _place([0b10, 0b01], [0b11, 0b11], [[], [0]], None, [0, 1]) == [0, 1]
        assert _place([], [], [], None, []) == []

    def test_triangle_check_needs_no_clique_search(self, monkeypatch):
        # K3 is one AND of two rows: it never reaches the clique search.
        monkeypatch.setattr(exact, "_cliques", None)
        k3 = complete_graph(3)
        rng = random.Random(3)
        outcomes = set()
        for _ in range(40):
            col = random_coloring_local(rng, rng.randint(2, 7), rng.uniform(0.4, 0.9))
            adj = col.red_adjacency_bits()
            has_copy = exact._pinned_check(k3, col.n)
            for u, v in sorted(col.red):
                got = has_copy(adj, u, v)
                assert got == naive_has_pinned_copy(col, "red", k3, u, v), (col.red, u, v)
                outcomes.add(got)
        assert outcomes == {False, True}


class TestDeepPlacement:
    def test_blue_path_on_1200_vertices(self):
        col = TwoColoring(1200)
        emb = find_copy(col, "blue", path_graph(1200))
        assert emb is not None and emb.validates(col, "blue")


def _budget_instance():
    rng = random.Random(3)
    n = 14
    return TwoColoring(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    )


class TestNodeBudgetThresholds:
    """Smallest passing node budget for fixed searches; one tick per prefix."""

    @pytest.mark.parametrize("search, need", [
        (lambda b: find_clique(TwoColoring(12, complete_graph(12).edges), "red", 12,
                               node_budget=b), 13),
        (lambda b: find_clique(_budget_instance(), "red", 4, node_budget=b), 6),
        (lambda b: find_copy(_budget_instance(), "blue", cycle_graph(6), node_budget=b), 7),
        (lambda b: find_copy(_budget_instance(), "blue", path_graph(9), node_budget=b), 10),
    ], ids=["red-K12", "red-K4", "blue-C6", "blue-P9"])
    def test_smallest_budget(self, search, need):
        assert search(need) is not None
        with pytest.raises(SearchBudgetExceeded):
            search(need - 1)
