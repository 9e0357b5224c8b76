import random

import pytest

from conftest import random_bipartite_red_coloring, random_connected_graph
from ramseykit import embed
from ramseykit.detect import find_copy
from ramseykit.embed import embed_general, embed_s3
from ramseykit.errors import ContractViolation, EmbedFailure, InputError
from ramseykit.graphs import (
    Graph,
    TwoColoring,
    coloring_from_red,
    complete_graph,
    graph_from_edges,
    path_graph,
)


class TestEmbedS3:
    def test_all_blue_host(self):
        g = path_graph(5)  # m = 4
        col = TwoColoring(12)
        emb = embed_s3(col, g)
        assert emb.validates(col, "blue")

    def test_red_star_host(self):
        # Red star K_{1,5} inside K_12 is triangle-free; P_5 has m = 4, 3m = 12.
        col = coloring_from_red(12, [(0, i) for i in range(1, 6)])
        emb = embed_s3(col, path_graph(5))
        assert emb.validates(col, "blue")
        # Independent confirmation that a blue copy is there at all.
        assert find_copy(col, "blue", path_graph(5)) is not None

    def test_disconnected_target(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])  # two disjoint edges
        col = TwoColoring(6)
        emb = embed_s3(col, g)
        assert emb.validates(col, "blue")
        assert len(set(emb.assignment.values())) == 4

    def test_whole_graph_passes_once_per_call(self, monkeypatch):
        # Each pass over all of G or of the coloring runs a fixed number of
        # times per call, not once per component, which would make the
        # embedding quadratic: 50 disjoint edges cost as many passes as one.
        calls = []
        passes = [(Graph, "adjacency_bits"), (Graph, "degrees"), (Graph, "components"),
                  (TwoColoring, "red_adjacency_bits"), (TwoColoring, "blue_adjacency_bits")]
        for cls, name in passes:
            method = getattr(cls, name)

            def counting(self, method=method, name=name):
                calls.append(name)
                return method(self)

            monkeypatch.setattr(cls, name, counting)
        counts = []
        for c in (1, 50):
            calls.clear()
            g = graph_from_edges(2 * c, [(2 * i, 2 * i + 1) for i in range(c)])
            col = TwoColoring(3 * c)
            assert embed_s3(col, g).validates(col, "blue")
            counts.append(sorted(calls))
        assert counts[0] == counts[1] and {"adjacency_bits", "components"} <= set(counts[0])

    def test_rejects_red_triangle(self):
        col = coloring_from_red(6, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(InputError, match="triangle"):
            embed_s3(col, path_graph(2))

    def test_red_pair_in_x_breaks_the_contract(self, monkeypatch):
        # With the triangle check blinded, vertex 0 of the red triangle has
        # X = {1, 2}, whose pair is red: the precondition the block argument
        # needs is gone, so the embedder must stop rather than place.
        monkeypatch.setattr(embed, "find_clique", lambda col, color, s: None)
        col = coloring_from_red(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(ContractViolation, match="red pair inside the red neighborhood X"):
            embed_s3(col, complete_graph(2))

    def test_rejects_small_host(self):
        with pytest.raises(InputError, match="host"):
            embed_s3(TwoColoring(5), path_graph(3))

    def test_rejects_isolated_vertices(self):
        g = graph_from_edges(3, [(0, 1)])
        with pytest.raises(InputError, match="isolated"):
            embed_s3(TwoColoring(9), g)

    def test_randomized_sweep(self):
        rng = random.Random(2024)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(1, 15))
            col = random_bipartite_red_coloring(rng, 3 * g.edge_count, rng.random())
            emb = embed_s3(col, g)
            assert emb.validates(col, "blue")

    def test_dense_red_bipartite(self):
        # Full bipartite red graph: max red degree equals half the host.
        rng = random.Random(5)
        g = random_connected_graph(rng, 8)
        col = random_bipartite_red_coloring(rng, 24, 1.0)
        emb = embed_s3(col, g)
        assert emb.validates(col, "blue")


class TestEmbedGeneral:
    def test_s3_delegates(self):
        col = TwoColoring(6)
        emb = embed_general(col, path_graph(3), 3)
        assert emb.validates(col, "blue")

    def test_one_red_clique_search_per_call(self, monkeypatch):
        # s = 3 goes straight to embed_s3, whose own check is the only one.
        searched = []
        find_clique = embed.find_clique

        def counting(col, color, s, *args):
            if color == "red":
                searched.append(s)
            return find_clique(col, color, s, *args)

        monkeypatch.setattr(embed, "find_clique", counting)
        embed_general(TwoColoring(6), path_graph(3), 3)
        assert searched == [3]
        # The descent from s = 4 makes one embed_general(..., 3) call.
        searched.clear()
        embed_general(coloring_from_red(10, [(0, i) for i in range(1, 10)]), path_graph(4), 4)
        assert searched == [4, 3]

    def test_all_blue_s4(self):
        g = path_graph(6)
        col = TwoColoring(10)
        emb = embed_general(col, g, 4)
        assert emb.validates(col, "blue")
        assert embed_general(col, Graph(0), 4).assignment == {}

    def test_descent_threshold_past_the_float_range(self):
        # d = m^((s-2)/2) / (ln m)^((s-4)/2) overflows a float for m = 20 at
        # s = 500, and divides by ln 1 = 0 for m = 1 at s = 5; d is then
        # larger than any red degree, so there is no descent, as at s = 200
        # and s = 4.
        col = TwoColoring(70)
        want = embed_general(col, path_graph(21), 200).assignment
        assert embed_general(col, path_graph(21), 500).assignment == want
        assert embed_general(col, path_graph(2), 5).assignment == {0: 0, 1: 1}

    def test_recursion_on_high_red_degree(self):
        # One vertex of red degree 9 over an internally red-empty (hence
        # triangle-free) neighborhood: with d = m = 3 the descent fires and
        # lands in the s = 3 routine on the 9-vertex neighborhood.
        col = coloring_from_red(10, [(0, i) for i in range(1, 10)])
        g = path_graph(4)  # m = 3
        emb = embed_general(col, g, 4)
        assert emb.validates(col, "blue")
        assert all(host != 0 for host in emb.assignment.values())

    def test_rejects_red_ks(self):
        col = coloring_from_red(6, complete_graph(4).edges)
        with pytest.raises(InputError, match="red clique"):
            embed_general(col, path_graph(2), 4)

    def test_failure_when_host_tiny(self):
        col = coloring_from_red(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        with pytest.raises(EmbedFailure):
            embed_general(col, complete_graph(5), 4)
        with pytest.raises(EmbedFailure, match="more vertices than the host"):
            embed_general(TwoColoring(8), complete_graph(9), 4)
        # Vertex 0's one red neighbour is too few to descend into.
        with pytest.raises(EmbedFailure, match="red-neighborhood descent failed: "):
            embed_general(coloring_from_red(3, [(0, 1)]), complete_graph(2), 4)
        # Blue 0-2-1 is a P3, but the greedy placement runs out of hosts first.
        with pytest.raises(EmbedFailure, match="greedy placement ran out of feasible host vertices"):
            embed_general(coloring_from_red(3, [(0, 1)]), path_graph(3), 4)

    def test_failure_when_no_blue_clique(self):
        # K_6 minus a perfect red matching has blue clique number 3; a target
        # with m = 16 edges asks for a blue 6-clique, which cannot exist.
        col = coloring_from_red(6, [(0, 1), (2, 3), (4, 5)])
        g = complete_graph(6)  # wants more vertices than blue cliques give
        with pytest.raises(EmbedFailure, match="blue"):
            embed_general(col, g, 4)
        # P12 asks for a blue 5-clique, which one node cannot decide.
        with pytest.raises(EmbedFailure, match="within budget"):
            embed_general(TwoColoring(30), path_graph(12), 4, node_budget=1)

