import random
from collections import Counter

import pytest

from conftest import random_bipartite_red_coloring, random_connected_graph
from ramseykit import embed
from ramseykit.detect import EmbeddingMap, find_copy
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


@pytest.fixture
def passes(monkeypatch):
    """Counts of the calls, by method name, that pass over all of a graph or
    a coloring; the counting starts when the fixture is set up."""
    counts = Counter()
    for cls, name in [(Graph, "adjacency_bits"), (Graph, "degrees"), (Graph, "components"),
                      (TwoColoring, "red_adjacency_bits"),
                      (TwoColoring, "blue_adjacency_bits")]:
        method = getattr(cls, name)

        def counting(self, method=method, name=name):
            counts[name] += 1
            return method(self)

        monkeypatch.setattr(cls, name, counting)
    return counts


class TestHub:
    # The vertex with the most red neighbours inside the mask, ties to the
    # smallest id: over the full mask it is the maximum red degree of K_n.
    def test_all_blue(self):
        assert embed._hub(TwoColoring(5).red_adjacency_bits(), 0b11111) == (0, 0)

    def test_red_star(self):
        col = coloring_from_red(4, [(0, 2), (1, 2), (2, 3)])
        assert embed._hub(col.red_adjacency_bits(), 0b1111) == (2, 3)

    def test_tie_break(self):
        col = coloring_from_red(4, [(0, 1), (2, 3)])
        assert embed._hub(col.red_adjacency_bits(), 0b1111) == (0, 1)

    def test_block_mask(self):
        # Vertex 0's red star lies outside the block {3, 4, 5, 6}, where the
        # red path 3-4-5-6 gives 4 the most red neighbours.
        col = coloring_from_red(7, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4), (4, 5), (5, 6)])
        red = col.red_adjacency_bits()
        assert embed._hub(red, 0b1111111) == (0, 4)
        assert embed._hub(red, 0b1111000) == (4, 2)


class TestGreedyPlace:
    def test_availability_bound(self):
        # G = K2 with vertex 0 parked on host 0.  Host 0's red edge to 1
        # leaves 2 of the 3 hosts feasible for vertex 1, fewer than the
        # 3 - tmax * 1 that a red degree bound of tmax = 0 promises.
        red = coloring_from_red(3, [(0, 1)]).red_adjacency_bits()
        g = complete_graph(2)
        with pytest.raises(ContractViolation,
                           match="^availability bound violated in greedy placement$"):
            embed._greedy_place(red, 0b111, [0], 0, g.adjacency_bits(), g.degrees(), range(2),
                                {}, EmbedFailure)


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

    def test_whole_graph_passes_once_per_call(self, passes):
        # Each pass over all of G or of the coloring runs a fixed number of
        # times per call, not once per component, which would make the
        # embedding quadratic: 50 disjoint edges cost as many passes as one.
        # The red rows are read by the triangle check and once for the blocks.
        for c in (1, 50):
            g = graph_from_edges(2 * c, [(2 * i, 2 * i + 1) for i in range(c)])
            col = TwoColoring(3 * c)
            passes.clear()
            assert embed_s3(col, g).validates(col, "blue")
            assert passes == {"red_adjacency_bits": 2, "degrees": 1, "adjacency_bits": 1,
                              "components": 1}

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

    def test_failed_revalidation_breaks_the_contract(self, monkeypatch):
        monkeypatch.setattr(EmbeddingMap, "validates", lambda self, col, color: False)
        with pytest.raises(ContractViolation, match="^embedding failed revalidation$"):
            embed_s3(TwoColoring(6), path_graph(3))

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

    def test_whole_graph_passes_once_per_call(self, passes):
        # G's degrees come from the isolated-vertex check, and the red rows
        # are read once by the red K4 check and once for the hub and the
        # placement.
        col = TwoColoring(12)
        g = path_graph(3)
        passes.clear()
        assert embed_general(col, g, 4).validates(col, "blue")
        assert passes == {"degrees": 1, "red_adjacency_bits": 2, "blue_adjacency_bits": 1,
                          "adjacency_bits": 1}

    def test_failed_revalidation_breaks_the_contract(self, monkeypatch):
        monkeypatch.setattr(EmbeddingMap, "validates", lambda self, col, color: False)
        with pytest.raises(ContractViolation, match="^embedding failed revalidation$"):
            embed_general(TwoColoring(10), path_graph(6), 4)

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

