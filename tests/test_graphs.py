import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit.construct import random_coloring, recolor_packing
from ramseykit.errors import CapacityError, InputError, ParseError
from ramseykit.graphs import (
    Graph,
    TwoColoring,
    clique_union_edges,
    coloring_from_red,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    induced_coloring,
    parse_coloring,
    parse_graph,
    path_graph,
    rho_star,
    serialize_coloring,
    serialize_edges,
    serialize_graph,
    star_graph,
    union_of_cliques,
    union_of_cliques_params,
)


def brute_rho_star(H: Graph) -> Fraction:
    """Independent oracle: enumerate vertex subsets with itertools."""
    best = None
    for size in range(3, H.n + 1):
        for subset in itertools.combinations(range(H.n), size):
            inside = set(subset)
            e = sum(1 for u, v in H.edges if u in inside and v in inside)
            val = Fraction(e - 1, size - 2)
            if best is None or val > best:
                best = val
    return best


def relabeled(g: Graph, perm: list[int]) -> Graph:
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestTypes:
    def test_graph_rejects_self_loop(self):
        with pytest.raises(InputError):
            graph_from_edges(3, [(1, 1)])

    def test_graph_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph(3, frozenset({(0, 3)}))
        # int() would truncate 1.9 to the edge (0, 1).
        with pytest.raises(InputError, match="vertex ids must be integers"):
            Graph(3, {(0, 1.9)})
        with pytest.raises(InputError, match="non-negative"):
            Graph(-1)
        with pytest.raises(InputError, match="cycle needs at least 3 vertices"):
            cycle_graph(2)

    def test_coloring_counts_sum(self):
        col = coloring_from_red(6, [(0, 1), (2, 5)])
        blue_ends = sum(row.bit_count() for row in col.blue_adjacency_bits())
        assert col.red_count == 2 and col.red_count + blue_ends // 2 == 15

    def test_coloring_rejects_bad_pair(self):
        with pytest.raises(InputError):
            coloring_from_red(4, [(0, 4)])
        with pytest.raises(InputError, match="self-loop"):
            TwoColoring(3, {(1, 1)})
        with pytest.raises(InputError, match="vertex ids must be integers"):
            TwoColoring(3, [(0, "2")])
        with pytest.raises(InputError, match="non-negative"):
            TwoColoring(-1)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_is_red_is_blue_agree_with_pair_set(self, n):
        # Ids from -2 to n + 1: a negative id must not read another row, and a
        # pair outside K_n is not red.  Blue rows are the complement on K_n.
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng = random.Random(n)
        built = TwoColoring(n, frozenset(p for p in pairs if rng.random() < 0.5))
        drawn = random_coloring(n, 0.5, n)
        for col in (built, drawn, recolor_packing(drawn, 3)[0]):
            red = set(col.red)
            blue = col.blue_adjacency_bits()
            for u in range(-2, n + 2):
                for v in range(-2, n + 2):
                    key = (u, v) if u < v else (v, u)
                    assert col.is_red(u, v) is (key in red)
                    if 0 <= u < n and 0 <= v < n:
                        assert blue[u] >> v & 1 == (u != v and key not in red)

    @pytest.mark.parametrize("rows", [[0b1], [0b100, 0b000], [-1, 0], [0b10, 0b11]])
    def test_rows_outside_range_or_on_diagonal_rejected(self, rows):
        with pytest.raises(InputError):
            TwoColoring._from_rows(rows)

    def test_coloring_is_immutable(self):
        col = random_coloring(4, 0.5, 0)
        with pytest.raises(AttributeError):
            col.n = 5
        with pytest.raises(AttributeError):
            del col.red_count

    def test_components(self):
        g = graph_from_edges(6, [(0, 1), (1, 2), (4, 5)])
        assert g.components() == [[0, 1, 2], [3], [4, 5]]
        # The rows are kept: a caller's copy of them does not reach the graph,
        # and equal graphs hash equal.
        g.adjacency_bits()[0] = 0b111110
        assert g.adjacency_bits()[0] == 0b10 and g.components() == [[0, 1, 2], [3], [4, 5]]
        assert g == graph_from_edges(6, [(4, 5), (2, 1), (0, 1)])
        assert hash(g) == hash(graph_from_edges(6, [(4, 5), (2, 1), (0, 1)]))

    def test_induced_coloring(self):
        col = coloring_from_red(5, [(0, 1), (1, 3), (2, 4)])
        sub, mapping = induced_coloring(col, [1, 3, 4])
        assert mapping == (1, 3, 4)
        assert sub.red == frozenset({(0, 1)})
        with pytest.raises(InputError, match="induced vertex set out of range"):
            induced_coloring(TwoColoring(3), [3])
        # Random colorings against the pair-set definition: a red pair of the
        # sub-coloring is a red pair of col with both ends in the vertex set.
        rng = random.Random(17)
        for trial in range(40):
            n = rng.randint(0, 12)
            col = random_coloring(n, rng.random(), trial)
            vs = [v for v in range(n) if rng.random() < 0.6]
            sub, mapping = induced_coloring(col, vs)
            index = {v: i for i, v in enumerate(mapping)}
            want = {(index[u], index[v]) for u, v in col.red if u in index and v in index}
            assert mapping == tuple(vs) and sub.red == want
            assert sub == TwoColoring(len(vs), want)


class TestDensity:
    def test_rho_star_k5(self):
        assert rho_star(complete_graph(5)) == 3

    def test_rho_star_star(self):
        # Best subset of K_{1,3} is a path on 3 vertices: (2-1)/(3-2) = 1.
        assert rho_star(star_graph(3)) == 1

    def test_rho_star_k4_minus_edge(self):
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert rho_star(g) == 2

    @pytest.mark.parametrize("s", range(3, 9))
    def test_rho_star_cliques_exact(self, s):
        assert rho_star(complete_graph(s)) == Fraction(s + 1, 2)

    def test_rho_star_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(3, 7)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [p for p in pairs if rng.random() < 0.5]
            g = graph_from_edges(n, edges)
            assert rho_star(g) == brute_rho_star(g)

    def test_rho_star_at_least_density(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(3, 8)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = graph_from_edges(n, [p for p in pairs if rng.random() < 0.4])
            assert rho_star(g) >= Fraction(g.edge_count - 1, g.n - 2)

    def test_isomorphism_invariance(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(3, 7)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = graph_from_edges(n, [p for p in pairs if rng.random() < 0.5])
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabeled(g, perm)
            assert rho_star(g) == rho_star(h)

    def test_rho_star_cap(self):
        with pytest.raises(CapacityError):
            rho_star(Graph(21))

    def test_rho_star_small(self):
        with pytest.raises(InputError):
            rho_star(complete_graph(2))


class TestUnionOfCliques:
    def test_m100_s3(self):
        assert union_of_cliques_params(100, 3) == (8, 4)
        g = union_of_cliques(100, 3)
        assert g.n == 32 and g.edge_count == 112

    def test_degenerate_small_m(self):
        assert union_of_cliques_params(3, 3) == (2, 3)
        g = union_of_cliques(3, 3)
        assert g.edge_count == 3
        assert all(len(c) == 2 for c in g.components())

    def test_edge_budget_met(self):
        rng = random.Random(5)
        for _ in range(60):
            m = rng.randint(3, 5000)
            s = rng.choice([3, 4, 5])
            k, count = union_of_cliques_params(m, s)
            assert count * k * (k - 1) // 2 >= m

    def test_structure_is_disjoint_k_cliques(self):
        g = union_of_cliques(200, 4)
        k, count = union_of_cliques_params(200, 4)
        comps = g.components()
        assert len(comps) == count
        for comp in comps:
            assert len(comp) == k
            assert set(itertools.combinations(comp, 2)) <= g.edges
        # K_{k+1}-free: the largest component has only k vertices.
        assert max(len(c) for c in comps) == k

    def test_rejects_small_m(self):
        with pytest.raises(InputError):
            union_of_cliques(2, 3)

    def test_rejects_order_above_parse_cap(self):
        # 17,110 vertices, refused before any edge is built.
        with pytest.raises(CapacityError, match="cap of 10000"):
            union_of_cliques_params(10**6, 4)

    def test_edges_written_without_a_graph(self):
        # What gen-union writes: the edges from (k, count), in file order.
        for m, s in [(3, 3), (100, 3), (200, 4), (5000, 5)]:
            k, count = union_of_cliques_params(m, s)
            g = union_of_cliques(m, s)
            edges = list(clique_union_edges(k, count))
            assert edges == sorted(g.edges)
            assert serialize_edges(g.n, g.edge_count, edges) == serialize_graph(g)


class TestGraphFormat:
    def test_parse_example(self):
        g = parse_graph("p 3 2\ne 1 2\ne 2 3\n")
        assert g == path_graph(3)

    def test_parse_empty_graph(self):
        g = parse_graph("p 2 0\n")
        assert g == Graph(2)

    def test_round_trip_object(self):
        for g in [complete_graph(3), star_graph(4), Graph(5), union_of_cliques(20, 3)]:
            assert parse_graph(serialize_graph(g)) == g

    def test_serializer_is_fixed_point(self):
        text = serialize_graph(union_of_cliques(30, 3))
        assert serialize_graph(parse_graph(text)) == text

    def test_serializer_sorted(self):
        g = graph_from_edges(4, [(2, 3), (0, 3), (0, 1)])
        assert serialize_graph(g) == "p 4 3\ne 1 2\ne 1 4\ne 3 4\n"

    @pytest.mark.parametrize("text,fragment", [
        ("q 3 2\ne 1 2\ne 2 3\n", "header"),
        ("p 3\ne 1 2\n", "header"),
        ("p 3 1\ne 1 4\n", "out of range"),
        ("p 3 1\ne 0 2\n", "out of range"),
        ("p 3 2\ne 1 2\ne 2 1\n", "duplicate"),
        ("p 3 1\ne 2 2\n", "self-loop"),
        ("p 3 1\ne 1 2\ne 1 3\n", "unexpected line"),
        ("p 3 2\ne 1 2\n", "2 edges but 1"),
        ("p 3 1\nx 1 2\n", "expected 'e"),
        ("p x 1\n", "not an integer"),
        ("p -1 0\n", "non-negative"),
        ("", "empty input"),
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert fragment in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_graph("p 3 2\ne 1 2\ne 2 2\n")
        assert err.value.line == 3
        assert "line 3" in str(err.value)


class TestColoringFormat:
    def test_all_blue(self):
        col = parse_coloring("n 5\n")
        assert col.n == 5 and col.red_count == 0

    def test_one_red(self):
        col = parse_coloring("n 3\nr 1 2\n")
        assert col.red == frozenset({(0, 1)})
        assert col.red_count == 1

    def test_round_trip_random(self):
        rng = random.Random(9)
        pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        col = coloring_from_red(8, [p for p in pairs if rng.random() < 0.5])
        assert parse_coloring(serialize_coloring(col)) == col
        text = serialize_coloring(col)
        assert serialize_coloring(parse_coloring(text)) == text

    @pytest.mark.parametrize("text,fragment", [
        ("n 0\n", "at least 1"),
        ("m 3\n", "header"),
        ("n 3\nr 1 4\n", "out of range"),
        ("n 3\nr 2 2\n", "self-loop"),
        ("n 3\nr 1 2\nr 2 1\n", "duplicate"),
        ("n x\n", "not an integer"),
        ("", "empty input"),
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_coloring(text)
        assert fragment in str(err.value)


@st.composite
def _pair_lines(draw, tag: str, min_n: int):
    """(n, pairs, text lines) for a random simple graph on n vertices: the
    pairs in random order, ends swapped at random, uneven spacing and blank
    lines."""
    n = draw(st.integers(min_n, 12))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = draw(st.lists(st.sampled_from(all_pairs), unique=True)) if all_pairs else []
    lines = []
    for u, v in pairs:
        if draw(st.booleans()):
            u, v = v, u
        pad = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(f"{pad}{tag} {u + 1}{pad} {v + 1}{pad}")
        if draw(st.booleans()):
            lines.append(pad)
    return n, pairs, lines


class TestRoundTripFuzz:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_pair_lines("e", 0))
    def test_graph_serialize_is_fixed_point(self, drawn):
        n, pairs, lines = drawn
        g = parse_graph("\n".join([f"p {n} {len(pairs)}", *lines]) + "\n")
        assert g == graph_from_edges(n, pairs)
        text = serialize_graph(g)
        assert parse_graph(text) == g and serialize_graph(parse_graph(text)) == text

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_pair_lines("r", 1))
    def test_coloring_serialize_is_fixed_point(self, drawn):
        n, pairs, lines = drawn
        col = parse_coloring("\n".join([f"n {n}", *lines]))
        assert col == coloring_from_red(n, pairs)
        text = serialize_coloring(col)
        assert parse_coloring(text) == col and serialize_coloring(parse_coloring(text)) == text

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 70), st.floats(0.0, 1.0), st.integers(0, 2**64))
    def test_random_coloring_round_trip(self, n, p, seed):
        col = random_coloring(n, p, seed)
        back = parse_coloring(serialize_coloring(col))
        assert back == col and back.red == col.red and back.red_count == col.red_count
