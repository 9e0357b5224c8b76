import itertools
import math
import tracemalloc
from math import comb

import numpy as np
import pytest

from conftest import (
    FAULTY_TRIANGLES,
    ONE_TRIANGLE_PACKING,
    greedy_with_extra_members,
    naive_max_packing_size,
    reference_erdos_tetali,
    reference_greedy_packing,
    reference_random_red,
)
from ramseykit import construct
from ramseykit.construct import (
    CHERNOFF_CHUNK,
    chernoff_tail_check,
    construct_witness,
    erdos_tetali_check,
    random_coloring,
    recolor_packing,
    theorem1_parameters,
    trial_seed,
)
from ramseykit.detect import find_clique, find_copy, max_edge_disjoint_packing
from ramseykit.errors import CapacityError, ContractViolation, InputError
from ramseykit.graphs import (
    MAX_PARSE_ORDER,
    TwoColoring,
    complete_graph,
    union_of_cliques,
)


def exact_binomial_lower_tail(m: int, p: float, a: float) -> float:
    """P[X - pm < -a] for X ~ Bin(m, p), summed exactly."""
    cutoff = p * m - a
    return sum(
        comb(m, i) * p**i * (1 - p) ** (m - i)
        for i in range(m + 1)
        if i < cutoff
    )


class TestTheorem1Parameters:
    def test_known_point(self):
        n, p = theorem1_parameters(3, 10**6)
        assert n == 21
        assert p == pytest.approx(1 / (9 * math.sqrt(21)), rel=1e-12)
        assert round(p, 4) == 0.0242

    def test_p_formula_instantiation_s3(self):
        # For s = 3 the red probability is (1/9) n^(-1/2) at the returned n.
        for m in (50, 10**3, 10**5, 10**7):
            n, p = theorem1_parameters(3, m)
            assert p == pytest.approx((1 / 9) * n ** -0.5, rel=1e-12)

    @pytest.mark.parametrize("m", [200, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8])
    def test_mp_dominates_8nlogn_s3(self, m):
        n, p = theorem1_parameters(3, m)
        assert m * p >= 8 * n * math.log(n)

    def test_rejects_degenerate_m(self):
        with pytest.raises(InputError):
            theorem1_parameters(3, 2)

    def test_rejects_small_s(self):
        with pytest.raises(InputError):
            theorem1_parameters(2, 100)


class TestRandomColoring:
    def test_p0_all_blue(self):
        col = random_coloring(10, 0.0, 1)
        assert col.red_count == 0

    def test_p1_all_red(self):
        col = random_coloring(10, 1.0, 1)
        assert col.red_count == 45

    def test_deterministic_in_seed(self):
        assert random_coloring(20, 0.3, 99) == random_coloring(20, 0.3, 99)
        assert random_coloring(20, 0.3, 99) != random_coloring(20, 0.3, 100)

    def test_mean_red_count_matches_binomial(self):
        # E[red] = C(50,2) * 0.1 = 122.5; mean over 10^4 seeds must land
        # within 3 standard errors, SE = sqrt(1225 * 0.1 * 0.9 / 10^4).
        seeds = 10**4
        total = sum(random_coloring(50, 0.1, seed).red_count for seed in range(seeds))
        mean = total / seeds
        se = math.sqrt(1225 * 0.1 * 0.9 / seeds)
        assert abs(mean - 122.5) <= 3 * se

    def test_rejects_bad_p(self):
        with pytest.raises(InputError):
            random_coloring(5, 1.5, 0)

    def test_rejects_negative_order(self):
        with pytest.raises(InputError, match="order must be non-negative"):
            random_coloring(-1, 0.5, 0)

    @pytest.mark.parametrize("seed", ["0", b"0", 0.0, None])
    def test_rejects_a_seed_that_is_not_an_int(self, seed):
        # The C generator would seed a str from its per-process hash.
        with pytest.raises(InputError, match="seed must be an integer"):
            random_coloring(5, 0.5, seed)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 12, 60, 63, 64, 65, 80])
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.3, 0.5, 1.0])
    def test_matches_pair_list_draw(self, n, p):
        # The rows are drawn directly from cached tables; the pair list of the
        # standard library's draws, in the same order, must give the same
        # coloring (63..65 straddle 64 bits).
        for seed in (0, 1, 12345, 2**64 - 1):
            ref = reference_random_red(n, p, seed)
            col = random_coloring(n, p, seed)
            rebuilt = TwoColoring(n, frozenset(ref))
            assert col == rebuilt and hash(col) == hash(rebuilt)
            assert col.red_count == len(ref)
            blue_ends = sum(row.bit_count() for row in col.blue_adjacency_bits())
            assert blue_ends == n * (n - 1) - 2 * len(ref)
            rows = [0] * n
            for u, v in ref:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            assert col.red_adjacency_bits() == rows
            assert col.red == frozenset(ref)


    @pytest.mark.parametrize("n", range(13))
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_floor(self, n, p):
        # The draw stops, returning None, exactly when the coloring drawn
        # without a floor has fewer red pairs; otherwise it is that coloring.
        pairs = n * (n - 1) // 2
        for seed in (0, 1, 7, 12345, 2**64 - 1):
            col = random_coloring(n, p, seed)
            for floor in sorted({0, 1, math.floor(p * pairs), pairs, pairs + 1}):
                got = random_coloring(n, p, seed, min_red=floor)
                if col.red_count < floor:
                    assert got is None, (seed, floor)
                else:
                    assert got == col, (seed, floor)
            # Floors at and one above the red count straddle the answer.
            for floor in (col.red_count, col.red_count + 1):
                got = random_coloring(n, p, seed, min_red=floor)
                assert (got is None) == (col.red_count < floor), (seed, floor)


class TestRecolorPacking:
    def test_all_red_k4(self):
        col = TwoColoring(4, complete_graph(4).edges)
        recolored, packing = recolor_packing(col, 3)
        assert packing.size == 1
        assert recolored.red_count == 3
        # Residual is the star at vertex 3 and triangle-free by inspection.
        assert recolored.red == frozenset({(0, 3), (1, 3), (2, 3)})
        assert find_clique(recolored, "red", 3) is None

    def test_all_blue_unchanged(self):
        col = TwoColoring(6)
        recolored, packing = recolor_packing(col, 3)
        assert recolored == col and packing.size == 0

    def test_triangle_free_red_unchanged(self):
        col = TwoColoring(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        recolored, packing = recolor_packing(col, 3)
        assert recolored == col and packing.size == 0

    def test_rejects_s_below_3(self):
        with pytest.raises(InputError, match="s must be at least 3"):
            recolor_packing(TwoColoring(4), 2)

    def test_accounting_and_ks_freeness_sweep(self):
        for seed in range(40):
            n = 8 + (seed % 3) * 8
            p = 0.1 + (seed % 5) * 0.1
            s = 3 + seed % 2
            col = random_coloring(n, p, seed)
            recolored, packing = recolor_packing(col, s)
            assert col.red_count - recolored.red_count == comb(s, 2) * packing.size
            assert find_clique(recolored, "red", s) is None

    @pytest.mark.parametrize("s", [3, 4, 5])
    def test_residual_matches_reference_greedy(self, s):
        # The residual rows are the greedy pass's own rows: they must give the
        # coloring rebuilt from the red pairs the greedy by definition leaves.
        # Every fifth coloring is all red.
        for seed in range(30):
            n = s + seed % 12
            p = 1.0 if seed % 5 == 0 else 0.15 + 0.1 * (seed % 8)
            col = random_coloring(n, p, seed)
            members = reference_greedy_packing(col, s)
            covered = {pair for m in members for pair in itertools.combinations(m, 2)}
            want = TwoColoring(n, col.red - covered)
            got, packing = recolor_packing(col, s)
            assert list(packing.members) == members
            assert got == want and got.red == want.red
            assert got.red_count == want.red_count == col.red_count - len(covered)
            assert got.red_adjacency_bits() == want.red_adjacency_bits()
            assert got.blue_adjacency_bits() == want.blue_adjacency_bits()
            assert col == random_coloring(n, p, seed), "the input coloring changed"


class TestTrialContract:
    """A faulty packing pass must break the trial's edge-flip accounting or
    leave a red s-clique in the residual."""

    FLAGS = {"trials": 1, "seed": 0, "n": 6, "p": 0.5}

    @pytest.fixture(autouse=True)
    def fixed_coloring(self, monkeypatch):
        monkeypatch.setattr(construct, "random_coloring", lambda n, p, seed: ONE_TRIANGLE_PACKING)

    def test_sound_packing_passes(self, monkeypatch):
        monkeypatch.setattr(construct, "_greedy_packing", greedy_with_extra_members([]))
        report = construct_witness(complete_graph(3), 3, **self.FLAGS)[0]
        assert report.packing_size == 1
        assert (report.red_edges_before, report.red_edges_after) == (7, 4)

    @pytest.mark.parametrize("fault", sorted(FAULTY_TRIANGLES))
    def test_faulty_member_breaks_accounting(self, monkeypatch, fault):
        extra = FAULTY_TRIANGLES[fault]
        monkeypatch.setattr(construct, "_greedy_packing", greedy_with_extra_members(extra))
        with pytest.raises(ContractViolation, match="edge-flip accounting mismatch"):
            construct_witness(complete_graph(3), 3, **self.FLAGS)

    def test_empty_packing_leaves_a_red_clique(self, monkeypatch):
        monkeypatch.setattr(construct, "_greedy_packing", lambda adj, s: iter(()))
        with pytest.raises(ContractViolation, match="residual red graph contains"):
            construct_witness(complete_graph(3), 3, **self.FLAGS)


class TestConstructWitness:
    def test_witness_found_on_k5(self):
        # Witnesses for r(K_3, K_3) > 5 exist (the 5-cycle coloring); with
        # p = 0.5 and 300 trials at this seed, at least one trial lands on one.
        reports = construct_witness(complete_graph(3), 3, trials=300, seed=0, n=5, p=0.5)
        assert len(reports) == 300
        assert all(r.red_Ks_free for r in reports)
        assert any(r.blue_G_status == "absent" for r in reports)
        for r in reports:
            assert find_clique(r.coloring, "red", 3) is None
            flips = r.red_edges_before - r.red_edges_after
            assert flips == 3 * r.packing_size

    def test_absent_when_host_too_small(self):
        reports = construct_witness(complete_graph(10), 3, trials=3, seed=1, n=4, p=0.2)
        assert all(r.blue_G_status == "absent" for r in reports)

    def test_deterministic_and_thread_independent(self):
        flags = {"trials": 12, "seed": 7, "n": 12, "p": 0.3}
        g = complete_graph(3)
        a = construct_witness(g, 3, **flags, threads=1)
        b = construct_witness(g, 3, **flags, threads=4)
        assert a == b
        assert [r.trial_index for r in a] == list(range(12))

    def test_p0_reduces_to_find_copy(self):
        g = complete_graph(4)
        report = construct_witness(g, 3, trials=1, seed=0, n=6, p=0.0)[0]
        direct = find_copy(TwoColoring(6), "blue", g)
        assert (report.blue_G_status == "found") == (direct is not None)

    def test_derives_parameters_when_not_overridden(self):
        # Theorem 1's order at m = e(G) = 103,740.
        report = construct_witness(union_of_cliques(10**5, 3), 3, trials=1, seed=5)[0]
        assert report.coloring.n == 5

    def test_rejects_empty_graph(self):
        with pytest.raises(InputError):
            construct_witness(complete_graph(0), 3, trials=1, seed=0, n=5, p=0.5)

    def test_params_validation(self):
        g = complete_graph(3)
        with pytest.raises(InputError):
            construct_witness(g, 2, trials=1, seed=0)
        with pytest.raises(InputError):
            construct_witness(g, 3, trials=0, seed=0)
        with pytest.raises(InputError):
            construct_witness(g, 3, trials=1, seed=0, p=1.5)
        with pytest.raises(InputError, match="n must be positive"):
            construct_witness(g, 3, trials=1, seed=0, n=0)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_rejects_node_budget_below_1(self, budget):
        with pytest.raises(InputError):
            construct_witness(complete_graph(3), 3, trials=1, seed=0, node_budget=budget)

    @pytest.mark.parametrize("flags, message", [
        ({"s": 2}, "s must be at least 3"),
        ({"trials": 0}, "trials must be positive"),
        ({"p": 1.5}, r"p must lie in \[0, 1\]"),
        ({"p": math.nan}, r"p must lie in \[0, 1\]"),
        ({"n": 0}, "n must be positive"),
        ({"node_budget": 0}, "node budget must be at least 1"),
    ])
    def test_flags_checked_before_any_trial(self, monkeypatch, flags, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("a bad flag must be rejected before the first trial")

        monkeypatch.setattr(construct, "run_trial", unreachable)
        # Every other flag is valid, so the first check that fails is this one.
        kwargs = {"s": 3, "trials": 1, "seed": 0, "n": 6, "p": 0.5, **flags}
        with pytest.raises(InputError, match=message):
            construct_witness(complete_graph(3), **kwargs)

    def test_order_cap(self, monkeypatch):
        monkeypatch.setattr(construct, "theorem1_parameters",
                            lambda s, m: (MAX_PARSE_ORDER + 1, 0.0))
        for flags in ({}, {"n": MAX_PARSE_ORDER + 1, "p": 0.0}):
            with pytest.raises(CapacityError):
                construct_witness(complete_graph(3), 3, trials=1, seed=0, **flags)


class TestTrialSeed:
    def test_stable_and_distinct(self):
        assert trial_seed(42, 0) == trial_seed(42, 0)
        seeds = {trial_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    @pytest.mark.parametrize("master", [0, -1, 10**30])
    def test_stream_equals_definition(self, master):
        # 20,001 indices cross every step of the index's digit count up to 5.
        count = 20_001
        assert list(construct._trial_seeds(master, count)) == \
            [trial_seed(master, i) for i in range(count)]
        assert list(construct._trial_seeds(master, 0)) == []


class TestChernoff:
    def test_tiny_tail_point(self):
        empirical, bound = chernoff_tail_check(1000, 0.1, 50, 10**5, 1)
        assert bound == pytest.approx(math.exp(-12.5), rel=1e-12)
        assert empirical == 0.0

    def test_exact_cdf_cross_check(self):
        empirical, bound = chernoff_tail_check(10, 0.5, 0.1, 10**5, 2)
        exact = exact_binomial_lower_tail(10, 0.5, 0.1)
        assert exact == pytest.approx(386 / 1024, rel=1e-12)
        sigma = math.sqrt(exact * (1 - exact) / 10**5)
        assert abs(empirical - exact) <= 3 * sigma
        assert bound == pytest.approx(math.exp(-0.001), rel=1e-9)
        assert empirical <= bound

    def test_tail_beyond_support_is_empty(self):
        empirical, _ = chernoff_tail_check(20, 0.3, 6.0, 10**4, 3)
        assert empirical == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            chernoff_tail_check(0, 0.5, 1, 10, 0)
        with pytest.raises(InputError):
            chernoff_tail_check(10, 0.0, 1, 10, 0)
        with pytest.raises(InputError):
            chernoff_tail_check(10, 0.5, 0, 10, 0)
        with pytest.raises(InputError):
            chernoff_tail_check(10, 0.5, 1, 0, 0)

    @pytest.mark.parametrize("m, p, a, seed", [
        (10, math.nan, 1.0, 0),
        (10, 0.5, math.nan, 0),
        (10, 0.5, math.inf, 0),
        (10, 0.5, 1.0, -1),
        (10**23, 0.5, 1.0, 0),
    ], ids=["p-nan", "a-nan", "a-inf", "seed-negative", "m-beyond-int64"])
    def test_rejects_out_of_domain_inputs(self, m, p, a, seed):
        with pytest.raises(InputError):
            chernoff_tail_check(m, p, a, 10, seed)

    @pytest.mark.parametrize("m, p, a", [(1000, 0.1, 30.0), (100, 0.3, 15.0), (10, 0.5, 0.1)])
    def test_chunked_draws_match_one_shot(self, m, p, a):
        trials = 3 * CHERNOFF_CHUNK + 7
        xs = np.random.default_rng(5).binomial(m, p, size=trials)
        want = np.count_nonzero(xs - p * m < -a) / trials
        assert chernoff_tail_check(m, p, a, trials, 5)[0] == want

    def test_memory_flat_in_trials(self):
        tracemalloc.start()
        try:
            chernoff_tail_check(1000, 0.1, 30.0, 10**6, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A single draw of 10^6 int64 counts alone takes 8 MB.
        assert peak < 4 * 2**20


class TestErdosTetali:
    def test_p0(self):
        empirical, bound = erdos_tetali_check(6, 0.0, 3, 1, 200, 0)
        assert empirical == 0.0 and bound == 0.0

    def test_p1_k1(self):
        empirical, bound = erdos_tetali_check(6, 1.0, 3, 1, 100, 0)
        assert empirical == 1.0
        assert bound == pytest.approx(math.e * 20, rel=1e-12)

    def test_mid_point_respects_bound(self):
        trials = 10**4
        empirical, bound = erdos_tetali_check(8, 0.3, 3, 3, trials, 3)
        sigma = math.sqrt(min(bound, 1.0) * (1 - min(bound, 1.0)) / trials)
        assert empirical <= min(bound, 1.0) + 3 * sigma

    def test_cap(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("an order above the cap must be rejected before drawing")

        monkeypatch.setattr(construct, "random_coloring", unreachable)
        for n in (13, 10_000, 10**9):
            with pytest.raises(CapacityError, match="exact packing capped at n <= 12"):
                erdos_tetali_check(n, 0.5, 3, 1, 10, 0)
        # The argument checks come before the cap.
        with pytest.raises(InputError, match="s must be at least 3"):
            erdos_tetali_check(13, 0.5, 2, 1, 10, 0)

    def test_bound_before_the_first_draw(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the bound must be computed before drawing")

        monkeypatch.setattr(construct, "random_coloring", unreachable)
        # (e * 924 / 500)^500 overflows a float; 10^8 samples would take
        # about 25 minutes to draw.
        with pytest.raises(OverflowError):
            erdos_tetali_check(12, 1.0, 6, 500, 10**8, 0)

    def test_rejects_negative_n(self):
        with pytest.raises(InputError):
            erdos_tetali_check(-3, 0.5, 3, 1, 10, 0)

    @pytest.mark.parametrize("k, trials", [(0, 10), (1, 0)])
    def test_rejects_k_or_trials_below_1(self, k, trials):
        with pytest.raises(InputError):
            erdos_tetali_check(6, 0.5, 3, k, trials, 0)

    # p = 1 runs at n = 9 and 8: the reference's maximum packing of K_n does
    # not finish in minutes for n >= 10 (s = 3).  All p = 1 samples are K_n.
    @pytest.mark.parametrize("n, p, s, trials", [
        (12, 0.0, 3, 40), (12, 0.0, 4, 40), (12, 0.3, 3, 100), (12, 0.3, 4, 100),
        (9, 1.0, 3, 2), (8, 1.0, 4, 2),
    ])
    def test_matches_maximum_packing_loop(self, n, p, s, trials):
        def exact_size(col, s):
            return max_edge_disjoint_packing(col, s, "exact").size

        # The last k lies above the clique count of every sample.
        for k in (1, 2, 3, 5, comb(n, s) + 1):
            got = erdos_tetali_check(n, p, s, k, trials, 7)
            assert got == reference_erdos_tetali(n, p, s, k, trials, 7, exact_size), k

    # The benchmark's Erdős–Tetali points (s = 3), with as many samples as the
    # unbounded reference packing search finishes in about a second.
    @pytest.mark.parametrize("n, p, k, trials, seed", [
        (8, 0.3, 3, 300, 1_234_567), (10, 0.3, 10, 300, 2**31 - 1), (10, 0.5, 3, 100, 0),
        (12, 0.4, 3, 60, 0), (12, 0.45, 3, 12, 0),
    ])
    def test_matches_reference_sampler(self, monkeypatch, n, p, k, trials, seed):
        calls = []

        def spy(n, p, seed, *, min_red=0):
            calls.append((seed, min_red))
            return random_coloring(n, p, seed, min_red=min_red)

        monkeypatch.setattr(construct, "random_coloring", spy)
        got = erdos_tetali_check(n, p, 3, k, trials, seed)
        # k edge-disjoint triangles hold 3k red pairs: the floor of each draw.
        assert calls == [(trial_seed(seed, i), 3 * k) for i in range(trials)]
        assert got == reference_erdos_tetali(n, p, 3, k, trials, seed, naive_max_packing_size)
