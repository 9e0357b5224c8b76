"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here, not calibrated later.  Monte Carlo criteria use
the convention empirical <= bound + 3*sigma with sigma = sqrt(b*(1-b)/trials)
at b = min(bound, 1); points with bound >= 1 hold trivially since frequencies
never exceed 1.
"""
import itertools
import json
import math
import random
import time

import pytest

from conftest import (
    GRAPHS_UP_TO_3_EDGES,
    random_bipartite_red_coloring,
    random_connected_graph,
)
from ramseykit.bounds import evaluate_all, theorem3_exponent
from ramseykit.cli import main
from ramseykit.construct import (
    chernoff_tail_check,
    construct_witness,
    erdos_tetali_check,
)
from ramseykit.embed import embed_s3
from ramseykit.exact import find_witness, is_witness, ramsey_number
from ramseykit.graphs import (
    complete_graph,
    path_graph,
    serialize_graph,
    star_graph,
    union_of_cliques,
    union_of_cliques_params,
)

K3 = complete_graph(3)


def report(criterion: int, label: str):
    print(f"ACCEPTANCE {criterion} ({label}): PASS")


def test_acceptance_1_exact_oracle():
    start = time.monotonic()
    assert ramsey_number(K3, K3, 9) == 6
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"r(K_3,K_3) took {elapsed:.2f}s"
    witness = find_witness(5, K3, K3)
    assert witness is not None and is_witness(witness, K3, K3)
    report(1, f"r(K_3,K_3)=6 in {elapsed:.3f}s with witness at n=5")


def test_acceptance_2_tree_equality():
    start = time.monotonic()
    trees = {
        "K2": path_graph(2),        # m = 1
        "P3": path_graph(3),        # m = 2
        "P4": path_graph(4),        # m = 3
        "K_{1,3}": star_graph(3),   # m = 3
    }
    for name, tree in trees.items():
        m = tree.edge_count
        assert ramsey_number(K3, tree, 2 * m + 2) == 2 * m + 1, name
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report(2, f"r(K_3,T)=2m+1 for all trees with m<=3 edges in {elapsed:.2f}s")


def test_acceptance_3_sidorenko_ceiling():
    for name, g in GRAPHS_UP_TO_3_EDGES.items():
        m = g.edge_count
        assert find_witness(2 * m + 1, K3, g) is None, name
    report(3, "r(K_3,G) <= 2m+1 for every isolated-vertex-free G with m <= 3")


def test_acceptance_4_deletion_method_invariant():
    k2 = complete_graph(2)
    trials_per_point = 34
    total = 0
    for s in (3, 4):
        for n in (10, 25, 40):
            for p in (0.05, 0.1, 0.2, 0.35, 0.5):
                seed = 100000 * s + 1000 * n + int(p * 100)
                for r in construct_witness(k2, s, trials=trials_per_point, seed=seed, n=n, p=p):
                    total += 1
                    assert r.red_Ks_free
                    flips = r.red_edges_before - r.red_edges_after
                    assert flips == math.comb(s, 2) * r.packing_size
    assert total >= 10**3
    report(4, f"{total} trials: 100% K_s-free with exact edge accounting")


def test_acceptance_5_embedder_soundness():
    rng = random.Random(20240817)
    successes = 0
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(1, 30))
        col = random_bipartite_red_coloring(rng, 3 * g.edge_count, rng.uniform(0.1, 1.0))
        emb = embed_s3(col, g)
        assert emb.validates(col, "blue")
        successes += 1
    assert successes == 100
    report(5, "embed_s3 succeeded and revalidated on 100/100 instances")


def test_acceptance_6_tail_bounds():
    start = time.monotonic()

    def check(empirical, bound, trials, where):
        b = min(bound, 1.0)
        sigma = math.sqrt(b * (1 - b) / trials)
        assert empirical <= b + 3 * sigma, where

    # Chernoff grid: 27 points, 10^4 samples each.
    points = 0
    for m in (10, 100, 1000):
        for p in (0.1, 0.3, 0.5):
            for frac in (0.25, 0.5, 1.0):
                a = frac * p * m
                emp, bound = chernoff_tail_check(m, p, a, 10**4, seed=points)
                check(emp, bound, 10**4, f"chernoff m={m} p={p} a={a}")
                points += 1
    assert points >= 20

    # Cross-check against the exact binomial CDF at the canonical point,
    # with 10^5 samples.
    emp, bound = chernoff_tail_check(10, 0.5, 0.1, 10**5, seed=999)
    exact = sum(math.comb(10, i) for i in range(5)) / 2**10
    assert exact == 386 / 1024
    sigma = math.sqrt(exact * (1 - exact) / 10**5)
    assert abs(emp - exact) <= 3 * sigma
    assert bound == pytest.approx(math.exp(-0.001), rel=1e-9)

    # Erdos-Tetali grid: 24 points, 10^4 samples each.
    et_points = 0
    for n in (6, 8):
        for k in (1, 2, 3):
            for p in (0.05, 0.1, 0.2, 0.3):
                emp, bound = erdos_tetali_check(n, p, 3, k, 10**4, seed=et_points)
                check(emp, bound, 10**4, f"erdos-tetali n={n} k={k} p={p}")
                et_points += 1
    assert et_points >= 20

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(6, f"{points}+{et_points} tail points within bound+3sigma in {elapsed:.1f}s")


def test_acceptance_7_extremal_builder():
    # Edge budget over the full range, via the same (k, count) arithmetic the
    # builder uses: e(G) = count * C(k,2) by construction.
    for s in (3, 4, 5):
        for m in range(3, 10**4 + 1):
            k, count = union_of_cliques_params(m, s)
            assert count * k * (k - 1) // 2 >= m, (m, s)
    # Object-level structural verification on a dense subsample.
    sample = set(range(3, 301)) | set(range(301, 10**4 + 1, 97)) | {10**4}
    for s in (3, 4, 5):
        for m in sorted(sample):
            g = union_of_cliques(m, s)
            k, count = union_of_cliques_params(m, s)
            assert g.edge_count == count * k * (k - 1) // 2 >= m
            assert g.n == count * k
    # The canonical point: 4 disjoint copies of K_8.
    g = union_of_cliques(100, 3)
    comps = g.components()
    assert len(comps) == 4
    for comp in comps:
        assert len(comp) == 8
        assert set(itertools.combinations(comp, 2)) <= g.edges
    report(7, "e(G) >= m for all m in 3..10^4, s in {3,4,5}; m=100,s=3 gives 4x K_8")


def test_acceptance_8_formula_evaluator():
    from fractions import Fraction

    reports = {r.name: r for r in evaluate_all(3, 1000)}
    assert abs(reports["thm1_lower"].value - 27.57) <= 0.01

    assert theorem3_exponent(complete_graph(4)) == Fraction(5, 7)

    # Exponent ordering over s in 3..10.  The first inequality is strict for
    # every s; the second meets equality exactly at s = 3 (both exponents are
    # 2/3 there, as the s = 3 specialization requires) and is strict beyond.
    for s in range(3, 11):
        lower_old = Fraction(s, s + 2)
        lower_new = Fraction(s + 1, s + 3)
        upper = Fraction(s - 1, s)
        assert lower_old < lower_new <= upper
        if s == 3:
            assert lower_new == upper == Fraction(2, 3)
        else:
            assert lower_new < upper
    report(8, "thm1_lower(3,1000)=27.57+-0.01, thm3 exponent 5/7, exponent ordering")


def test_acceptance_9_cli_determinism(capsys, tmp_path):
    k3_file = tmp_path / "k3.g"
    k3_file.write_text(serialize_graph(K3))

    def capture(argv):
        main(argv)
        return capsys.readouterr().out

    invocations = [
        ["bounds", "--s", "3", "--m", "1000", "--json"],
        ["exact", "--H", str(k3_file), "--G", str(k3_file), "--cap", "6"],
        ["gen-union", "--m", "100", "--s", "3"],
        ["stats", "chernoff", "--m", "200", "--p", "0.25", "--a", "10",
         "--trials", "5000", "--seed", "5"],
        ["stats", "erdos-tetali", "--n", "8", "--p", "0.2", "--s", "3",
         "--k", "2", "--trials", "500", "--seed", "6"],
    ]
    for argv in invocations:
        assert capture(argv) == capture(argv), argv

    construct_flags = ["construct", "--s", "3", "--G", str(k3_file),
                       "--n", "8", "--p", "0.3", "--trials", "20", "--seed", "11"]
    outputs = {
        capture(construct_flags + ["--threads", str(t)])
        for t in (1, 2, 4)
    } | {capture(construct_flags + ["--threads", "1"])}
    assert len(outputs) == 1
    # and the summary stays valid JSON
    json.loads(next(iter(outputs)))
    report(9, "repeated invocations byte-identical, --threads invariant")
