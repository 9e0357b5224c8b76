import math
from fractions import Fraction

import pytest

from ramseykit.bounds import evaluate_all, theorem3_exponent
from ramseykit.errors import InputError
from ramseykit.graphs import Graph, complete_graph, graph_from_edges


def by_name(reports):
    return {r.name: r for r in reports}


class TestEvaluateAll:
    def test_thm1_lower_known_point(self):
        rep = by_name(evaluate_all(3, 1000))["thm1_lower"]
        assert rep.value == pytest.approx((1000 / math.log(1000)) ** (2 / 3), rel=1e-12)
        assert abs(rep.value - 27.57) <= 0.01
        assert rep.role == "lower"

    def test_sidorenko_at_m10(self):
        reports = by_name(evaluate_all(3, 10))
        assert reports["sidorenko_upper"].value == 21
        assert reports["tree_equality"].value == 21
        assert reports["tree_equality"].role == "equality"

    def test_sidorenko_only_for_s3(self):
        assert "sidorenko_upper" not in by_name(evaluate_all(4, 10))

    def test_thm3_exponent_k4(self):
        assert theorem3_exponent(complete_graph(4)) == Fraction(5, 7)
        rep = by_name(evaluate_all(3, 1000, H=complete_graph(4)))["thm3_lower"]
        assert rep.inputs["exponent"] == pytest.approx(5 / 7, rel=1e-12)

    @pytest.mark.parametrize("s", range(3, 11))
    def test_exponent_ordering(self, s):
        # The improved lower exponent sits strictly above the old one for all
        # s; it meets the upper exponent exactly at s = 3 (both are 2/3, which
        # is why the s = 3 minimum is pinned down to polylog factors) and sits
        # strictly below it for s >= 4.
        lower_old = Fraction(s, s + 2)
        lower_new = Fraction(s + 1, s + 3)
        upper = Fraction(s - 1, s)
        assert lower_old < lower_new
        if s == 3:
            assert lower_new == upper == Fraction(2, 3)
        else:
            assert lower_new < upper

    @pytest.mark.parametrize("s", range(3, 9))
    def test_thm3_on_cliques_reproduces_thm1_exponent(self, s):
        expo = theorem3_exponent(complete_graph(s))
        assert expo == Fraction(s + 1, s + 3)

    def test_s3_specialization_ratio(self):
        # upper/lower = (ln m)^(1/3) for s = 3.
        for m in (100, 10**4, 10**6):
            reports = by_name(evaluate_all(3, m))
            ratio = reports["thm1_upper"].value / reports["thm1_lower"].value
            assert ratio == pytest.approx(math.log(m) ** (1 / 3), rel=1e-9)

    def test_monotone_in_m(self):
        grid = [9, 20, 50, 200, 10**3, 10**4, 10**6]
        h = complete_graph(4)
        prev = None
        for m in grid:
            assert m >= math.e**2
            values = {
                r.name: r.value
                for r in evaluate_all(3, m, t=10, H=h, k=5, pq=(2, 10))
            }
            if prev is not None:
                for name, value in values.items():
                    assert value >= prev[name], f"{name} not monotone at m={m}"
            prev = values

    def test_values_finite_positive(self):
        for rep in evaluate_all(4, 500, t=7, H=complete_graph(5), k=9, pq=(3, 12)):
            assert math.isfinite(rep.value) and rep.value > 0
            assert rep.constant_caveat

    def test_families_pair_up(self):
        reports = evaluate_all(3, 100, pq=(2, 8))
        families = {}
        for r in reports:
            families.setdefault(r.family, set()).add(r.role)
        assert families["efrs"] == {"lower", "upper"}
        assert families["thm1"] == {"lower", "upper"}
        assert families["kpq"] >= {"lower", "upper"}

    def test_clique_report_needs_k(self):
        assert "clique_vs_clique_upper" not in by_name(evaluate_all(3, 100))
        rep = by_name(evaluate_all(3, 100, k=10))["clique_vs_clique_upper"]
        assert rep.value == pytest.approx(100 / math.log(10), rel=1e-12)

    def test_kpq_values(self):
        reports = by_name(evaluate_all(3, 10**4, k=7, pq=(2, 50)))
        assert reports["kpq_vs_clique_upper"].value == 49
        assert reports["kpq_union_upper"].value == pytest.approx((10**4) ** (2 / 3), rel=1e-12)

    def test_sqrt_t_report(self):
        rep = by_name(evaluate_all(3, 100, t=9))["sqrt_t_upper"]
        assert rep.value == pytest.approx(100.0**3, rel=1e-12)
        assert rep.inputs["ell"] == 2
        assert "ell" in rep.constant_caveat

    def test_domain_errors(self):
        with pytest.raises(InputError):
            evaluate_all(2, 100)
        with pytest.raises(InputError):
            evaluate_all(3, 2)
        with pytest.raises(InputError):
            evaluate_all(3, 100, k=1)
        with pytest.raises(InputError):
            evaluate_all(3, 100, pq=(0, 5))
        with pytest.raises(InputError):
            evaluate_all(3, 100, t=0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_thm3_rejects_edgeless_graph(self, n):
        # rho* is -1/(n-2) < 0: at n = 3 the exponent would divide by zero,
        # at n = 4 it would be -1.
        with pytest.raises(InputError, match="at least one edge"):
            theorem3_exponent(Graph(n))
        with pytest.raises(InputError, match="at least one edge"):
            evaluate_all(3, 10, H=Graph(n))

    def test_thm3_uses_rho_star_of_subgraph(self):
        # A sparse graph containing a triangle: rho* comes from the K_3 inside.
        g = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        assert theorem3_exponent(g) == Fraction(2, 3)
