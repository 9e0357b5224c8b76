import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FAULTY_TRIANGLES, ONE_TRIANGLE_PACKING, greedy_with_extra_members
from ramseykit import cli, construct, detect, exact
from ramseykit.cli import main
from ramseykit.errors import ContractViolation
from ramseykit.graphs import (
    Graph,
    TwoColoring,
    complete_graph,
    parse_coloring,
    parse_graph,
    serialize_coloring,
    serialize_graph,
    cycle_graph,
    path_graph,
)

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"
BIG = "1" + "0" * 400
K3_TEXT = "p 3 3\ne 1 2\ne 1 3\ne 2 3\n"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / name).read_text())


def run(capsys, argv, within=None) -> tuple[int, str, str]:
    """Run the CLI in-process; `within` bounds the seconds the call may take."""
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert within is None or elapsed < within, f"{argv} took {elapsed:.1f} s"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def md5(out: str) -> str:
    return hashlib.md5(out.encode()).hexdigest()


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.g"
    path.write_text(serialize_graph(complete_graph(3)))
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.g"
    path.write_text(serialize_graph(path_graph(3)))
    return str(path)


class TestBounds:
    def test_text_includes_sidorenko(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--s", "3", "--m", "10"])
        assert code == 0
        assert "sidorenko_upper 21" in out

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(capsys, ["bounds", "--s", "3", "--m", "2"])
        assert code == 2
        assert "error" in err

    def test_json_matches_schema(self, capsys, k3_file):
        code, out, _ = run(capsys, [
            "bounds", "--s", "3", "--m", "100", "--t", "5",
            "--graph", k3_file, "--pq", "2", "9", "--k", "4", "--json",
        ])
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("bounds.schema.json"))
        names = {r["name"] for r in data}
        assert {"thm1_lower", "thm1_upper", "thm3_lower", "sqrt_t_upper"} <= names

    @pytest.mark.parametrize("n", [3, 4])
    def test_edgeless_graph_exits_2(self, capsys, tmp_path, n):
        graph = tmp_path / f"e{n}.g"
        graph.write_text(f"p {n} 0\n")
        code, out, err = run(capsys, ["bounds", "--s", "3", "--m", "10", "--graph", str(graph)],
                             within=10)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--m", "--k", "--t", "--s"])
    def test_integer_too_large_for_a_float_exits_2(self, capsys, flag):
        flags = {"--s": "3", "--m": "1000", flag: "1" + "0" * 400}
        code, out, err = run(capsys, ["bounds", *itertools.chain(*flags.items())], within=10)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("s", ["700", "1078"])
    def test_bound_too_large_for_a_float_exits_2(self, capsys, s):
        # At s = 700 no `**` overflows: the quotient 2**699 / ln(2)**698 is +inf.
        code, out, err = run(capsys, ["bounds", "--s", s, "--m", "3", "--k", "2"], within=10)
        assert (code, out) == (2, "")
        assert err == "error: an input is too large to evaluate in floating point\n"


class TestConstruct:
    def test_witness_run_exit_0(self, capsys, k3_file, tmp_path):
        out_dir = tmp_path / "trials"
        code, out, _ = run(capsys, [
            "construct", "--s", "3", "--G", k3_file, "--n", "5", "--p", "0.5",
            "--trials", "500", "--seed", "7", "--out", str(out_dir),
        ])
        assert code == 0  # a witness for r(3,3) > 5 shows up at this seed
        summary = json.loads(out)
        jsonschema.validate(summary, load_schema("construct.schema.json"))
        assert summary["any_blue_absent"] is True
        assert all(r["red_Ks_free"] for r in summary["reports"])
        # per-trial colorings written and parseable
        first = summary["reports"][0]["coloring_file"]
        col = parse_coloring((out_dir / first).read_text())
        assert col.n == 5
        assert json.loads((out_dir / "summary.json").read_text()) == summary

    def test_no_witness_exit_1(self, capsys, k3_file):
        # p = 0 makes every trial all-blue, so a blue K_3 is always found.
        code, out, _ = run(capsys, [
            "construct", "--s", "3", "--G", k3_file, "--n", "6", "--p", "0",
            "--trials", "2", "--seed", "1",
        ])
        assert code == 1
        summary = json.loads(out)
        assert all(r["blue_G_status"] == "found" for r in summary["reports"])

    def test_byte_identical_repeats_and_threads(self, capsys, k3_file):
        flags = ["construct", "--s", "3", "--G", k3_file, "--n", "8",
                 "--p", "0.3", "--trials", "16", "--seed", "11"]
        _, out1, _ = run(capsys, flags + ["--threads", "1"])
        _, out2, _ = run(capsys, flags + ["--threads", "1"])
        _, out4, _ = run(capsys, flags + ["--threads", "4"])
        assert out1 == out2 == out4

    @pytest.mark.parametrize("threads", [[], ["--threads", "4"]], ids=["threads-1", "threads-4"])
    def test_seed_7_witness_trials(self, capsys, input_files, threads):
        # The seed-7 trials on K_5 at p = 0.5 leave no blue K3 (a witness for
        # r(K3, K3) > 5) at trials 28 and 48, and pack 83 red triangles in all.
        code, out, _ = run(capsys, [
            "construct", "--s", "3", "--G", input_files["k3"], "--n", "5", "--p", "0.5",
            "--trials", "100", "--seed", "7", *threads,
        ], within=60)
        reports = json.loads(out)["reports"]
        assert code == 0
        assert [r["trial_index"] for r in reports if r["blue_G_status"] == "absent"] == [28, 48]
        assert sum(r["packing_size"] for r in reports) == 83
        assert md5(out) == "867e9ac862bb1ad19213069b6d382c31"

    def test_bad_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.g"
        bad.write_text("p 3 1\ne 1 5\n")
        code, _, err = run(capsys, [
            "construct", "--s", "3", "--G", str(bad), "--n", "5", "--p", "0.5",
            "--trials", "1", "--seed", "0",
        ])
        assert code == 2
        assert "line 2" in err

    def test_out_is_an_existing_file_exits_2_before_any_trial(self, capsys, monkeypatch, k3_file):
        def unreachable(*args, **kwargs):
            raise AssertionError("a bad --out path must be rejected before the trials")

        monkeypatch.setattr(construct, "construct_witness", unreachable)
        code, out, err = run(capsys, [
            "construct", "--s", "3", "--G", k3_file, "--n", "5", "--p", "0.5",
            "--trials", "1", "--seed", "0", "--out", k3_file,
        ], within=10)
        assert_one_error_line(code, out, err)
        assert err.startswith(f"error: cannot write {k3_file}: ")

    @pytest.mark.parametrize("target, flags", [
        (K3_TEXT, {"--s": "2"}),
        (K3_TEXT, {"--trials": "0"}),
        (K3_TEXT, {"--p": "1.5"}),
        (K3_TEXT, {"--n": "0"}),
        (K3_TEXT, {"--node-budget": "0"}),
        # Without --n, an edgeless target and K2 (m <= e) have no Theorem 1 order.
        ("p 3 0\n", {"--n": None, "--p": None}),
        ("p 2 1\ne 1 2\n", {"--n": None, "--p": None}),
    ], ids=["s-2", "trials-0", "p-1.5", "n-0", "node-budget-0", "edgeless", "K2"])
    def test_rejected_flag_leaves_no_out_directory(self, capsys, tmp_path, target, flags):
        g_file = tmp_path / "target.g"
        g_file.write_text(target)
        out_dir = tmp_path / "new" / "nested"
        flags = {"--s": "3", "--G": str(g_file), "--n": "5", "--p": "0.5", "--trials": "1",
                 "--seed": "0", "--out": str(out_dir), **flags}
        argv = ["construct"] + [a for flag, value in flags.items() if value is not None
                                for a in (flag, value)]
        code, out, err = run(capsys, argv, within=10)
        assert_one_error_line(code, out, err)
        assert not (tmp_path / "new").exists()

    def test_rejected_flag_keeps_an_existing_out_directory(self, capsys, k3_file, tmp_path):
        out_dir = tmp_path / "existing"
        out_dir.mkdir()
        code, out, err = run(capsys, [
            "construct", "--s", "2", "--G", k3_file, "--n", "5", "--p", "0.5",
            "--trials", "1", "--seed", "0", "--out", str(out_dir),
        ])
        assert_one_error_line(code, out, err)
        assert out_dir.is_dir() and not any(out_dir.iterdir())


class TestEmbed:
    def test_embed_success(self, capsys, tmp_path):
        col = TwoColoring(12, [(0, i) for i in range(1, 6)])
        col_file = tmp_path / "c.col"
        col_file.write_text(serialize_coloring(col))
        g_file = tmp_path / "p5.g"
        g_file.write_text(serialize_graph(path_graph(5)))
        code, out, _ = run(capsys, [
            "embed", "--coloring", str(col_file), "--G", str(g_file), "--s", "3",
        ])
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("embed.schema.json"))
        assert data["status"] == "embedded"
        hosts = [h for _, h in data["assignment"]]
        assert len(set(hosts)) == 5

    def test_embed_failure_exit_1(self, capsys, tmp_path):
        col = TwoColoring(6, [(0, 1), (2, 3), (4, 5)])
        col_file = tmp_path / "c.col"
        col_file.write_text(serialize_coloring(col))
        g_file = tmp_path / "k6.g"
        g_file.write_text(serialize_graph(complete_graph(6)))
        code, out, _ = run(capsys, [
            "embed", "--coloring", str(col_file), "--G", str(g_file), "--s", "4",
        ])
        assert code == 1
        data = json.loads(out)
        jsonschema.validate(data, load_schema("embed.schema.json"))
        assert data["status"] == "failed" and "blue" in data["reason"]
        # Vertex 0 of a 3-vertex host has one red neighbour to descend into.
        col_file.write_text(serialize_coloring(TwoColoring(3, [(0, 1)])))
        g_file.write_text(serialize_graph(complete_graph(2)))
        code, out, _ = run(capsys, [
            "embed", "--coloring", str(col_file), "--G", str(g_file), "--s", "4",
        ])
        assert code == 1
        data = json.loads(out)
        assert data["status"] == "failed"
        assert data["reason"].startswith("red-neighborhood descent failed: ")
        # The same host has a blue P3, which the greedy placement misses.
        g_file.write_text(serialize_graph(path_graph(3)))
        code, out, _ = run(capsys, [
            "embed", "--coloring", str(col_file), "--G", str(g_file), "--s", "4",
        ])
        assert code == 1
        data = json.loads(out)
        jsonschema.validate(data, load_schema("embed.schema.json"))
        assert (data["status"], data["reason"]) == (
            "failed", "greedy placement ran out of feasible host vertices")

    def test_blue_triangle_beside_a_red_c6(self, capsys, input_files):
        # A host on 3 e(K3) = 9 vertices with a red C6 on 1-6: vertex 1 has the
        # largest red degree, its red neighbours 2 and 6 take two vertices of
        # K3, and the third goes on 4, the first with no red edge to either.
        code, out, _ = run(capsys, [
            "embed", "--coloring", input_files["c6red.col"], "--G", input_files["k3"], "--s", "3",
        ], within=60)
        assert code == 0
        assert md5(out) == "b5ab934dcd74675a6cc50bcf33d828ec"

    @pytest.mark.parametrize("argv, same_as", [
        # m^((s-2)/2) with m = 5: about 10^348 at s = 1000.
        pytest.param(["--coloring", "c8", "--G", "p6", "--s", "1000"], "4", id="embed-s-1000"),
        pytest.param(["--coloring", "c8", "--G", "p6", "--s", BIG], "4", id="embed-s"),
        # m^((s-2)/2) with m = 20: about 10^324 at s = 500.
        pytest.param(["--coloring", "k70", "--G", "p21", "--s", "500"], "200",
                     id="embed-k70-p21-s-500"),
    ])
    def test_descent_threshold_past_the_float_range(self, capsys, input_files, argv, same_as):
        # The threshold d is then above every red degree: no descent, and
        # the same embedding as at a smaller s.
        argv = ["embed", *(input_files.get(a, a) for a in argv)]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "embedded"
        assert run(capsys, [*argv[:-1], same_as]) == (0, out, "")


class TestPack:
    def test_all_red_k4(self, capsys, tmp_path):
        col_file = tmp_path / "k4.col"
        col_file.write_text(serialize_coloring(
            TwoColoring(4, complete_graph(4).edges)))
        code, out, _ = run(capsys, [
            "pack", "--coloring", str(col_file), "--s", "3",
        ])
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("pack.schema.json"))
        assert data["size"] == 1 and data["members"] == [[0, 1, 2]]

    def test_exact_mode(self, capsys, tmp_path):
        # All-red K_n packs floor((n/3) floor((n-1)/2)) edge-disjoint
        # triangles, one fewer when n = 5 (mod 6) (Schönheim 1966; Spencer
        # 1968): 13 at n = 10, where the search stops at the per-vertex bound.
        for n in range(1, 11):
            col_file = tmp_path / f"k{n}.col"
            col_file.write_text(serialize_coloring(
                TwoColoring(n, complete_graph(n).edges)))
            code, out, _ = run(capsys, [
                "pack", "--coloring", str(col_file), "--s", "3", "--exact",
            ], within=60)
            assert code == 0
            data = json.loads(out)
            jsonschema.validate(data, load_schema("pack.schema.json"))
            assert data["size"] == n * ((n - 1) // 2) // 3 - (n % 6 == 5), n

    def test_branch_and_bound_beyond_the_greedy_prefix(self, capsys, input_files):
        # The greedy packing stops at 2 members (012, 235); only the branch
        # and bound finds 013, 124, 235.
        six = ["pack", "--coloring", input_files["six.col"], "--s", "3"]
        code, out, _ = run(capsys, six, within=60)
        assert code == 0 and json.loads(out)["size"] == 2
        code, out, _ = run(capsys, [*six, "--exact"], within=60)
        assert code == 0
        assert json.loads(out)["members"] == [[0, 1, 3], [1, 2, 4], [2, 3, 5]]
        assert md5(out) == "850575068275f73c2083c7a077859b01"


class TestExact:
    def test_r33(self, capsys, k3_file):
        code, out, _ = run(capsys, ["exact", "--H", k3_file, "--G", k3_file])
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("exact.schema.json"))
        assert data == {"ramsey": 6}

    def test_pattern_larger_than_cap(self, capsys, monkeypatch, tmp_path, k3_file):
        # No order up to the cap fits C2000, so its arc orbits are never computed.
        place = exact._place

        def small_hosts_only(adj, *args):
            assert len(adj) <= 9, "a pattern that does not fit in K_n needs no placement"
            return place(adj, *args)

        monkeypatch.setattr(exact, "_place", small_hosts_only)
        big = tmp_path / "c2000.g"
        big.write_text(serialize_graph(cycle_graph(2000)))
        code, out, _ = run(capsys, ["exact", "--H", k3_file, "--G", str(big)])
        assert code == 1
        assert json.loads(out) == {"ramsey": None, "greater_than": 9}

    def test_above_cap_exit_1(self, capsys, k3_file, p3_file):
        code, out, _ = run(capsys, [
            "exact", "--H", k3_file, "--G", p3_file, "--cap", "4",
        ])
        assert code == 1
        data = json.loads(out)
        jsonschema.validate(data, load_schema("exact.schema.json"))
        assert data == {"ramsey": None, "greater_than": 4}

    def test_cap_11(self, capsys, tmp_path, k3_file):
        c6 = tmp_path / "c6.g"
        c6.write_text(serialize_graph(cycle_graph(6)))
        code, out, _ = run(capsys, ["exact", "--H", k3_file, "--G", str(c6), "--cap", "11"])
        assert code == 0
        assert json.loads(out) == {"ramsey": 11}

    def test_order_above_edge_cap_exits_2(self, capsys, input_files):
        # L(K3, 6K2) = 12 is no theorem's value, so the search starts at K_12
        # and its 66 edges.
        argv = ["exact", "--H", input_files["k3"], "--G", input_files["6k2.g"], "--cap", "12"]
        code, out, err = run(capsys, argv, within=10)
        assert_one_error_line(code, out, err)
        assert err == "error: K_12 has 66 edges, above the cap of 55\n"

    @pytest.mark.parametrize("H, G, cap, code, data", [
        # Chvátal: r(K3, P11) = 2 * 10 + 1; r(K2, P13) = 13.
        ("k3", "p11.g", "21", 0, {"ramsey": 21}),
        ("k3", "p11.g", "20", 1, {"ramsey": None, "greater_than": 20}),
        ("k2.g", "p13.g", "13", 0, {"ramsey": 13}),
        ("k2.g", "p13.g", "12", 1, {"ramsey": None, "greater_than": 12}),
    ], ids=["K3-P11-cap21", "K3-P11-cap20", "K2-P13-cap13", "K2-P13-cap12"])
    def test_theorem_value_above_edge_cap(self, capsys, input_files, H, G, cap, code, data):
        # A value a theorem fixes needs no search, so the edge cap does not apply.
        argv = ["exact", "--H", input_files[H], "--G", input_files[G], "--cap", cap]
        got, out, err = run(capsys, argv, within=10)
        assert (got, err) == (code, "")
        jsonschema.validate(json.loads(out), load_schema("exact.schema.json"))
        assert json.loads(out) == data

    @pytest.mark.parametrize("H, G, cap, ramsey, within", [
        # Cycle pairs (Faudree and Schelp; Rosta): 2k - 1 when the shorter
        # cycle is odd, k + m/2 - 1 when both are even.  Walking K_8 to K_11
        # for C8-C8 takes seconds, past its bound.
        ("k3", "c6.g", "11", 11, 60),
        ("c8.g", "c8.g", "11", 11, 3),
        # Searched (Radziszowski, EJC DS1); K4's red degree cap needs
        # r(K3, C4) = 7, which the cycle formula gives.
        ("k4.g", "c4.g", "10", 10, 60),
        # Chvátal: r(K_m, T) = (m - 1)(|T| - 1) + 1.
        ("k3", "p6", "11", 11, 60),
        ("k4.g", "p4", "11", 10, 60),
        # Cockayne and Lorimer: r(mK2, nK2) = 2m + n - 1.
        ("3k2.g", "2k2.g", "11", 7, 60),
        # All-blue K5 holds neither pattern, so the search starts at 6.
        ("k3", "3k2.g", None, 7, 60),
        # An edgeless pattern, without search; an isolated vertex: all-red
        # K3 has no red K3+K1, and every coloring of K4 has one or a blue edge.
        ("k2.g", "e3.g", None, 3, 60),
        ("k3k1.g", "k2.g", None, 4, 60),
    ], ids=["K3-C6", "C8-C8", "K4-C4", "K3-P6", "K4-P4", "3K2-2K2", "K3-3K2", "K2-3K1",
            "K3+K1-K2"])
    def test_known_values(self, capsys, input_files, H, G, cap, ramsey, within):
        argv = ["exact", "--H", input_files[H], "--G", input_files[G]]
        code, out, _ = run(capsys, [*argv, *(["--cap", cap] if cap else [])], within=within)
        assert code == 0
        assert json.loads(out) == {"ramsey": ramsey}


class TestGenUnion:
    def test_m100_s3(self, capsys, tmp_path):
        out_file = tmp_path / "u.g"
        code, out, _ = run(capsys, [
            "gen-union", "--m", "100", "--s", "3", "--out", str(out_file),
        ])
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("gen_union.schema.json"))
        assert data["k"] == 8 and data["count"] == 4 and data["edges"] == 112
        g = parse_graph(data["graph"])
        comps = g.components()
        assert len(comps) == 4 and all(len(c) == 8 for c in comps)
        assert parse_graph(out_file.read_text()) == g

    @pytest.mark.parametrize("m,s", [(10**6, 4), (10**12, 3)])
    def test_order_above_parse_cap_exits_2(self, capsys, m, s):
        # 17,110 and about 6.6 * 10^7 vertices.  The cap is checked before any
        # edge is built: m = 10^12 would ask for about 10^12 edges.
        code, out, err = run(capsys, ["gen-union", "--m", str(m), "--s", str(s)], within=10)
        assert_one_error_line(code, out, err)
        assert "cap of 10000" in err

    def test_out_in_a_missing_directory_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "dir" / "g.txt"
        code, out, err = run(capsys, ["gen-union", "--m", "10", "--s", "3", "--out", str(target)],
                             within=10)
        assert_one_error_line(code, out, err)
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()


class TestStats:
    def test_chernoff(self, capsys):
        code, out, _ = run(capsys, [
            "stats", "chernoff", "--m", "1000", "--p", "0.1", "--a", "50",
            "--trials", "1000", "--seed", "1",
        ])
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("stats_chernoff.schema.json"))
        assert data["bound"] == pytest.approx(2.718281828459045 ** -12.5)

    def test_erdos_tetali(self, capsys):
        code, out, _ = run(capsys, [
            "stats", "erdos-tetali", "--n", "6", "--p", "1", "--s", "3",
            "--k", "1", "--trials", "50", "--seed", "2",
        ])
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("stats_erdos_tetali.schema.json"))
        assert data["empirical"] == 1.0

    @pytest.mark.parametrize("n, p, k, empirical, digest", [
        # 127 of the 2000 seed-7 colorings of K_8 at p = 0.3 pack 3
        # edge-disjoint red triangles.
        ("8", "0.3", "3", 0.0635, None),
        # 5 triangles need 15 red pairs: 238 of the draws of K_9 fall below
        # that floor and return no coloring, and 788 samples pack 5.
        ("9", "0.5", "5", 0.394, "77a9bf2d4798faab709162f64bd4d641"),
    ], ids=["n8-p0.3-k3", "n9-p0.5-k5"])
    def test_erdos_tetali_seed_7(self, capsys, n, p, k, empirical, digest):
        code, out, _ = run(capsys, [
            "stats", "erdos-tetali", "--n", n, "--p", p, "--s", "3", "--k", k,
            "--trials", "2000", "--seed", "7",
        ], within=60)
        assert code == 0 and json.loads(out)["empirical"] == empirical
        assert digest is None or md5(out) == digest


def test_erdos_tetali_all_red_k12_is_refuted_quickly():
    # K_12 has 66 red pairs and 220 triangles, but at most 20 edge-disjoint
    # ones: each vertex has degree 11, so it lies in at most 5 members, and
    # 12 * 5 < 21 * 3.  Without that vertex bound the decision is an
    # exhaustive search that does not finish; the timeout turns such a
    # regression into a failure.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = ["stats", "erdos-tetali", "--n", "12", "--p", "1", "--s", "3", "--k", "21",
            "--trials", "3", "--seed", "0"]
    done = subprocess.run([sys.executable, "-m", "ramseykit", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["empirical"] == 0.0


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--s", "4", "--m", "500", "--json"],
        ["gen-union", "--m", "50", "--s", "4"],
        ["stats", "chernoff", "--m", "100", "--p", "0.2", "--a", "5",
         "--trials", "2000", "--seed", "3"],
        ["stats", "erdos-tetali", "--n", "7", "--p", "0.25", "--s", "3",
         "--k", "2", "--trials", "300", "--seed", "4"],
    ])
    def test_repeat_invocations_identical(self, capsys, argv):
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestExitCodes:
    def test_internal_error_exits_3(self, capsys, monkeypatch, k3_file):
        def broken(*args, **kwargs):
            raise ContractViolation("residual red graph\ncontains a forbidden clique")

        monkeypatch.setattr(construct, "run_trial", broken)
        code, out, err = run(capsys, [
            "construct", "--s", "3", "--G", k3_file, "--n", "5", "--p", "0.5",
            "--trials", "2", "--seed", "1",
        ])
        assert code == 3
        assert out == ""
        assert err == ("internal error: ContractViolation: "
                       "residual red graph contains a forbidden clique\n")

    @pytest.mark.parametrize("fault", ["blue-pair", "shared-pair"])
    def test_faulty_packing_exits_3(self, capsys, monkeypatch, k3_file, fault):
        monkeypatch.setattr(construct, "random_coloring", lambda n, p, seed: ONE_TRIANGLE_PACKING)
        monkeypatch.setattr(construct, "_greedy_packing",
                            greedy_with_extra_members(FAULTY_TRIANGLES[fault]))
        code, out, err = run(capsys, [
            "construct", "--s", "3", "--G", k3_file, "--n", "6", "--p", "0.5",
            "--trials", "1", "--seed", "0",
        ])
        assert (code, out) == (3, "")
        assert err == "internal error: ContractViolation: edge-flip accounting mismatch\n"

    def test_deep_blue_target_is_not_a_crash(self, capsys, tmp_path):
        target = tmp_path / "p1200.g"
        target.write_text(serialize_graph(path_graph(1200)))
        code, out, _ = run(capsys, [
            "construct", "--s", "3", "--G", str(target), "--n", "1200", "--p", "0",
            "--trials", "1", "--seed", "0",
        ])
        assert code == 1
        assert json.loads(out)["reports"][0]["blue_G_status"] == "found"

    @pytest.mark.parametrize("argv", [
        ["gen-union", "--m", "100000", "--s", "3"],
        ["construct", "--s", "3", "--G", "K3", "--n", "5", "--p", "0.5", "--trials", "2000",
         "--seed", "0"],
    ], ids=["gen-union", "construct"])
    def test_closed_stdout_pipe_exits_141_quietly(self, k3_file, argv):
        # Both write far more than a pipe holds, so they are still writing
        # when the reader closes its end after the first 10 bytes.
        argv = [k3_file if a == "K3" else a for a in argv]
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen([sys.executable, "-m", "ramseykit", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert len(head) == 10
        assert (proc.returncode, err) == (141, b"")

    def test_broken_pipe_in_process_leaves_fd_1_alone(self, capsys, monkeypatch):
        # capsys gives a stdout with no file descriptor; fd 1 keeps its file.
        def closed(record):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "_emit", closed)
        before = os.fstat(1)
        code, out, err = run(capsys, ["gen-union", "--m", "10", "--s", "3"])
        assert (code, out, err) == (141, "", "")
        after = os.fstat(1)
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


class TestStatsInputErrors:
    @pytest.mark.parametrize("flag, value", [
        ("--a", "nan"), ("--a", "inf"), ("--p", "nan"), ("--p", "inf"),
        ("--seed", "-1"), ("--m", str(10**23)),
    ])
    def test_chernoff_exits_2(self, capsys, flag, value):
        argv = {"--m": "100", "--p": "0.2", "--a": "5", "--trials": "10", "--seed": "3"}
        argv[flag] = value
        code, out, err = run(capsys, ["stats", "chernoff", *itertools.chain(*argv.items())])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_erdos_tetali_negative_n_exits_2(self, capsys):
        code, out, err = run(capsys, [
            "stats", "erdos-tetali", "--n", "-3", "--p", "0.5", "--s", "3",
            "--k", "1", "--trials", "10", "--seed", "0",
        ])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_erdos_tetali_n_above_cap_exits_2(self, capsys):
        code, out, err = run(capsys, [
            "stats", "erdos-tetali", "--n", "13", "--p", "0.5", "--s", "3",
            "--k", "1", "--trials", "1", "--seed", "0",
        ], within=10)
        assert (code, out, err) == (2, "", "error: exact packing capped at n <= 12\n")


class TestConstructAndEmbedInputErrors:
    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_construct_node_budget_below_1_exits_2(self, capsys, k3_file, budget):
        code, out, err = run(capsys, [
            "construct", "--s", "3", "--G", k3_file, "--n", "6", "--p", "0.5",
            "--trials", "3", "--seed", "1", "--node-budget", budget,
        ])
        assert (code, out) == (2, "")
        assert "node budget must be at least 1" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_embed_node_budget_below_1_exits_2(self, capsys, tmp_path, budget):
        col_file = tmp_path / "c.col"
        col_file.write_text(serialize_coloring(TwoColoring(12, [(0, 1)])))
        g_file = tmp_path / "p5.g"
        g_file.write_text(serialize_graph(path_graph(5)))
        code, out, err = run(capsys, [
            "embed", "--coloring", str(col_file), "--G", str(g_file), "--s", "3",
            "--node-budget", budget,
        ])
        assert (code, out) == (2, "")
        assert "node budget must be at least 1" in err

    def test_construct_order_cap(self, capsys, monkeypatch, k3_file):
        def unreachable(*args, **kwargs):
            raise AssertionError("an order above the cap must be rejected before drawing")

        monkeypatch.setattr(construct, "random_coloring", unreachable)
        code, out, err = run(capsys, [
            "construct", "--s", "3", "--G", k3_file, "--n", "10001", "--p", "0",
            "--trials", "1", "--seed", "0",
        ])
        assert (code, out) == (2, "")
        assert "above the cap of 10000" in err


def test_cli_import_leaves_numpy_unloaded():
    # Importing the CLI and building its parser compile only the CLI and the
    # error types: each command imports its kernels when it runs, and the
    # package resolves its exports on first access.
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import json, sys, ramseykit.cli; ramseykit.cli.build_parser(); "
             "print(json.dumps(sorted(m for m in sys.modules "
             "if m == 'numpy' or m.split('.')[0] == 'ramseykit')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == ["ramseykit", "ramseykit.cli", "ramseykit.errors"]


def test_missing_input_file_exits_2(capsys, tmp_path, k3_file):
    missing = str(tmp_path / "missing.g")
    code, out, err = run(capsys, ["exact", "--H", missing, "--G", k3_file])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read file {missing}: ") and err.count("\n") == 1


class TestParseCaps:
    def test_graph_header_cap(self, capsys, monkeypatch, tmp_path, k3_file):
        def unreachable(*args, **kwargs):
            raise AssertionError("an oversized header must be rejected while parsing")

        monkeypatch.setattr(exact, "ramsey_number", unreachable)
        big = tmp_path / "big.g"
        big.write_text("p 1000000000 0\n")
        code, out, err = run(capsys, ["exact", "--H", str(big), "--G", k3_file])
        assert (code, out) == (2, "")
        assert "above the cap of 10000" in err

    def test_coloring_header_cap(self, capsys, monkeypatch, tmp_path):
        def unreachable(*args, **kwargs):
            raise AssertionError("an oversized header must be rejected while parsing")

        monkeypatch.setattr(detect, "max_edge_disjoint_packing", unreachable)
        big = tmp_path / "big.col"
        big.write_text("n 1000000000\n")
        code, out, err = run(capsys, ["pack", "--coloring", str(big), "--s", "3"])
        assert (code, out) == (2, "")
        assert "above the cap of 10000" in err


def assert_one_error_line(code: int, out: str, err: str) -> None:
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """K3, P4, P6 and P21 graph files, an empty file, a red C8 coloring, an
    all-blue K70, a file that is not UTF-8, and the literal texts behind the
    pinned outputs, named `<name>.g` for a graph and `<name>.col` for a
    coloring."""
    root = tmp_path_factory.mktemp("inputs")
    texts = {
        "k3": serialize_graph(complete_graph(3)),
        "p4": serialize_graph(path_graph(4)),
        "p6": serialize_graph(path_graph(6)),
        "p21": serialize_graph(path_graph(21)),
        "p11.g": serialize_graph(path_graph(11)),
        "p13.g": serialize_graph(path_graph(13)),
        "6k2.g": serialize_graph(Graph(12, [(2 * i, 2 * i + 1) for i in range(6)])),
        "empty": "",
        "c8": serialize_coloring(TwoColoring(8, cycle_graph(8).edges)),
        "k70": serialize_coloring(TwoColoring(70, [])),
        "k2.g": "p 2 1\ne 1 2\n",
        "e3.g": "p 3 0\n",
        "k4.g": "p 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n",
        "c4.g": "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n",
        "c6.g": "p 6 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 1 6\n",
        "c8.g": "p 8 8\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 6 7\ne 7 8\ne 1 8\n",
        "3k2.g": "p 6 3\ne 1 2\ne 3 4\ne 5 6\n",
        "2k2.g": "p 4 2\ne 1 2\ne 3 4\n",
        "k3k1.g": "p 4 3\ne 1 2\ne 1 3\ne 2 3\n",
        "c6red.col": "n 9\nr 1 2\nr 2 3\nr 3 4\nr 4 5\nr 5 6\nr 1 6\n",
        "six.col": "n 6\nr 1 2\nr 1 3\nr 2 3\nr 1 4\nr 2 4\nr 2 5\nr 3 5\nr 3 4\nr 3 6\nr 4 6\n",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    (root / "not-utf8").write_bytes(b"p 3 1\ne 1 \xff\n")
    return {name: str(root / name) for name in [*texts, "not-utf8"]}


ERDOS_TETALI = ["stats", "erdos-tetali", "--n", "12", "--p", "1", "--trials", "1", "--seed", "0"]


class TestOneErrorLine:
    @pytest.mark.parametrize("argv", [
        pytest.param(["gen-union", "--m", BIG, "--s", "3"], id="gen-union-m"),
        pytest.param(["gen-union", "--m", "100", "--s", BIG], id="gen-union-s"),
        pytest.param(["construct", "--s", "3", "--G", "p6", "--trials", "1", "--seed", "0",
                      "--n", BIG], id="construct-n"),
        pytest.param(["construct", "--s", BIG, "--G", "p6", "--trials", "1", "--seed", "0"],
                     id="construct-s"),
        pytest.param([*ERDOS_TETALI, "--s", "3", "--k", BIG], id="erdos-tetali-k"),
        pytest.param([*ERDOS_TETALI, "--s", BIG, "--k", "3"], id="erdos-tetali-s"),
        # (e * 924 / 500)^500 overflows although every input is small.
        pytest.param([*ERDOS_TETALI, "--s", "6", "--k", "500"], id="erdos-tetali-s6-k500"),
        pytest.param(["bounds", "--s", "x", "--m", "10"], id="argparse-invalid-int"),
        pytest.param(["bounds", "--m", "10"], id="argparse-missing-flag"),
        pytest.param(["nosuch"], id="argparse-unknown-subcommand"),
        pytest.param(["construct", "--s", "3", "--G", "p6", "--trials", "0.5", "--seed", "0"],
                     id="argparse-fractional-int"),
        # Every flag that reads a file: bytes that are not UTF-8 are bad input.
        pytest.param(["exact", "--H", "not-utf8", "--G", "k3"], id="exact-H-not-utf8"),
        pytest.param(["construct", "--s", "3", "--G", "not-utf8", "--trials", "1", "--seed", "0"],
                     id="construct-G-not-utf8"),
        pytest.param(["embed", "--coloring", "not-utf8", "--G", "p6", "--s", "3"],
                     id="embed-coloring-not-utf8"),
        pytest.param(["pack", "--coloring", "not-utf8", "--s", "3"], id="pack-coloring-not-utf8"),
        pytest.param(["bounds", "--s", "3", "--m", "10", "--graph", "not-utf8"],
                     id="bounds-graph-not-utf8"),
        pytest.param(["bounds", "--s", "x"], id="argparse-invalid-int-alone"),
        # The tail bound and the n <= 12 cap are checked before the first
        # draw: 10^8 samples, or one coloring of K_10000 (about 16 s), never start.
        pytest.param(["stats", "erdos-tetali", "--n", "12", "--p", "1", "--s", "6", "--k", "500",
                      "--trials", "100000000", "--seed", "0"], id="erdos-tetali-s6-k500-1e8-trials"),
        pytest.param(["stats", "erdos-tetali", "--n", "10000", "--p", "0.5", "--s", "3", "--k", "1",
                      "--trials", "1", "--seed", "0"], id="erdos-tetali-n-10000"),
    ])
    def test_bad_input_returns_2(self, capsys, input_files, argv):
        argv = [input_files.get(a, a) for a in argv]
        assert_one_error_line(*run(capsys, argv, within=10))

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ramseykit")


VALUES = ["0", "-1", "1", "3", BIG, "nan", "inf", "1e308", "0.5"]
# Flags that set how much work a run does never take the 401-digit value.
WORK_VALUES = [v for v in VALUES if v != BIG]
FILES = ["k3", "p4", "empty", "c8"]


def _flag(name, values=VALUES, optional=False, nargs=1):
    given_flag = st.lists(st.sampled_from(values), min_size=nargs, max_size=nargs).map(
        lambda vs: [name, *vs])
    return st.one_of(st.just([]), given_flag) if optional else given_flag


def _switch(name):
    return st.sampled_from([[], [name]])


FORMS = {
    "bounds": [_flag("--s"), _flag("--m"), _flag("--t", optional=True),
               _flag("--k", optional=True), _flag("--pq", optional=True, nargs=2),
               _flag("--ell", optional=True), _flag("--graph", FILES, optional=True),
               _switch("--json")],
    "construct": [_flag("--s"), _flag("--G", FILES), _flag("--n", WORK_VALUES, optional=True),
                  _flag("--p", optional=True), _flag("--trials", WORK_VALUES), _flag("--seed"),
                  _flag("--threads", optional=True),
                  _flag("--node-budget", WORK_VALUES, optional=True)],
    "embed": [_flag("--coloring", FILES), _flag("--G", FILES), _flag("--s"),
              _flag("--node-budget", WORK_VALUES, optional=True)],
    "pack": [_flag("--coloring", FILES), _flag("--s"), _switch("--exact")],
    "exact": [_flag("--H", FILES), _flag("--G", FILES), _flag("--cap", WORK_VALUES, optional=True)],
    "gen-union": [_flag("--m"), _flag("--s")],
    "stats chernoff": [_flag("--m"), _flag("--p"), _flag("--a"),
                       _flag("--trials", WORK_VALUES), _flag("--seed")],
    "stats erdos-tetali": [_flag("--n", WORK_VALUES), _flag("--p"), _flag("--s"), _flag("--k"),
                           _flag("--trials", WORK_VALUES), _flag("--seed")],
}


@pytest.mark.parametrize("form", FORMS)
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_argv_fuzz_exits_0_1_or_2_with_one_error_line(input_files, form, data):
    flags = data.draw(st.tuples(*FORMS[form]))
    argv = [*form.split(), *(input_files.get(a, a) for a in itertools.chain(*flags))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert_one_error_line(code, out.getvalue(), err.getvalue())


def test_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch, input_files):
    # Help text wraps at the terminal width; pin it for both processes.
    monkeypatch.setenv("COLUMNS", "80")
    construct = ["construct", "--s", "3", "--G", input_files["p6"], "--n", "10", "--p", "0.3",
                 "--trials", "2", "--seed", "1"]
    sequence = [
        ["bounds", "--s", "x", "--m", "10"],
        ["--help"],
        [*construct, "--node-budget", "5"],
        construct,
        ["pack", "--coloring", input_files["c8"], "--s", "3", "--exact"],
        ["pack", "--coloring", input_files["c8"], "--s", "3"],
        ["exact", "--H", input_files["k3"], "--G", input_files["k3"]],
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    outs = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "ramseykit", *argv], env=env,
                               capture_output=True, check=False)
        assert (code, out.encode()) == (fresh.returncode, fresh.stdout), argv
        outs.append(out)
    # The node budget of the first construct run leaves the second unbudgeted.
    assert '"unknown"' in outs[2] and '"unknown"' not in outs[3]
    assert cli.build_parser() is cli.build_parser()
