"""Smoke tests for the benchmark: every declared metric is emitted with its
unit, outputs pass their checks, traced counts repeat exactly, and the
independent oracles reject bad outputs.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
from tracing import SPAN_STATS, _covered, tail_percentile  # noqa: E402


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT, smoke=True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    result = result_of(run_bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(run_bench(workload, trace=1)) for _ in range(2))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    assert first["correct"] and second["correct"]
    timed = tuple(f".{k}" for k, (unit, _) in SPAN_STATS.items() if unit != "count")
    counts = {k for k in declared if not k.endswith(timed) and k != "trace_overhead_frac"}
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_oracles_reject_bad_outputs():
    red = {(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)}   # two triangles sharing vertex 2
    assert oracles.packing_errors(5, red, 3, [[0, 1, 2], [2, 3, 4]], maximal=True) == []
    assert oracles.packing_errors(5, red, 3, [[0, 1, 2]], maximal=True)       # not maximal
    assert oracles.packing_errors(5, red, 3, [[0, 1, 3]], maximal=False)      # not a clique
    assert oracles.packing_errors(5, red, 3, [[0, 1, 2], [0, 1, 2]], maximal=False)
    assert oracles.greedy_triangle_packing_size(5, red) == 2
    assert not any(True for _ in oracles.red_triangles(5, oracles.adjacency(
        5, oracles.remove_red_triangles(5, red))))
    path = [(0, 1), (1, 2)]
    assert oracles.embedding_errors(5, red, 3, path, [[0, 3], [1, 0], [2, 4]]) == []
    assert oracles.embedding_errors(5, red, 3, path, [[0, 0], [1, 1], [2, 3]])  # red edge
    assert oracles.embedding_errors(5, red, 3, path, [[0, 3], [1, 3], [2, 4]])  # not injective
    assert oracles.tail_errors(0.5, 0.1, 1000) and not oracles.tail_errors(0.1, 0.1, 1000)


def test_span_statistics_helpers():
    assert _covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]) == pytest.approx(4.0)
    assert tail_percentile(10) == 50.0
    assert tail_percentile(1000) == pytest.approx(99.0)
    assert tail_percentile(100) == pytest.approx(90.0)
