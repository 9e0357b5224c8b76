"""Workload definitions: the inputs each workload writes and the CLI jobs it runs.

`build(workload, seed, workdir, smoke)` is the benchmark's set-up: it writes
every input file under `workdir` and returns the job list.  Inputs come from
the benchmark's own seeded RNG, never from ramseykit, so the program sees only
flags and files.  Each job carries the independent check of its output (see
oracles.py); checks run outside the timed region.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from oracles import (
    adjacency,
    complement,
    embedding_errors,
    greedy_triangle_packing_size,
    has_copy,
    packing_errors,
    read_coloring,
    remove_red_triangles,
    tail_errors,
    write_coloring,
    write_graph,
)

WORKLOADS = ("exact_table", "construct_pipeline", "tail_validators")

# Threads for the threaded construct jobs: the machine's usable cores, and at
# least 2 so the pool path always runs.
THREADS = max(2, len(os.sched_getaffinity(0)))


@dataclass
class Job:
    name: str
    argv: list[str]
    schema: str
    # check(record, exit_code) -> error strings; runs once per process on the
    # first round's output, later rounds must reproduce its bytes.
    check: Callable[[dict, int], list[str]]
    # Work units counted by units_per_s (orders searched, trials, samples).
    units: int = 0
    # Job whose stdout this one's must equal (thread-count determinism).
    same_as: str | None = None
    # Untimed jobs run in the first round only (and in the traced round), are
    # checked like the others, and count in no end-to-end metric.
    timed: bool = True


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}/{tag}")


def _cli_seed(seed: int, tag: str) -> int:
    return _rng(seed, tag).randrange(2**31)


def _random_red(n: int, p: float, rng: random.Random) -> set[tuple[int, int]]:
    return {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# exact_table
# ---------------------------------------------------------------------------

def _cycle(k):
    return k, [(i, (i + 1) % k) for i in range(k)]


PATTERNS = {
    "K3": (3, [(0, 1), (0, 2), (1, 2)]),
    "C4": _cycle(4),
    "C5": _cycle(5),
    "K1_3": (4, [(0, 1), (0, 2), (0, 3)]),
    "K1_4": (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    "K4-e": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "P5": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
}

# r(H, G) from Chvatal-Harary 1972 and Radziszowski, Small Ramsey Numbers
# (EJC DS1).  r(K3, K4) = 9 is left out: its n = 9 level alone takes 30-36 s.
RAMSEY_TABLE = [
    ("K3", "K3", 6), ("C4", "C4", 6), ("K3", "C4", 7), ("K3", "K1_3", 7),
    ("K3", "K4-e", 7), ("C4", "C5", 7), ("K3", "P5", 9), ("K3", "K1_4", 9),
    ("K3", "C5", 9),
]
SMOKE_TABLE = RAMSEY_TABLE[:4]


def _exact_check(h, g, r):
    def check(record, rc):
        if record != {"ramsey": r} or rc != 0:
            return [f"expected ramsey {r} with exit 0, got {record} exit {rc}"]
        return _witness_errors(h, g, r - 1)
    return check


def _witness_errors(h: str, g: str, n: int) -> list[str]:
    """find_witness(r-1, H, G) must return a coloring that brute force confirms
    has no red H and no blue G."""
    from ramseykit.exact import find_witness
    from ramseykit.graphs import Graph

    (hn, he), (gn, ge) = PATTERNS[h], PATTERNS[g]
    witness = find_witness(n, Graph(hn, frozenset(tuple(sorted(e)) for e in he)),
                           Graph(gn, frozenset(tuple(sorted(e)) for e in ge)))
    if witness is None:
        return [f"find_witness({n}, {h}, {g}) found no witness"]
    red = adjacency(n, witness.red)
    if has_copy(n, red, hn, he) or has_copy(n, complement(n, red), gn, ge):
        return [f"find_witness({n}, {h}, {g}) returned a non-witness"]
    return []


def _build_exact(seed, workdir, smoke):
    rng = _rng(seed, "exact")
    files = {}
    for name, (n, edges) in PATTERNS.items():
        # Vertex labels stay canonical: the search cost depends on them
        # (relabeling C5 moves r(K3, C5) by +-12%), and the seed only reorders
        # edge lines, which the parser must not care about.
        lines = write_graph(n, edges).splitlines()
        body = lines[1:]
        rng.shuffle(body)
        files[name] = _write(workdir / f"{name}.g", "\n".join([lines[0]] + body) + "\n")
    jobs = [
        Job(f"exact.{h}-{g}", ["exact", "--H", files[h], "--G", files[g]], "exact",
            _exact_check(h, g, r), units=r)
        for h, g, r in (SMOKE_TABLE if smoke else RAMSEY_TABLE)
    ]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# construct_pipeline
# ---------------------------------------------------------------------------

# (tag, s, target, n, p, trials, smoke trials)
CONSTRUCT_JOBS = [
    ("a", 3, "K3", 5, 0.5, 2000, 60),    # README witness hunt, ~1% witnesses; --out
    ("b", 3, "P10", 40, 0.2, 200, 4),    # ROADMAP baseline
    ("c", 4, "K6", 60, 0.3, 200, 3),
    ("d", 3, "C20", 80, 0.2, 100, 2),    # bitmasks wider than 60 bits
]
TARGETS = {
    "K3": PATTERNS["K3"],
    "P10": (10, [(i, i + 1) for i in range(9)]),
    "K6": (6, [(u, v) for u in range(6) for v in range(u + 1, 6)]),
    "C20": _cycle(20),
}
# Greedy pack inputs: raw random colorings (n, p); embed inputs: red-triangle-
# free colorings on at least 3 e(G) vertices (target, n, p).
PACK_HOSTS = [(60, 0.3), (60, 0.3), (40, 0.4)]
EMBED_HOSTS = [("K3", 12, 0.3), ("P10", 30, 0.2), ("C20", 60, 0.15)]


def _construct_check(s, target, n, trials, out_dir):
    tn, tedges = TARGETS[target]

    def check(record, rc):
        errors = []
        reports = record["reports"]
        if record["n"] != n or record["trials"] != trials or len(reports) != trials:
            errors.append("summary does not match the requested n / trials")
        if [r["trial_index"] for r in reports] != list(range(len(reports))):
            errors.append("reports are not in trial order")
        absent = any(r["blue_G_status"] == "absent" for r in reports)
        if record["any_blue_absent"] != absent or rc != (0 if absent else 1):
            errors.append(f"exit {rc} / any_blue_absent disagree with the reports")
        for r in reports:
            flipped = r["red_edges_before"] - r["red_edges_after"]
            if not r["red_Ks_free"] or flipped != math.comb(s, 2) * r["packing_size"]:
                errors.append(f"trial {r['trial_index']}: bad recoloring accounting")
            if r["blue_G_status"] == "unknown":
                errors.append(f"trial {r['trial_index']}: blue search gave up")
            if out_dir is not None and not errors:
                errors += _trial_file_errors(out_dir / r["coloring_file"], s, tn, tedges,
                                             r["blue_G_status"] == "absent")
            if errors:
                break
        return errors
    return check


def _trial_file_errors(path, s, tn, tedges, absent):
    n, red = read_coloring(path.read_text(encoding="utf-8"))
    adj = adjacency(n, red)
    kn, kedges = s, [(u, v) for u in range(s) for v in range(u + 1, s)]
    if has_copy(n, adj, kn, kedges):
        return [f"{path.name}: residual coloring has a red K_{s}"]
    if has_copy(n, complement(n, adj), tn, tedges) == absent:
        return [f"{path.name}: blue target status is wrong"]
    return []


def _pack_greedy_check(path, s):
    def check(record, rc):
        n, red = read_coloring(Path(path).read_text(encoding="utf-8"))
        if rc != 0 or record["mode"] != "greedy" or record["size"] != len(record["members"]):
            return ["bad pack summary"]
        return packing_errors(n, red, s, record["members"], maximal=True)
    return check


def _embed_check(path, target):
    gn, gedges = TARGETS[target]

    def check(record, rc):
        if rc != 0 or record.get("status") != "embedded":
            return [f"embedding failed: {record}"]
        n, red = read_coloring(Path(path).read_text(encoding="utf-8"))
        return embedding_errors(n, red, gn, gedges, record["assignment"])
    return check


def _build_construct(seed, workdir, smoke):
    files = {name: _write(workdir / f"{name}.g", write_graph(*TARGETS[name])) for name in TARGETS}
    jobs = []
    for tag, s, target, n, p, trials, smoke_trials in CONSTRUCT_JOBS:
        if smoke:
            trials, n = smoke_trials, min(n, 30)
        base = ["construct", "--s", str(s), "--G", files[target], "--n", str(n),
                "--p", str(p), "--trials", str(trials),
                "--seed", str(_cli_seed(seed, f"construct/{tag}"))]
        check = _construct_check(s, target, n, trials, None)
        jobs.append(Job(f"construct.{tag}.t1", base + ["--threads", "1"], "construct", check,
                        units=trials))
        # The --threads N runs are untimed: GIL hand-offs between two shared
        # cores spread their time by +-20% between runs even after speed
        # normalization, wider than any bound.  The traced run times them.
        jobs.append(Job(f"construct.{tag}.tN", base + ["--threads", str(THREADS)], "construct",
                        check, same_as=f"construct.{tag}.t1", timed=False))
        if tag == "a":
            # Writing 2000 trial files costs 0.2-1.5 s of filesystem noise, so
            # the --out run is checked but not timed.
            out_dir = workdir / "trials_a"
            jobs.append(Job("construct.a.out", base + ["--out", str(out_dir)], "construct",
                            _construct_check(s, target, n, trials, out_dir), timed=False))
    for i, (n, p) in enumerate(PACK_HOSTS[:1] if smoke else PACK_HOSTS):
        n = min(n, 20) if smoke else n
        red = _random_red(n, p, _rng(seed, f"pack/{i}"))
        path = _write(workdir / f"pack_{i}.col", write_coloring(n, red))
        jobs.append(Job(f"pack.greedy.{i}", ["pack", "--coloring", path, "--s", "3"], "pack",
                        _pack_greedy_check(path, 3)))
    for i, (target, n, p) in enumerate(EMBED_HOSTS[:2] if smoke else EMBED_HOSTS):
        red = remove_red_triangles(n, _random_red(n, p, _rng(seed, f"embed/{i}")))
        path = _write(workdir / f"embed_{i}.col", write_coloring(n, red))
        jobs.append(Job(f"embed.{target}", ["embed", "--coloring", path, "--G", files[target],
                                            "--s", "3"], "embed", _embed_check(path, target)))
    return jobs


# ---------------------------------------------------------------------------
# tail_validators
# ---------------------------------------------------------------------------

CHERNOFF_POINTS = [(1000, 0.1, 30.0), (100, 0.3, 15.0), (10000, 0.5, 100.0)]
CHERNOFF_TRIALS = 100000
# (n, p, k, samples, smoke samples).  Seeded from --seed: points whose exact
# packing cost per sample is light-tailed enough for a steady total.
ET_SEEDED = [(8, 0.3, 3, 10000, 200), (10, 0.3, 10, 5000, 100)]
# Fixed panel, always validator seed 0: exact packing here has a heavy tail
# (per-sample CV 3-11, single samples up to 67 s at (12, 0.45)), so seeded
# draws of any affordable size spread by 15-300% between seeds and can run
# past the time limit.  A fixed panel keeps the tail in every run as the same
# work.  (12, 0.5) is excluded: 500 samples take 160 s.
ET_PANEL = [(10, 0.5, 3, 200, 10), (12, 0.4, 3, 200, 10), (12, 0.45, 3, 60, 5)]
EXACT_PACK_HOSTS = 8
EXACT_PACK_P = 0.35


def _tail_check(trials):
    def check(record, rc):
        if rc != 0 or record["trials"] != trials:
            return [f"bad validator record: exit {rc}"]
        return tail_errors(record["empirical"], record["bound"], trials)
    return check


def _pack_exact_check(path):
    def check(record, rc):
        n, red = read_coloring(Path(path).read_text(encoding="utf-8"))
        if rc != 0 or record["mode"] != "exact" or record["size"] != len(record["members"]):
            return ["bad pack summary"]
        errors = packing_errors(n, red, 3, record["members"], maximal=True)
        greedy = greedy_triangle_packing_size(n, red)
        if not errors and record["size"] < greedy:
            errors.append(f"exact packing {record['size']} smaller than greedy {greedy}")
        return errors
    return check


def _build_tail(seed, workdir, smoke):
    jobs = []
    for i, (m, p, a) in enumerate(CHERNOFF_POINTS):
        trials = 1000 if smoke else CHERNOFF_TRIALS
        argv = ["stats", "chernoff", "--m", str(m), "--p", str(p), "--a", str(a),
                "--trials", str(trials), "--seed", str(_cli_seed(seed, f"chernoff/{i}"))]
        jobs.append(Job(f"chernoff.{m}", argv, "stats_chernoff", _tail_check(trials)))
    points = [(pt, _cli_seed(seed, f"et/{pt[0]}/{pt[1]}")) for pt in ET_SEEDED]
    points += [(pt, 0) for pt in ET_PANEL]
    for (n, p, k, trials, smoke_trials), et_seed in points:
        trials = smoke_trials if smoke else trials
        argv = ["stats", "erdos-tetali", "--n", str(n), "--p", str(p), "--s", "3",
                "--k", str(k), "--trials", str(trials), "--seed", str(et_seed)]
        jobs.append(Job(f"erdos_tetali.n{n}.p{p}", argv, "stats_erdos_tetali",
                        _tail_check(trials), units=trials))
    for i in range(2 if smoke else EXACT_PACK_HOSTS):
        red = _random_red(12, EXACT_PACK_P, _rng(seed, f"exact_pack/{i}"))
        path = _write(workdir / f"exact_pack_{i}.col", write_coloring(12, red))
        jobs.append(Job(f"pack.exact.{i}", ["pack", "--coloring", path, "--s", "3", "--exact"],
                        "pack", _pack_exact_check(path)))
    return jobs


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list[Job]:
    """Write the workload's inputs under `workdir` and return its jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    make_jobs = {
        "exact_table": _build_exact,
        "construct_pipeline": _build_construct,
        "tail_validators": _build_tail,
    }[workload]
    return make_jobs(seed, workdir, smoke)


# Coverage self-check for the traced run: spans that must run on each workload
# (calls > 0) and spans predicted idle there (calls == 0).
_GRAPHS_IO = {"cli.main", "graphs.parse"}
PREDICTED = {
    "exact_table": (
        _GRAPHS_IO | {"graphs.TwoColoring", "exact.find_witness_found",
                      "exact.find_witness_exhaustive"},
        {"construct.random_coloring", "construct.run_trial", "construct.construct_witness",
         "construct.construct_witness_threaded", "detect.greedy_pack", "detect.exact_pack",
         "detect.find_clique", "detect.find_copy", "embed.embed_general"},
    ),
    "construct_pipeline": (
        _GRAPHS_IO | {"graphs.TwoColoring", "graphs.red_adjacency_bits",
                      "graphs.blue_adjacency_bits", "graphs.serialize",
                      "construct.random_coloring", "construct.run_trial",
                      "construct.construct_witness", "construct.construct_witness_threaded",
                      "detect.greedy_pack", "detect.find_clique", "detect.find_copy",
                      "embed.embed_general"},
        {"detect.exact_pack", "exact.find_witness_found", "exact.find_witness_exhaustive"},
    ),
    "tail_validators": (
        _GRAPHS_IO | {"graphs.TwoColoring", "graphs.red_adjacency_bits",
                      "construct.random_coloring", "detect.exact_pack"},
        {"detect.greedy_pack", "detect.find_copy", "detect.find_clique",
         "exact.find_witness_found", "exact.find_witness_exhaustive",
         "construct.run_trial", "construct.construct_witness",
         "construct.construct_witness_threaded", "embed.embed_general",
         "graphs.blue_adjacency_bits", "graphs.serialize"},
    ),
}
