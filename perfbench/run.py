#!/usr/bin/env python3
"""ramseykit benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a ramseykit checkout.  One process runs one workload: it
writes the workload's inputs, then calls `ramseykit.cli.main(argv)` in-process
for each job with stdout captured, repeating the job list while `--seconds`
allows, and checks every output with the independent oracles in oracles.py.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it runs
the job list once untraced and once under the span tracer (tracing.py) and
reports the per-layer metrics.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
PIN_SEED = 0
SETUP_REPEATS = 5
# Machine-speed reference: reference_loop() is timed every SAMPLE_EVERY_S of
# wall time, also inside long jobs.  On shared cores the same job's time
# drifts by 10-30% within minutes; the reference drifts the same way, so
# end-to-end times are reported at its nominal speed (REF_NOMINAL_S).
REF_ITERS = 9000
REF_NOMINAL_S = 0.012
SAMPLE_EVERY_S = 0.25

sys.path.insert(0, str(HERE))

from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import PREDICTED, WORKLOADS, Job, build  # noqa: E402

END_TO_END = {
    "norm_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "norm_units_per_s": "1/s",
}
# Traced times of the ROADMAP's hand-timed baseline jobs: (label, job name,
# span name); the longest such span of the job is reported.
BASELINES = [
    ("K3-C5.n9", "exact.K3-C5", "exact.find_witness_exhaustive"),
    ("construct_b.threads1", "construct.b.t1", "construct.construct_witness"),
    ("construct_b.threadsN", "construct.b.tN", "construct.construct_witness_threaded"),
    ("erdos_tetali.n8", "erdos_tetali.n8.p0.3", "cli.main"),
]


def import_program():
    """Import ramseykit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ramseykit" / "__init__.py").is_file():
        raise SystemExit(f"error: no ramseykit sources under {src}")
    sys.path.insert(0, str(src))
    import ramseykit.cli

    if Path(ramseykit.__file__).resolve().parent != (src / "ramseykit").resolve():
        raise SystemExit("error: ramseykit imported from outside the checkout")
    return ramseykit.cli


@dataclass
class Result:
    job: Job
    seconds: float
    stdout: str
    rc: int | None
    error: str | None


def _reference_graph(n: int = 64, p: float = 0.4) -> list[int]:
    rng = random.Random(5)
    adj = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


REF_GRAPH = _reference_graph()


def reference_loop() -> int:
    """About 12 ms of fixed pure-Python work of the kinds the kernels do
    (bitmask clique recursion, big-integer bit tricks, tuples, frozensets,
    dicts and sorting) that never touches ramseykit, so its time tracks the
    machine's speed and nothing else."""
    count = 0

    def grow(depth, cand):
        nonlocal count
        if depth == 4:
            count += 1
            return
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            grow(depth + 1, cand & REF_GRAPH[v] & (-1 << (v + 1)))

    grow(0, (1 << len(REF_GRAPH)) - 1)
    for i in range(REF_ITERS):
        m = (i * 2654435761) & 0xFFFFFFFFFFFF
        count ^= (m & -m).bit_length() + (m >> 7).bit_count()
    pairs = [((i * 7919) % 97, (i * 104729) % 89) for i in range(REF_ITERS // 3)]
    index = {pair: i for i, pair in enumerate(sorted(frozenset(pairs)))}
    return count + sum(index[pair] for pair in pairs)


class SpeedSampler:
    """Inside `with`, times reference_loop() from a SIGALRM handler every
    SAMPLE_EVERY_S.

    The handler runs in the main thread between bytecodes, so it samples the
    machine's speed during a job as well as between jobs; `spent` is the
    handler's total time, which job timings subtract.  Sampling pauses while
    `paused` is set: a threaded job would make the handler wait for the GIL.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.paused = False

    def _on_alarm(self, signum, frame):
        if self.paused:
            return
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, since: int = 0) -> float:
        """Nominal over measured reference time (1.0 on a quiet machine), from
        the samples taken since the `since`-th one (all, if none since)."""
        return REF_NOMINAL_S / statistics.median(self.samples[since:] or self.samples)


def run_round(cli, jobs, sampler: SpeedSampler | None = None) -> list[Result]:
    results = []
    for job in jobs:
        if sampler is not None:
            sampler.paused = not job.timed
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        # Garbage left by earlier jobs is not charged to this one.
        gc.collect()
        spent = sampler.spent if sampler is not None else 0.0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(job.argv)
            except SystemExit as exc:  # argparse rejected the argv
                error = f"SystemExit({exc.code}): {err.getvalue().strip()}"
            except Exception as exc:  # a crash is a failed job, not a result
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        if sampler is not None:
            seconds -= sampler.spent - spent
        results.append(Result(job, seconds, out.getvalue(), rc, error))
    return results


class Checker:
    """Counts checked operations and failures, keeping the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, errors: list[str]):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages.extend(f"{what}: {e}" for e in errors[:3])


def verify_first(check: Checker, results, schemas, pins):
    by_name = {r.job.name: r for r in results}
    for r in results:
        if r.error is not None:
            check.record(r.job.name, [r.error])
            continue
        try:
            record = json.loads(r.stdout)
        except json.JSONDecodeError as exc:
            check.record(r.job.name, [f"stdout is not JSON: {exc}"])
            continue
        errors = schemas.errors(r.job.schema, record)
        if not errors:
            try:
                errors = r.job.check(record, r.rc)
            except Exception as exc:  # a malformed record must not stop the run
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        check.record(r.job.name, errors)
        if r.job.same_as is not None:
            same = by_name[r.job.same_as].stdout == r.stdout
            check.record(f"{r.job.name} bytes == {r.job.same_as}", [] if same else ["stdout differs"])
        if pins is not None and r.job.name in pins:
            digest = hashlib.sha256(r.stdout.encode()).hexdigest()
            check.record(f"{r.job.name} sha256", [] if digest == pins[r.job.name] else
                         [f"sha256 {digest} != pinned {pins[r.job.name]}"])


def verify_repeat(check: Checker, first, results):
    by_name = {r.job.name: r for r in first}
    for b in results:
        a = by_name[b.job.name]
        same = b.error is None and (a.stdout, a.rc) == (b.stdout, b.rc)
        check.record(f"{b.job.name} repeat", [] if same else ["output differs from the first round"])


def round_metrics(results) -> tuple[float, float]:
    """(time, work units per second) of a round's timed jobs."""
    results = [r for r in results if r.job.timed]
    wall = sum(r.seconds for r in results)
    units = sum(r.job.units for r in results)
    unit_time = sum(r.seconds for r in results if r.job.units)
    return wall, units / unit_time


def measure_setup(args, workdir: Path) -> float:
    """Median wall time of fresh processes that import ramseykit and write the
    workload's inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only", str(workdir / f"setup{i}")]
        if args.smoke:
            argv.append("--smoke")
        start = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def load_pins(workload: str, seed: int, smoke: bool):
    if smoke or seed != PIN_SEED or not PINS.is_file():
        return None
    return json.loads(PINS.read_text(encoding="utf-8")).get(workload)


def write_pins(workload: str, results):
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}
    pins[workload] = {r.job.name: hashlib.sha256(r.stdout.encode()).hexdigest()
                      for r in sorted(results, key=lambda r: r.job.name)}
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def coverage_errors(workload: str, stats: dict) -> list[str]:
    present, absent = PREDICTED[workload]
    errors = [f"{s} predicted to run but has 0 calls" for s in sorted(present)
              if not stats[f"{s}.calls"]]
    errors += [f"{s} predicted idle but has {stats[f'{s}.calls']} calls" for s in sorted(absent)
               if stats[f"{s}.calls"]]
    return errors


def measure(cli, jobs, seconds: float):
    """Timed rounds, with every round scaled by the speed sampled during it."""
    timed = [j for j in jobs if j.timed]
    rounds, first_samples = [], []
    start = last = time.perf_counter()
    with SpeedSampler() as sampler:
        # Another round while the last one's duration still fits.
        while not rounds or 2 * time.perf_counter() - last - start <= seconds:
            last = time.perf_counter()
            first_samples.append(len(sampler.samples))
            rounds.append(run_round(cli, timed if rounds else jobs, sampler))
    speeds = [sampler.speed(i) for i in first_samples]
    per_round = [round_metrics(r) for r in rounds]
    metrics = {
        "norm_wall_s": statistics.median(w * k for (w, _), k in zip(per_round, speeds)),
        "peak_rss_mb": peak_rss_mb(),
        "norm_units_per_s": statistics.median(u / k for (_, u), k in zip(per_round, speeds)),
    }
    lines = [f"rounds {len(rounds)}, raw s: " + " ".join(f"{w:.4f}" for w, _ in per_round),
             "speeds: " + " ".join(f"{k:.4f}" for k in speeds),
             f"wall_s {statistics.median(w for w, _ in per_round)!r} s (raw)",
             f"units_per_s {statistics.median(u for _, u in per_round)!r} 1/s (raw)"]
    lines += [f"untimed.{r.job.name} {r.seconds!r} s (raw, first round)"
              for r in rounds[0] if not r.job.timed]
    return rounds, metrics, lines


def measure_traced(cli, jobs, workload: str, check: Checker):
    """One untraced round, then one traced round giving the per-layer metrics."""
    untraced = run_round(cli, jobs)
    tracer = Tracer()
    tracer.install()
    marks = []
    try:
        for job in jobs:
            first = len(tracer.spans)
            marks.append((job.name, first, run_round(cli, [job])[0]))
    finally:
        tracer.uninstall()
    traced = [result for _, _, result in marks]
    metrics = tracer.stats()
    metrics["trace_overhead_frac"] = round_metrics(traced)[0] / round_metrics(untraced)[0] - 1.0
    check.record("coverage", coverage_errors(workload, metrics))
    bounds = [(name, first) for name, first, _ in marks] + [(None, len(tracer.spans))]
    lines = []
    for label, job_name, span in BASELINES:
        for (name, first), (_, last) in zip(bounds, bounds[1:]):
            durations = tracer.spans_between(first, last, span)
            if name == job_name and durations:
                lines.append(f"baseline.{label} {max(durations):.4f} s (traced)")
    return [untraced, traced], metrics, lines


def run(args) -> dict:
    cli = import_program()
    from oracles import Schemas

    workdir = ROOT / ".perfbench_work" / f"run-{args.workload}-{os.getpid()}"
    check = Checker()
    try:
        jobs = build(args.workload, args.seed, workdir / "inputs", args.smoke)
        schemas = Schemas(ROOT / "docs" / "schemas")
        if args.trace:
            rounds, metrics, lines = measure_traced(cli, jobs, args.workload, check)
        else:
            rounds, metrics, lines = measure(cli, jobs, args.seconds)
        verify_first(check, rounds[0], schemas, load_pins(args.workload, args.seed, args.smoke))
        for later in rounds[1:]:
            verify_repeat(check, rounds[0], later)
        if args.pin:
            write_pins(args.workload, rounds[0])
        if not args.trace:
            metrics["setup_s"] = measure_setup(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in check.messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    units = END_TO_END if not args.trace else {k: u for k, (u, _) in per_layer_metrics().items()}
    lines += [f"{name} {metrics[name]!r} {unit}" for name, unit in units.items()]
    lines.append(f"attempted {check.attempted} failed {check.failed} "
                 f"failed_frac {check.failed / check.attempted!r}")
    print("\n".join(lines))
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    parser.add_argument("--pin", action="store_true",
                        help=f"rewrite this workload's stdout hashes in pins.json (seed {PIN_SEED})")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pin and (args.seed != PIN_SEED or args.smoke):
        parser.error(f"--pin needs --seed {PIN_SEED} and no --smoke")

    if args.setup_only:
        import_program()
        build(args.workload, args.seed, Path(args.setup_only), args.smoke)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
