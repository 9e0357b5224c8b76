"""Span tracer for the traced run.

It wraps ramseykit's public functions from outside the package: every module
namespace holding a binding to a target function gets a wrapper, so
`construct.find_copy` and `exact.find_copy` are both traced, and `TwoColoring`
methods are patched on the class.  A span records its name, start, end and
parent; spans live in memory until `stats()` turns them into per-layer
numbers.  Worker-thread spans with no open parent in their own thread take
the open threaded-construct span as parent.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time
from collections import Counter, defaultdict

SPANS = (
    "cli.main",
    "graphs.TwoColoring",
    "graphs.red_adjacency_bits",
    "graphs.blue_adjacency_bits",
    "graphs.parse",
    "graphs.serialize",
    "construct.random_coloring",
    "construct.run_trial",
    "construct.construct_witness",
    "construct.construct_witness_threaded",
    "detect.greedy_pack",
    "detect.exact_pack",
    "detect.find_clique",
    "detect.find_copy",
    "embed.embed_general",
    "exact.find_witness_found",
    "exact.find_witness_exhaustive",
)
COUNTS = {
    "detect.greedy_pack.members": ("count", "higher"),
    "detect.exact_pack.members": ("count", "higher"),
    "detect.find_copy.found": ("count", "higher"),
    "detect.find_copy.budget_exceeded": ("count", "lower"),
    "construct.red_edges_flipped": ("count", "lower"),
    "construct.witness_frac": ("ratio", "higher"),
    "embed.embed_general.failed": ("count", "lower"),
    "graphs.red_adjacency_bits.calls_per_trial": ("calls/trial", "lower"),
}
SPAN_STATS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "busy_s": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "tail_ms": ("ms", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out = {f"{s}.{k}": v for s in SPANS for k, v in SPAN_STATS.items()}
    out.update(COUNTS)
    out["trace_overhead_frac"] = ("ratio", "lower")
    return out


def tail_percentile(samples: int) -> float:
    """Highest percentile, at most 99, with at least 10 samples beyond it."""
    if samples <= 20:
        return 50.0
    return min(99.0, 100.0 * (1.0 - 10.0 / samples))


def _quantile(sorted_vals: list[float], pct: float) -> float:
    idx = max(0, min(len(sorted_vals) - 1, math.ceil(pct / 100.0 * len(sorted_vals)) - 1))
    return sorted_vals[idx]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pool_parent: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: int = 1):
        with self._lock:
            self.counts[key] += amount

    def _traced(self, fn, name, on_exit=None, pool=False):
        """Wrap fn in a span; `name` and `on_exit` may be callables of the
        call's (args, kwargs) and (args, kwargs, result, exc)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else self._pool_parent
            label = name(args, kwargs) if callable(name) else name
            is_pool = pool and label.endswith("_threaded")
            if is_pool:
                self._pool_parent = sid
            stack.append(sid)
            result, exc = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_pool:
                    self._pool_parent = None
                if on_exit is not None:
                    label = on_exit(args, kwargs, result, exc) or label
                self.spans.append((sid, label, start, end, parent))

        return wrapper

    def _patch_bindings(self, original, wrapper):
        """Replace every ramseykit module-level binding of `original`."""
        for modname, mod in list(sys.modules.items()):
            if not (modname == "ramseykit" or modname.startswith("ramseykit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, name):
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._traced(original, name))

    def install(self):
        from ramseykit import cli, construct, detect, embed, exact, graphs
        from ramseykit.errors import EmbedFailure, SearchBudgetExceeded

        def packing_name(args, kwargs):
            mode = kwargs.get("mode", args[2] if len(args) > 2 else "greedy")
            return f"detect.{mode}_pack"

        def packing_exit(args, kwargs, result, exc):
            if result is not None:
                self.count(f"{packing_name(args, kwargs)}.members", result.size)

        def copy_exit(args, kwargs, result, exc):
            if isinstance(exc, SearchBudgetExceeded):
                self.count("detect.find_copy.budget_exceeded")
            elif exc is None and result is not None:
                self.count("detect.find_copy.found")

        def trial_exit(args, kwargs, result, exc):
            if result is not None:
                self.count("construct.trials")
                self.count("construct.red_edges_flipped",
                           result.red_edges_before - result.red_edges_after)
                self.count("construct.witnesses", result.blue_G_status == "absent")

        def construct_name(args, kwargs):
            threaded = kwargs.get("threads", args[2] if len(args) > 2 else 1) > 1
            return "construct.construct_witness" + ("_threaded" if threaded else "")

        def embed_exit(args, kwargs, result, exc):
            if isinstance(exc, EmbedFailure):
                self.count("embed.embed_general.failed")

        def witness_exit(args, kwargs, result, exc):
            found = exc is None and result is not None
            return "exact.find_witness_" + ("found" if found else "exhaustive")

        targets = [
            (cli.main, "cli.main", None, False),
            (graphs.parse_graph, "graphs.parse", None, False),
            (graphs.parse_coloring, "graphs.parse", None, False),
            (graphs.serialize_graph, "graphs.serialize", None, False),
            (graphs.serialize_coloring, "graphs.serialize", None, False),
            (construct.random_coloring, "construct.random_coloring", None, False),
            (construct.run_trial, "construct.run_trial", trial_exit, False),
            (construct.construct_witness, construct_name, None, True),
            (detect.max_edge_disjoint_packing, packing_name, packing_exit, False),
            (detect.find_clique, "detect.find_clique", None, False),
            (detect.find_copy, "detect.find_copy", copy_exit, False),
            (embed.embed_general, "embed.embed_general", embed_exit, False),
            (exact.find_witness, "exact.find_witness", witness_exit, False),
        ]
        for fn, name, on_exit, pool in targets:
            self._patch_bindings(fn, self._traced(fn, name, on_exit, pool))
        self._patch_method(graphs.TwoColoring, "__post_init__", "graphs.TwoColoring")
        self._patch_method(graphs.TwoColoring, "red_adjacency_bits", "graphs.red_adjacency_bits")
        self._patch_method(graphs.TwoColoring, "blue_adjacency_bits", "graphs.blue_adjacency_bits")

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Per-layer metrics (spans and counts) over everything recorded."""
        children = defaultdict(list)
        by_id = {}
        for sid, name, start, end, parent in self.spans:
            by_id[sid] = (name, parent)
            if parent is not None:
                children[parent].append((start, end))
        durations = defaultdict(list)
        self_time = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            durations[name].append(end - start)
            self_time[name] += (end - start) - _covered(start, end, children.get(sid, ()))
        out: dict[str, float] = {}
        for name in SPANS:
            ds = sorted(durations.get(name, ()))
            out[f"{name}.calls"] = len(ds)
            out[f"{name}.self_s"] = self_time.get(name, 0.0)
            out[f"{name}.busy_s"] = math.fsum(ds)
            out[f"{name}.p50_ms"] = _quantile(ds, 50.0) * 1e3 if ds else 0.0
            out[f"{name}.tail_ms"] = _quantile(ds, tail_percentile(len(ds))) * 1e3 if ds else 0.0
        trials = self.counts["construct.trials"]
        for key in COUNTS:
            out[key] = self.counts[key]
        out["construct.witness_frac"] = self.counts["construct.witnesses"] / trials if trials else 0.0
        in_trial = sum(
            1 for sid, name, *_ in self.spans
            if name == "graphs.red_adjacency_bits" and _has_ancestor(by_id, sid, "construct.run_trial")
        )
        out["graphs.red_adjacency_bits.calls_per_trial"] = in_trial / trials if trials else 0.0
        return out

    def spans_between(self, first: int, last: int, name: str) -> list[float]:
        """Durations of the spans named `name` recorded in [first, last)."""
        return [end - start for _, n, start, end, _ in self.spans[first:last] if n == name]


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def _has_ancestor(by_id, sid, name) -> bool:
    parent = by_id[sid][1]
    while parent is not None:
        pname, parent_next = by_id[parent]
        if pname == name:
            return True
        parent = parent_next
    return False
