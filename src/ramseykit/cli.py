"""Command-line surface tying the library together.

Every subcommand prints a machine-readable JSON record (schemas live in
docs/schemas/), except `bounds`, which prints one text line per report unless
given --json.  Exit codes are uniform: 0 for success / an affirmative result,
1 for a legitimate negative outcome (no witness trial succeeded, embedding
failed, value above cap), 2 for input errors, argparse usage errors,
unreadable input files, unwritable --out paths and numbers too large for
floating point included, printed as one stderr line "error: <message>", 3 for
internal errors (a broken contract, an exhausted search budget, any other
uncaught exception), printed as one stderr line
"internal error: <type>: <message>".
Exits 2 and 3 leave stdout empty.  A stdout closed by its reader, as in
`ramseykit gen-union ... | head`, ends the command quietly with 141
(128 + SIGPIPE, the status of a writer that a closed pipe stopped) and
nothing on stderr.  All output is deterministic given the
full flag set; one --seed flag governs all randomness.  `construct
--threads` is accepted and ignored, so it never changes bytes.

Importing this module or building its parser loads only `ramseykit.errors`
from the package, so a fresh process compiles no more of the package than its
command runs.  Each command imports its modules when it runs: `gen-union`
loads `graphs` (with `bitset`), `bounds` adds `bounds`, `pack` adds `detect`,
`exact` and `embed` add `detect` and their namesake, and `construct` and both
`stats` commands add `detect` and `construct`, with numpy for `stats chernoff`.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

from .errors import CapacityError, EmbedFailure, InputError


def _load(path: str, parse):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read file {path}: {exc}") from exc
    return parse(text)


@contextlib.contextmanager
def _writing(path):
    """An OSError while writing `path` is bad input, as in `_load`."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _emit(record: dict) -> None:
    print(json.dumps(record, indent=2))


def cmd_bounds(args) -> int:
    from .bounds import evaluate_all
    from .graphs import parse_graph

    H = _load(args.graph, parse_graph) if args.graph else None
    pq = tuple(args.pq) if args.pq else None
    reports = evaluate_all(
        args.s, args.m, t=args.t, H=H, k=args.k, pq=pq, ell=args.ell
    )
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in reports], indent=2))
    else:
        for r in reports:
            print(f"{r.name} {r.value:g} [{r.role}] {r.constant_caveat}")
    return 0


def cmd_construct(args) -> int:
    from .construct import construct_witness
    from .graphs import parse_graph, serialize_coloring

    G = _load(args.G, parse_graph)
    out_dir = Path(args.out) if args.out else None
    created = []
    if out_dir is not None:
        with _writing(out_dir):
            created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
            out_dir.mkdir(parents=True, exist_ok=True)
    try:
        reports = construct_witness(G, args.s, trials=args.trials, seed=args.seed, n=args.n,
                                    p=args.p, node_budget=args.node_budget, threads=args.threads)
    except BaseException:
        # A run that fails here leaves none of the directories it made.
        for d in created:
            d.rmdir()
        raise
    trial_records = []
    for r in reports:
        # Every report field but the coloring, in field order.
        record = {key: value for key, value in vars(r).items() if key != "coloring"}
        if out_dir is not None:
            path = out_dir / f"trial_{r.trial_index:04d}.coloring"
            with _writing(path):
                path.write_text(serialize_coloring(r.coloring), encoding="utf-8")
            record["coloring_file"] = path.name
        trial_records.append(record)
    summary = {
        "s": args.s,
        "m": G.edge_count,
        "n": reports[0].coloring.n,
        "trials": args.trials,
        "seed": args.seed,
        "any_blue_absent": any(r.blue_G_status == "absent" for r in reports),
        "reports": trial_records,
    }
    text = json.dumps(summary, indent=2)
    if out_dir is not None:
        path = out_dir / "summary.json"
        with _writing(path):
            path.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if summary["any_blue_absent"] else 1


def cmd_embed(args) -> int:
    from .embed import embed_general
    from .graphs import parse_coloring, parse_graph

    col = _load(args.coloring, parse_coloring)
    G = _load(args.G, parse_graph)
    try:
        emb = embed_general(col, G, args.s, node_budget=args.node_budget)
    except EmbedFailure as exc:
        _emit({"status": "failed", "reason": str(exc)})
        return 1
    assignment = sorted(emb.assignment.items())
    _emit({"status": "embedded", "assignment": [[g, host] for g, host in assignment]})
    return 0


def cmd_pack(args) -> int:
    from .detect import max_edge_disjoint_packing
    from .graphs import parse_coloring

    col = _load(args.coloring, parse_coloring)
    mode = "exact" if args.exact else "greedy"
    packing = max_edge_disjoint_packing(col, args.s, mode)
    _emit({
        "s": args.s,
        "mode": mode,
        "size": packing.size,
        "members": [list(member) for member in packing.members],
    })
    return 0


def cmd_exact(args) -> int:
    from .exact import ramsey_number
    from .graphs import parse_graph

    H = _load(args.H, parse_graph)
    G = _load(args.G, parse_graph)
    value = ramsey_number(H, G, args.cap)
    if value is None:
        _emit({"ramsey": None, "greater_than": args.cap})
        return 1
    _emit({"ramsey": value})
    return 0


def cmd_gen_union(args) -> int:
    from .graphs import clique_union_edges, serialize_edges, union_of_cliques_params

    k, count = union_of_cliques_params(args.m, args.s)
    n, edge_count = k * count, count * (k * (k - 1) // 2)
    text = serialize_edges(n, edge_count, clique_union_edges(k, count))
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(text, encoding="utf-8")
    _emit({
        "m": args.m,
        "s": args.s,
        "k": k,
        "count": count,
        "n": n,
        "edges": edge_count,
        "graph": text,
    })
    return 0


def cmd_stats_chernoff(args) -> int:
    from .construct import chernoff_tail_check

    empirical, bound = chernoff_tail_check(args.m, args.p, args.a, args.trials, args.seed)
    _emit({
        "m": args.m, "p": args.p, "a": args.a,
        "trials": args.trials, "seed": args.seed,
        "empirical": empirical, "bound": bound,
    })
    return 0


def cmd_stats_erdos_tetali(args) -> int:
    from .construct import erdos_tetali_check

    empirical, bound = erdos_tetali_check(args.n, args.p, args.s, args.k, args.trials, args.seed)
    _emit({
        "n": args.n, "p": args.p, "s": args.s, "k": args.k,
        "trials": args.trials, "seed": args.seed,
        "empirical": empirical, "bound": bound,
    })
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and then shared: `parse_args`
    returns a fresh namespace each call and `_Parser.error` only raises, so
    no call leaves state in it."""
    parser = _Parser(
        prog="ramseykit",
        description="Ramsey-number toolkit: witness construction, embedding, "
                    "exact search, packing, and bound evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="evaluate the bound formulas")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--graph", type=str, default=None, help="graph file for the density-driven lower bound")
    p.add_argument("--pq", type=int, nargs=2, default=None, metavar=("P", "Q"))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--ell", type=int, default=2, help="chromatic number input for the m^sqrt(t) report")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("construct", help="run witness-search trials")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--G", type=str, required=True, help="target graph file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=str, default=None, help="directory for per-trial coloring files")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: trials run in order on one thread")
    p.add_argument("--node-budget", type=int, default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("embed", help="greedily embed a blue copy of G")
    p.add_argument("--coloring", type=str, required=True)
    p.add_argument("--G", type=str, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--node-budget", type=int, default=None)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("pack", help="edge-disjoint red clique packing")
    p.add_argument("--coloring", type=str, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("exact", help="exact Ramsey number by exhaustive search")
    p.add_argument("--H", type=str, required=True, help="red-side graph file")
    p.add_argument("--G", type=str, required=True, help="blue-side graph file")
    p.add_argument("--cap", type=int, default=9,
                   help="highest order n to search (default %(default)s); reaching an "
                        "order beyond the search's edge cap exits 2")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("gen-union", help="disjoint-clique graph with >= m edges")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_gen_union)

    p = sub.add_parser("stats", help="Monte Carlo tail-bound validators")
    stats_sub = p.add_subparsers(dest="stat", required=True)

    q = stats_sub.add_parser("chernoff")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--a", type=float, required=True)
    q.add_argument("--trials", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.set_defaults(func=cmd_stats_chernoff)

    q = stats_sub.add_parser("erdos-tetali")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--trials", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.set_defaults(func=cmd_stats_erdos_tetali)

    return parser


def _stdout_to_devnull() -> None:
    """Point fd 1 at the null device, so that the flush of stdout at
    interpreter exit has somewhere to go.  A stdout with no file descriptor,
    such as an in-process StringIO, is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        # A closed pipe shows on the flush of the last block at the latest.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout stopped early: end quietly, with the status of
        # a writer that SIGPIPE stopped.
        _stdout_to_devnull()
        return 141
    except (InputError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        # The kernels work only on Python ints, and every float in the package
        # is a closed form of argv or file magnitudes, so an overflow always
        # means an input too large to evaluate, never a broken contract.
        print("error: an input is too large to evaluate in floating point", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
