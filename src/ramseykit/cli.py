"""Command-line surface tying the library together.

Every subcommand prints a machine-readable JSON record (schemas live in
docs/schemas/); human text is a rendering of the same record.  Exit codes are
uniform: 0 for success / an affirmative result, 1 for a legitimate negative
outcome (no witness trial succeeded, embedding failed, value above cap), 2
for input errors, 3 for internal errors (a broken contract, an exhausted
search budget, any other uncaught exception), reported as one stderr line
"internal error: <type>: <message>" with nothing on stdout.  All output is
deterministic given the full flag set; one --seed flag governs all
randomness.  `construct --threads` is accepted and ignored, so it never
changes bytes.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bounds as bounds_mod
from .construct import (
    ConstructParams,
    chernoff_tail_check,
    construct_witness,
    erdos_tetali_check,
)
from .detect import max_edge_disjoint_packing
from .embed import embed_general
from .errors import CapacityError, EmbedFailure, InputError
from .exact import ramsey_number
from .graphs import (
    parse_coloring,
    parse_graph,
    serialize_coloring,
    serialize_graph,
    union_of_cliques,
    union_of_cliques_params,
)


def _load_graph(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read graph file {path}: {exc}") from exc
    return parse_graph(text)


def _load_coloring(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read coloring file {path}: {exc}") from exc
    return parse_coloring(text)


def _emit(record: dict) -> None:
    print(json.dumps(record, indent=2))


def cmd_bounds(args) -> int:
    H = _load_graph(args.graph) if args.graph else None
    pq = tuple(args.pq) if args.pq else None
    reports = bounds_mod.evaluate_all(
        args.s, args.m, t=args.t, H=H, k=args.k, pq=pq, ell=args.ell
    )
    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(f"{r.name} {r.value:g} [{r.role}] {r.constant_caveat}")
    return 0


def cmd_construct(args) -> int:
    G = _load_graph(args.G)
    params = ConstructParams(
        s=args.s,
        m=G.edge_count,
        n_override=args.n,
        p_override=args.p,
        trials=args.trials,
        seed=args.seed,
        node_budget=args.node_budget,
    )
    reports = construct_witness(params, G, threads=args.threads)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    trial_records = []
    for r in reports:
        record = {
            "trial_index": r.trial_index,
            "packing_size": r.packing_size,
            "red_Ks_free": r.red_Ks_free,
            "blue_G_status": r.blue_G_status,
            "red_edges_before": r.red_edges_before,
            "red_edges_after": r.red_edges_after,
        }
        if out_dir is not None:
            name = f"trial_{r.trial_index:04d}.coloring"
            (out_dir / name).write_text(serialize_coloring(r.coloring), encoding="utf-8")
            record["coloring_file"] = name
        trial_records.append(record)
    n = reports[0].coloring.n if reports else 0
    summary = {
        "s": args.s,
        "m": G.edge_count,
        "n": n,
        "trials": args.trials,
        "seed": args.seed,
        "any_blue_absent": any(r.blue_G_status == "absent" for r in reports),
        "reports": trial_records,
    }
    text = json.dumps(summary, indent=2)
    if out_dir is not None:
        (out_dir / "summary.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if summary["any_blue_absent"] else 1


def cmd_embed(args) -> int:
    col = _load_coloring(args.coloring)
    G = _load_graph(args.G)
    try:
        emb = embed_general(col, G, args.s, node_budget=args.node_budget)
    except EmbedFailure as exc:
        _emit({"status": "failed", "reason": str(exc)})
        return 1
    assignment = sorted(emb.assignment.items())
    _emit({"status": "embedded", "assignment": [[g, host] for g, host in assignment]})
    return 0


def cmd_pack(args) -> int:
    col = _load_coloring(args.coloring)
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
    H = _load_graph(args.H)
    G = _load_graph(args.G)
    value = ramsey_number(H, G, args.cap)
    if value is None:
        _emit({"ramsey": None, "greater_than": args.cap})
        return 1
    _emit({"ramsey": value})
    return 0


def cmd_gen_union(args) -> int:
    k, count = union_of_cliques_params(args.m, args.s)
    g = union_of_cliques(args.m, args.s)
    text = serialize_graph(g)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    _emit({
        "m": args.m,
        "s": args.s,
        "k": k,
        "count": count,
        "n": g.n,
        "edges": g.edge_count,
        "graph": text,
    })
    return 0


def cmd_stats_chernoff(args) -> int:
    empirical, bound = chernoff_tail_check(args.m, args.p, args.a, args.trials, args.seed)
    _emit({
        "m": args.m, "p": args.p, "a": args.a,
        "trials": args.trials, "seed": args.seed,
        "empirical": empirical, "bound": bound,
    })
    return 0


def cmd_stats_erdos_tetali(args) -> int:
    empirical, bound = erdos_tetali_check(args.n, args.p, args.s, args.k, args.trials, args.seed)
    _emit({
        "n": args.n, "p": args.p, "s": args.s, "k": args.k,
        "trials": args.trials, "seed": args.seed,
        "empirical": empirical, "bound": bound,
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--cap", type=int, default=9)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
