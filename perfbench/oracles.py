"""Independent output checks for the benchmark.

Nothing here calls a ramseykit search kernel: files are parsed by the
benchmark's own readers and every structural claim (cliques, copies,
packings, embeddings) is re-decided by brute force over vertex subsets or
injective maps.  Each check returns a list of error strings; empty means the
output passed.
"""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path


def read_coloring(text: str) -> tuple[int, set[tuple[int, int]]]:
    """(order, red pairs with u < v) of an `n <N>` / `r <u> <v>` coloring file."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n = int(lines[0][1])
    red = set()
    for _, u, v in lines[1:]:
        a, b = int(u) - 1, int(v) - 1
        red.add((min(a, b), max(a, b)))
    return n, red


def write_graph(n: int, edges: list[tuple[int, int]]) -> str:
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    return "\n".join([f"p {n} {len(edges)}"] + [f"e {u + 1} {v + 1}" for u, v in edges]) + "\n"


def write_coloring(n: int, red: set[tuple[int, int]]) -> str:
    return "\n".join([f"n {n}"] + [f"r {u + 1} {v + 1}" for u, v in sorted(red)]) + "\n"


def adjacency(n: int, pairs) -> list[int]:
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def complement(n: int, adj: list[int]) -> list[int]:
    full = (1 << n) - 1
    return [full & ~(adj[v] | (1 << v)) for v in range(n)]


def has_copy(n: int, host: list[int], pn: int, pedges: list[tuple[int, int]]) -> bool:
    """Brute force over injective maps of the pattern's vertices into the host."""
    for image in itertools.permutations(range(n), pn):
        if all((host[image[a]] >> image[b]) & 1 for a, b in pedges):
            return True
    return False


def red_triangles(n: int, adj: list[int]):
    for u, v, w in itertools.combinations(range(n), 3):
        if (adj[u] >> v) & 1 and (adj[u] >> w) & 1 and (adj[v] >> w) & 1:
            yield (u, v, w)


def is_clique(adj: list[int], vs) -> bool:
    return all((adj[a] >> b) & 1 for a, b in itertools.combinations(vs, 2))


def packing_errors(n: int, red: set[tuple[int, int]], s: int,
                   members: list[list[int]], maximal: bool) -> list[str]:
    """Members are red s-cliques, pairwise edge-disjoint, and (if asked) maximal."""
    adj = adjacency(n, red)
    covered: set[tuple[int, int]] = set()
    errors = []
    for m in members:
        if len(set(m)) != s or not all(0 <= v < n for v in m) or not is_clique(adj, m):
            errors.append(f"member {m} is not a red {s}-clique")
            continue
        pairs = {(min(a, b), max(a, b)) for a, b in itertools.combinations(m, 2)}
        if pairs & covered:
            errors.append(f"member {m} shares an edge with an earlier member")
        covered |= pairs
    if maximal and not errors:
        for vs in itertools.combinations(range(n), s):
            if is_clique(adj, vs) and not any(
                (a, b) in covered for a, b in itertools.combinations(vs, 2)
            ):
                errors.append(f"packing not maximal: {list(vs)} is disjoint from it")
                break
    return errors


def greedy_triangle_packing_size(n: int, red: set[tuple[int, int]]) -> int:
    """Size of the lexicographic greedy maximal triangle packing (a lower bound
    that any maximum packing must reach)."""
    covered: set[tuple[int, int]] = set()
    size = 0
    for tri in red_triangles(n, adjacency(n, red)):
        pairs = {(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])}
        if not pairs & covered:
            covered |= pairs
            size += 1
    return size


def remove_red_triangles(n: int, red: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Recolor blue one edge of each red triangle until none is left."""
    red = set(red)
    adj = adjacency(n, red)
    for u, v in sorted(red):
        if adj[u] & adj[v]:
            red.discard((u, v))
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
    return red


def embedding_errors(n: int, red: set[tuple[int, int]], gn: int,
                     gedges: list[tuple[int, int]], assignment: list[list[int]]) -> list[str]:
    """Assignment covers every pattern vertex, is injective, and maps every
    pattern edge onto a blue pair of the host."""
    image = dict((g, h) for g, h in assignment)
    if sorted(image) != list(range(gn)):
        return ["assignment does not cover the pattern's vertices exactly"]
    if len(set(image.values())) != gn or not all(0 <= h < n for h in image.values()):
        return ["assignment is not injective into the host"]
    for a, b in gedges:
        x, y = image[a], image[b]
        if (min(x, y), max(x, y)) in red:
            return [f"pattern edge ({a}, {b}) lands on red pair ({x}, {y})"]
    return []


def tail_errors(empirical: float, bound: float, trials: int) -> list[str]:
    """Empirical tail frequency must not exceed the bound by more than 3 sigma."""
    b = min(bound, 1.0)
    sigma = math.sqrt(b * (1 - b) / trials)
    if empirical > b + 3 * sigma:
        return [f"empirical {empirical} exceeds bound {b} + 3 sigma {sigma}"]
    return []


class Schemas:
    """Validators for the CLI's published output schemas (docs/schemas)."""

    def __init__(self, schema_dir: Path):
        import jsonschema

        self._validators = {}
        for path in sorted(schema_dir.glob("*.schema.json")):
            schema = json.loads(path.read_text(encoding="utf-8"))
            cls = jsonschema.validators.validator_for(schema)
            self._validators[path.name.removesuffix(".schema.json")] = cls(schema)

    def errors(self, name: str, record) -> list[str]:
        validator = self._validators.get(name)
        if validator is None:
            return [f"no schema named {name}"]
        return [f"schema {name}: {e.message}" for e in validator.iter_errors(record)]
