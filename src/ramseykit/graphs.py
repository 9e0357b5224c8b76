"""Graph and coloring data model, densities, extremal builders, file formats.

Graphs are simple and undirected with contiguous 0-based vertex ids.  Both
constructors, `Graph(n, edges)` and `TwoColoring(n, red)`, take pairs in
either order and go through one pair validator, which stores each pair as
(u, v) with u < v and builds the adjacency bitmask rows.  A Graph keeps its
edges and rows.  A TwoColoring is a red/blue partition of all edges of K_n:
only its red rows are stored, blue is the exact complement, and the red pair
set is derived from the rows on first read.  Densities are exact rationals so
that comparisons feeding the exponent formulas never suffer float noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

from .bitset import iter_bits
from .errors import CapacityError, InputError, ParseError

Pair = tuple[int, int]

RHO_STAR_MAX_VERTICES = 20
# Largest vertex count a graph or coloring file header may declare.
MAX_PARSE_ORDER = 10_000


def _normalize_pair(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------

def _pairs_and_rows(n: int, pairs: Iterable[Pair]) -> tuple[frozenset[Pair], tuple[int, ...]]:
    """The pairs as a frozenset of (u, v) with u < v, and the adjacency rows
    they give on K_n: bit v of row u is set iff {u, v} is a pair.  A pair may
    come in either order, and (u, v) and (v, u) are the same pair.  Rejects a
    negative order, a vertex id that is not an integer, a self-loop and an id
    outside 0..n-1."""
    from operator import index

    if n < 0:
        raise InputError("order must be non-negative")
    try:
        pairs = frozenset(_normalize_pair(index(u), index(v)) for u, v in pairs)
    except TypeError as exc:
        raise InputError(f"vertex ids must be integers: {exc}") from exc
    rows = [0] * n
    for u, v in pairs:
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        if not (0 <= u and v < n):
            raise InputError(f"pair ({u}, {v}) outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return pairs, tuple(rows)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices {0, ..., n-1}; its adjacency rows
    are kept, but equality, hashing and repr use only (n, edges)."""

    n: int
    edges: frozenset[Pair] = frozenset()
    _rows: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        edges, rows = _pairs_and_rows(self.n, self.edges)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_rows", rows)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self._rows]

    def adjacency_bits(self) -> list[int]:
        """Bitmask of each vertex's neighbours, as a fresh list."""
        return list(self._rows)

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by least vertex."""
        adj = self._rows
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack, comp = [start], []
            seen[start] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in iter_bits(adj[v]):
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the center at vertex 0."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


@dataclass(frozen=True, init=False)
class TwoColoring:
    """Red/blue coloring of the edges of K_n.

    The red adjacency rows are the only state: bit v of row u is set iff the
    pair {u, v} is red, and blue is the complement.  The constructor takes the
    red pairs in either order, validates them and keeps only the rows built
    from them; `random_coloring`, `recolor_packing` and `induced_coloring`
    build rows directly (`_from_rows`).  `red_count` is read from the rows on
    each access.  `red`, the set of red pairs (u, v) with u < v, is derived
    from the rows on first read and kept.  No module of the package reads it.
    """

    n: int
    _rows: tuple[int, ...]

    def __init__(self, n: int, red: Iterable[Pair] = frozenset()):
        self.__dict__.update(n=n, red=red)
        self.__post_init__()

    def __post_init__(self):
        """Validate the constructor's pairs and keep only the rows they give.

        A method of its own so that `perfbench/tracing.py` can time it by name.
        """
        _, rows = _pairs_and_rows(self.n, self.__dict__.pop("red"))
        self.__dict__.update(_rows=rows)

    @classmethod
    def _from_rows(cls, rows: list[int]) -> TwoColoring:
        """The coloring of K_len(rows) whose red rows are `rows`.

        The caller guarantees symmetry (bit v of row u iff bit u of row v); an
        O(n) check rejects a bit outside 0..n-1 or on the diagonal.
        """
        n = len(rows)
        outside = -1 << n
        for u, row in enumerate(rows):
            if row & outside or row >> u & 1:
                raise InputError(f"red row {u} has a bit outside 0..{n - 1} or at {u}")
        out = object.__new__(cls)
        out.__dict__.update(n=n, _rows=tuple(rows))
        return out

    @property
    def red_count(self) -> int:
        return sum(map(int.bit_count, self._rows)) // 2

    @cached_property
    def red(self) -> frozenset[Pair]:
        return frozenset(
            (u, v) for u, row in enumerate(self._rows) for v in iter_bits(row & (-1 << (u + 1)))
        )

    def is_red(self, u: int, v: int) -> bool:
        # Both ids are range-checked: a negative index would read another row.
        return 0 <= u < self.n and 0 <= v < self.n and self._rows[u] >> v & 1 == 1

    def red_adjacency_bits(self) -> list[int]:
        """Bitmask of each vertex's red neighbours, as a fresh list."""
        return list(self._rows)

    def blue_adjacency_bits(self) -> list[int]:
        full = (1 << self.n) - 1
        red = self._rows
        return [full & ~(red[v] | (1 << v)) for v in range(self.n)]


def induced_coloring(col: TwoColoring, vertices: Iterable[int]) -> tuple[TwoColoring, tuple[int, ...]]:
    """Sub-coloring induced on `vertices`.

    Returns (sub, mapping) where mapping[i] is the original id of the i-th
    vertex of the sub-coloring; vertices are taken in ascending order.
    """
    vs = tuple(sorted(set(vertices)))
    if vs and not (0 <= vs[0] and vs[-1] < col.n):
        raise InputError("induced vertex set out of range")
    rows = col._rows
    return TwoColoring._from_rows(
        [sum(1 << i for i, w in enumerate(vs) if rows[v] >> w & 1) for v in vs]), vs


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

def rho_star(H: Graph) -> Fraction:
    """Maximum of (e - 1)/(v - 2) over the subgraphs of H with e edges on
    v >= 3 vertices, exact.

    For a fixed vertex subset the densest subgraph on it is the induced one,
    so it suffices to maximize over induced subgraphs on >= 3 vertices.  The
    enumeration is 2^v; RHO_STAR_MAX_VERTICES bounds v to keep that sane.
    """
    v = H.n
    if v < 3:
        raise InputError("rho_star is undefined below 3 vertices")
    if v > RHO_STAR_MAX_VERTICES:
        raise CapacityError(f"rho_star enumerates 2^{v} subsets; cap is {RHO_STAR_MAX_VERTICES} vertices")
    adj = H.adjacency_bits()
    ecount = [0] * (1 << v)
    best_num, best_den = None, 1
    for mask in range(1, 1 << v):
        low = mask & -mask
        rest = mask ^ low
        ecount[mask] = ecount[rest] + (adj[low.bit_length() - 1] & rest).bit_count()
        k = mask.bit_count()
        if k >= 3:
            num, den = ecount[mask] - 1, k - 2
            if best_num is None or num * best_den > best_num * den:
                best_num, best_den = num, den
    assert best_num is not None
    return Fraction(best_num, best_den)


# ---------------------------------------------------------------------------
# Extremal builder: disjoint cliques with a prescribed edge budget
# ---------------------------------------------------------------------------

def union_of_cliques_params(m: int, s: int) -> tuple[int, int]:
    """Clique order k and clique count for the disjoint-clique construction.

    k = m^(1/s) * (ln m)^((s-2)/s) rounded half-up and floored at 2; the count
    is then ceil(2m / (k(k-1))), which restores e(G) >= m after rounding.
    Rejects k * count above MAX_PARSE_ORDER, before any edge is built, since
    parse_graph must read the graph back.
    """
    if m < 3:
        raise InputError("edge budget m must be at least 3")
    if s < 3:
        raise InputError("clique-avoidance order s must be at least 3")
    k_real = m ** (1.0 / s) * math.log(m) ** ((s - 2) / s)
    k = max(2, math.floor(k_real + 0.5))
    count = math.ceil(2 * m / (k * (k - 1)))
    if k * count > MAX_PARSE_ORDER:
        raise CapacityError(f"{count} copies of K_{k} exceed the cap of {MAX_PARSE_ORDER} vertices")
    return k, count


def clique_union_edges(k: int, count: int) -> Iterator[Pair]:
    """The edges of `count` vertex-disjoint copies of K_k, copy c on the
    vertices c*k .. c*k + k - 1, in lexicographic order."""
    for base in range(0, k * count, k):
        for u in range(base, base + k - 1):
            for v in range(u + 1, base + k):
                yield u, v


def union_of_cliques(m: int, s: int) -> Graph:
    """Vertex-disjoint copies of K_k with at least m edges in total."""
    k, count = union_of_cliques_params(m, s)
    return Graph(k * count, clique_union_edges(k, count))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------
#
# Graph file:     header "p <n> <m>", then exactly m lines "e <u> <v>",
#                 1-based ids, u != v.
# Coloring file:  header "n <N>" (N >= 1), then zero or more lines "r <u> <v>"
#                 listing the red pairs; unlisted pairs are blue.
# Both headers are capped at MAX_PARSE_ORDER vertices.
#
# Serializers emit edges sorted lexicographically, one trailing newline per
# line, so serializer output is a parse/serialize fixed point.

def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {token!r}", lineno) from None


def _parse_pair_line(parts: list[str], tag: str, n: int, seen: set[Pair], lineno: int) -> Pair:
    if len(parts) != 3 or parts[0] != tag:
        raise ParseError(f"expected '{tag} <u> <v>'", lineno)
    u = _parse_int(parts[1], "vertex id", lineno)
    v = _parse_int(parts[2], "vertex id", lineno)
    if u == v:
        raise ParseError(f"self-loop at vertex {u}", lineno)
    if not (1 <= u <= n and 1 <= v <= n):
        raise ParseError(f"vertex id out of range 1..{n}", lineno)
    pair = _normalize_pair(u - 1, v - 1)
    if pair in seen:
        raise ParseError(f"duplicate edge {u} {v}", lineno)
    seen.add(pair)
    return pair


def parse_graph(text: str) -> Graph:
    lines = _significant_lines(text)
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise ParseError("empty input: missing 'p <n> <m>' header") from None
    parts = line.split()
    if len(parts) != 3 or parts[0] != "p":
        raise ParseError("malformed header, expected 'p <n> <m>'", lineno)
    n = _parse_int(parts[1], "vertex count", lineno)
    m = _parse_int(parts[2], "edge count", lineno)
    if n < 0 or m < 0:
        raise ParseError("header counts must be non-negative", lineno)
    if n > MAX_PARSE_ORDER:
        raise ParseError(f"vertex count {n} above the cap of {MAX_PARSE_ORDER}", lineno)
    seen: set[Pair] = set()
    for lineno, line in lines:
        if len(seen) == m:
            raise ParseError(f"unexpected line after {m} declared edges", lineno)
        _parse_pair_line(line.split(), "e", n, seen, lineno)
    if len(seen) != m:
        raise ParseError(f"header declares {m} edges but {len(seen)} were listed")
    return Graph(n, seen)


def serialize_edges(n: int, edge_count: int, edges: Iterable[Pair]) -> str:
    """The graph file of `edge_count` edges on n vertices, given as 0-based
    pairs in lexicographic order."""
    out = [f"p {n} {edge_count}"]
    out.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return "\n".join(out) + "\n"


def serialize_graph(g: Graph) -> str:
    return serialize_edges(g.n, g.edge_count, sorted(g.edges))


def parse_coloring(text: str) -> TwoColoring:
    lines = _significant_lines(text)
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise ParseError("empty input: missing 'n <N>' header") from None
    parts = line.split()
    if len(parts) != 2 or parts[0] != "n":
        raise ParseError("malformed header, expected 'n <N>'", lineno)
    n = _parse_int(parts[1], "order", lineno)
    if n < 1:
        raise ParseError("order must be at least 1", lineno)
    if n > MAX_PARSE_ORDER:
        raise ParseError(f"order {n} above the cap of {MAX_PARSE_ORDER}", lineno)
    seen: set[Pair] = set()
    for lineno, line in lines:
        _parse_pair_line(line.split(), "r", n, seen, lineno)
    return TwoColoring(n, seen)


def serialize_coloring(col: TwoColoring) -> str:
    out = [f"n {col.n}"]
    # Row by row, the columns above the diagonal: lexicographic pair order.
    out.extend(f"r {u + 1} {v + 1}" for u, row in enumerate(col._rows)
               for v in iter_bits(row & (-1 << (u + 1))))
    return "\n".join(out) + "\n"
