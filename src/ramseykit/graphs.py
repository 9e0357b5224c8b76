"""Graph and coloring data model, densities, extremal builders, file formats.

Graphs are simple and undirected with contiguous 0-based vertex ids; edges are
stored as normalized pairs (u, v) with u < v.  A TwoColoring is a red/blue
partition of all edges of K_n: its red adjacency bitmask rows are stored, the
red pair set is derived from them on first use, and blue is the exact
complement.  Densities are exact rationals so that comparisons feeding the
exponent formulas never suffer float noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

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

@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices {0, ..., n-1}."""

    n: int
    edges: frozenset[Pair] = frozenset()

    def __post_init__(self):
        if self.n < 0:
            raise InputError("vertex count must be non-negative")
        edges = frozenset((int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise InputError(f"edge ({u}, {v}) not normalized within 0..{self.n - 1}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_pair(u, v) in self.edges

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency_sets(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def adjacency_bits(self) -> list[int]:
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by least vertex."""
        adj = self.adjacency_sets()
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
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps


def graph_from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph, normalizing pair order and rejecting self-loops."""
    return Graph(n, frozenset(_normalize_pair(u, v) for u, v in pairs))


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the center at vertex 0."""
    return Graph(leaves + 1, frozenset((0, i) for i in range(1, leaves + 1)))


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    n = 0
    edges: list[Pair] = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges)
        n += g.n
    return Graph(n, frozenset(edges))


@dataclass(frozen=True, init=False)
class TwoColoring:
    """Red/blue coloring of the edges of K_n.

    The red adjacency rows are the canonical state: bit v of row u is set iff
    the pair {u, v} is red, and blue is the complement.  The constructor
    validates a pair set and builds the rows from it; `random_coloring` and
    `recolor_blue` build rows directly (`_from_rows`) and hold no pair set.
    `red`, the set of red pairs (u, v) with u < v, is then derived from the
    rows on first use and kept.
    """

    n: int
    red_count: int
    _rows: tuple[int, ...]

    def __init__(self, n: int, red: Iterable[Pair] = frozenset()):
        self.__dict__.update(n=n, red=red)
        self.__post_init__()

    def __post_init__(self):
        """Validate the pairs given to the constructor and build the rows.

        A method of its own so that `perfbench/tracing.py` can time it by name.
        """
        n = self.n
        if n < 0:
            raise InputError("order must be non-negative")
        red = frozenset((int(u), int(v)) for u, v in self.red)
        rows = [0] * n
        for u, v in red:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < v < n):
                raise InputError(f"pair ({u}, {v}) not normalized within 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.__dict__.update(red=red, red_count=len(red), _rows=tuple(rows))

    @classmethod
    def _from_rows(cls, rows: list[int]) -> TwoColoring:
        """The coloring of K_len(rows) whose red rows are `rows`.

        The caller guarantees symmetry (bit v of row u iff bit u of row v); an
        O(n) check rejects a bit outside 0..n-1 or on the diagonal.
        """
        n = len(rows)
        outside = -1 << n
        ends = 0
        for u, row in enumerate(rows):
            if row & outside or row >> u & 1:
                raise InputError(f"red row {u} has a bit outside 0..{n - 1} or at {u}")
            ends += row.bit_count()
        out = object.__new__(cls)
        out.__dict__.update(n=n, red_count=ends // 2, _rows=tuple(rows))
        return out

    @cached_property
    def red(self) -> frozenset[Pair]:
        return frozenset(
            (u, v) for u, row in enumerate(self._rows) for v in iter_bits(row & (-1 << (u + 1)))
        )

    @property
    def total_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def blue_count(self) -> int:
        return self.total_pairs - self.red_count

    def is_red(self, u: int, v: int) -> bool:
        # Both ids are range-checked: a negative index would read another row.
        return 0 <= u < self.n and 0 <= v < self.n and self._rows[u] >> v & 1 == 1

    def is_blue(self, u: int, v: int) -> bool:
        return u != v and not self.is_red(u, v)

    def red_adjacency_bits(self) -> list[int]:
        """Bitmask of each vertex's red neighbours, as a fresh list."""
        return list(self._rows)

    def blue_adjacency_bits(self) -> list[int]:
        full = (1 << self.n) - 1
        red = self._rows
        return [full & ~(red[v] | (1 << v)) for v in range(self.n)]

    def recolor_blue(self, cliques: Iterable[Sequence[int]]) -> TwoColoring:
        """This coloring with every pair inside each of `cliques` recolored blue.

        A pair is a 2-clique.  Every pair of every clique must be red when its
        clique is reached, so a pair shared by two cliques, a repeated or
        out-of-range vertex, or a blue pair raises InputError.  The result's
        rows are these rows with one vertex mask cleared per clique member.
        """
        n = self.n
        rows = list(self._rows)
        for clique in cliques:
            mask = 0
            for v in clique:
                if not 0 <= v < n:
                    raise InputError(f"vertex {v} out of range 0..{n - 1}")
                mask |= 1 << v
            if mask.bit_count() != len(clique):
                raise InputError(f"clique {tuple(clique)} repeats a vertex")
            for v in clique:
                if (mask ^ 1 << v) & ~rows[v]:
                    raise InputError(f"clique {tuple(clique)} has a pair that is not red")
                rows[v] &= ~mask
        return TwoColoring._from_rows(rows)


def coloring_from_red(n: int, pairs: Iterable[tuple[int, int]]) -> TwoColoring:
    return TwoColoring(n, frozenset(_normalize_pair(u, v) for u, v in pairs))


def induced_coloring(col: TwoColoring, vertices: Iterable[int]) -> tuple[TwoColoring, tuple[int, ...]]:
    """Sub-coloring induced on `vertices`.

    Returns (sub, mapping) where mapping[i] is the original id of the i-th
    vertex of the sub-coloring; vertices are taken in ascending order.
    """
    vs = tuple(sorted(set(vertices)))
    if vs and not (0 <= vs[0] and vs[-1] < col.n):
        raise InputError("induced vertex set out of range")
    index = {v: i for i, v in enumerate(vs)}
    red = frozenset(
        (index[u], index[v]) for u, v in col.red if u in index and v in index
    )
    return TwoColoring(len(vs), red), vs


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

def density(H: Graph) -> Fraction:
    """Edge density (e_H - 1)/(v_H - 2), exact; defined for v_H >= 3."""
    if H.n < 3:
        raise InputError("density is undefined below 3 vertices")
    return Fraction(H.edge_count - 1, H.n - 2)


def rho_star(H: Graph, cap: int = RHO_STAR_MAX_VERTICES) -> Fraction:
    """Maximum of density over all subgraphs of H, exact.

    For a fixed vertex subset the densest subgraph on it is the induced one,
    so it suffices to maximize over induced subgraphs on >= 3 vertices.  The
    enumeration is 2^v; `cap` bounds v to keep that sane.
    """
    v = H.n
    if v < 3:
        raise InputError("rho_star is undefined below 3 vertices")
    if v > cap:
        raise CapacityError(f"rho_star enumerates 2^{v} subsets; cap is {cap} vertices")
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
    """
    if m < 3:
        raise InputError("edge budget m must be at least 3")
    if s < 3:
        raise InputError("clique-avoidance order s must be at least 3")
    k_real = m ** (1.0 / s) * math.log(m) ** ((s - 2) / s)
    k = max(2, math.floor(k_real + 0.5))
    count = math.ceil(2 * m / (k * (k - 1)))
    return k, count


def union_of_cliques(m: int, s: int) -> Graph:
    """Vertex-disjoint copies of K_k with at least m edges in total."""
    k, count = union_of_cliques_params(m, s)
    edges = []
    for c in range(count):
        base = c * k
        edges.extend((base + u, base + v) for u in range(k) for v in range(u + 1, k))
    return Graph(count * k, frozenset(edges))


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
    return Graph(n, frozenset(seen))


def serialize_graph(g: Graph) -> str:
    out = [f"p {g.n} {g.edge_count}"]
    out.extend(f"e {u + 1} {v + 1}" for u, v in sorted(g.edges))
    return "\n".join(out) + "\n"


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
    return TwoColoring(n, frozenset(seen))


def serialize_coloring(col: TwoColoring) -> str:
    out = [f"n {col.n}"]
    # Row by row, the columns above the diagonal: lexicographic pair order.
    out.extend(f"r {u + 1} {v + 1}" for u, row in enumerate(col._rows)
               for v in iter_bits(row & (-1 << (u + 1))))
    return "\n".join(out) + "\n"
