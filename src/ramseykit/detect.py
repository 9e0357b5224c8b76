"""Monochromatic structure detection in two-colorings of K_n.

Everything here is a deterministic backtracking search over bitmask
adjacency: clique finding, subgraph-isomorphism copies of a pattern graph,
greedy/exact edge-disjoint clique packing, and degree extrema.  Scan orders
are lexicographic throughout so results are reproducible without seeds.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Literal

from .bitset import bits_of, iter_bits
from .errors import CapacityError, InputError, SearchBudgetExceeded
from .graphs import Graph, TwoColoring, _normalize_pair

Color = Literal["red", "blue"]

DEFAULT_NODE_BUDGET = 10**8
EXACT_PACKING_MAX_N = 12


def color_adjacency_bits(col: TwoColoring, color: Color) -> list[int]:
    if color == "red":
        return col.red_adjacency_bits()
    if color == "blue":
        return col.blue_adjacency_bits()
    raise InputError(f"color must be 'red' or 'blue', got {color!r}")


@dataclass(frozen=True)
class CliquePacking:
    """Family of pairwise edge-disjoint monochromatic s-cliques."""

    s: int
    members: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def pairs(self) -> set[tuple[int, int]]:
        """All unordered pairs covered by the members."""
        covered: set[tuple[int, int]] = set()
        for member in self.members:
            for i in range(len(member)):
                for j in range(i + 1, len(member)):
                    covered.add(_normalize_pair(member[i], member[j]))
        return covered


@dataclass(frozen=True)
class EmbeddingMap:
    """Injective vertex map witnessing a monochromatic copy of `source`."""

    source: Graph
    assignment: dict[int, int]

    def validates(self, col: TwoColoring, color: Color) -> bool:
        """Revalidate from scratch: injectivity plus per-edge color check."""
        images = list(self.assignment.values())
        if len(self.assignment) != self.source.n or len(set(images)) != len(images):
            return False
        if any(not (0 <= w < col.n) for w in images):
            return False
        want_red = color == "red"
        for u, v in self.source.edges:
            if u not in self.assignment or v not in self.assignment:
                return False
            if col.is_red(self.assignment[u], self.assignment[v]) != want_red:
                return False
        return True


def check_node_budget(node_budget: int | None) -> None:
    """A given node budget must allow at least one node."""
    if node_budget is not None and node_budget < 1:
        raise InputError(f"node budget must be at least 1, got {node_budget}")


class _NodeCounter:
    __slots__ = ("count", "budget")

    def __init__(self, budget: int | None):
        self.count = 0
        self.budget = budget

    def tick(self):
        self.count += 1
        if self.budget is not None and self.count > self.budget:
            raise SearchBudgetExceeded(f"search exceeded node budget of {self.budget}")


# ---------------------------------------------------------------------------
# The two search kernels
# ---------------------------------------------------------------------------
#
# Both are depth-first searches driven by an explicit stack, so their depth is
# not limited by the interpreter's recursion limit.  Each ticks `counter` once
# per prefix visited, the empty prefix included.

def _cliques(adj: list[int], cand: int, s: int,
             counter: _NodeCounter | None = None) -> Iterator[tuple[int, ...]]:
    """Yield every s-clique inside the vertex mask `cand`, in lexicographic order.

    A prefix whose candidates cannot complete it to s vertices is not extended.
    """
    if counter is not None:
        counter.tick()
    if cand.bit_count() < s:
        return
    if s == 0:
        yield ()
        return
    prefix: list[int] = []
    # rests[d]: candidates for position d not yet tried, all above prefix[d - 1]
    # and adjacent to every vertex of the prefix.
    rests = [cand]
    while True:
        rest = rests[-1]
        if not rest:
            if not prefix:
                return
            rests.pop()
            prefix.pop()
            continue
        low = rest & -rest
        rest ^= low
        rests[-1] = rest
        v = low.bit_length() - 1
        if counter is not None:
            counter.tick()
        depth = len(prefix) + 1
        if depth == s:
            yield (*prefix, v)
            continue
        rest &= adj[v]
        if depth + rest.bit_count() >= s:
            prefix.append(v)
            rests.append(rest)


def _place(adj: list[int], cand_mask: list[int], placed_nbrs: list[list[int]],
           counter: _NodeCounter | None = None) -> list[int] | None:
    """First injective image of a pattern on the host graph `adj`, or None.

    Position i of the pattern goes to a host vertex in `cand_mask[i]` adjacent
    to the images of the earlier positions `placed_nbrs[i]`.  Host vertices are
    tried in ascending order, so the image is the lexicographically least one.
    The empty pattern has the empty image and visits no prefix.
    """
    k = len(cand_mask)
    if k == 0:
        return []
    if counter is not None:
        counter.tick()
    image: list[int] = []
    used = 0
    # rests[i]: host candidates for position i not yet tried.
    rests = [cand_mask[0]]
    while True:
        rest = rests[-1]
        if not rest:
            if not image:
                return None
            rests.pop()
            used ^= 1 << image.pop()
            continue
        low = rest & -rest
        rests[-1] = rest ^ low
        image.append(low.bit_length() - 1)
        used |= low
        if counter is not None:
            counter.tick()
        i = len(image)
        if i == k:
            return image
        cand = cand_mask[i] & ~used
        for j in placed_nbrs[i]:
            cand &= adj[image[j]]
        rests.append(cand)


# ---------------------------------------------------------------------------
# Clique search
# ---------------------------------------------------------------------------

def find_clique(col: TwoColoring, color: Color, s: int,
                node_budget: int | None = None) -> tuple[int, ...] | None:
    """First s-set (in lexicographic backtracking order) monochromatic in `color`.

    Returns None when no such clique exists; raises SearchBudgetExceeded when
    a node budget is given and runs out before the search decides.
    """
    if s < 1:
        raise InputError("clique order must be at least 1")
    check_node_budget(node_budget)
    if s > col.n:
        return None
    adj = color_adjacency_bits(col, color)
    return next(_cliques(adj, (1 << col.n) - 1, s, _NodeCounter(node_budget)), None)


# ---------------------------------------------------------------------------
# Subgraph-isomorphism copies (not induced)
# ---------------------------------------------------------------------------

def find_copy(col: TwoColoring, color: Color, G: Graph,
              node_budget: int | None = DEFAULT_NODE_BUDGET) -> EmbeddingMap | None:
    """First monochromatic copy of G, as an injective vertex map, or None.

    Backtracking places pattern vertices in decreasing-degree order; a host
    candidate must have monochromatic degree at least the pattern degree and
    be adjacent (in the color) to every already-placed pattern neighbor.
    Absence is exact unless the node budget runs out, which raises
    SearchBudgetExceeded instead of returning None.
    """
    check_node_budget(node_budget)
    n, vg = col.n, G.n
    if vg > n:
        return None
    adj = color_adjacency_bits(col, color)
    host_deg = [a.bit_count() for a in adj]
    gdeg = G.degrees()
    gadj = G.adjacency_sets()
    order = sorted(range(vg), key=lambda g: (-gdeg[g], g))
    pos = {g: i for i, g in enumerate(order)}
    placed_nbrs = [[pos[h] for h in gadj[g] if pos[h] < i] for i, g in enumerate(order)]
    at_least = {d: bits_of(w for w in range(n) if host_deg[w] >= d) for d in set(gdeg)}
    deg_mask = [at_least[gdeg[g]] for g in order]
    image = _place(adj, deg_mask, placed_nbrs, _NodeCounter(node_budget))
    if image is None:
        return None
    return EmbeddingMap(G, dict(zip(order, image)))


# ---------------------------------------------------------------------------
# Edge-disjoint red clique packing
# ---------------------------------------------------------------------------

def _greedy_packing(adj: list[int], n: int, s: int) -> Iterator[tuple[int, ...]]:
    """Maximal edge-disjoint packing, yielded member by member: each s-clique
    (s >= 2), in lexicographic order, joins the packing unless one of its
    pairs is already covered.

    The search runs on `live`, the rows of `adj` minus the covered pairs, so
    it never lists a clique it would reject.  It yields the same members as
    filtering every clique: member i + 1 of the filter is the least clique of
    `live` after members 1..i, because covered pairs only grow (a clique
    rejected once stays rejected, and one before member i that was still in
    `live` would have joined before it).  After a member (u0, u1, ..., v) is
    yielded, its pairs leave `live` and the search resumes at depth 1 under
    u0: every prefix of the member of length >= 2 now holds a covered pair,
    and the untried second vertices, all above u1, are masked with live[u0].
    Deeper levels are rebuilt from `live` as the search descends, so the next
    clique reached is the least clique of `live` above the last member.
    """
    live = list(adj)
    prefix: list[int] = []
    # rests[d]: candidates for position d not yet tried, all above prefix[d - 1]
    # and adjacent in `live` to every vertex of the prefix.
    rests = [(1 << n) - 1]
    while True:
        rest = rests[-1]
        if not rest:
            if not prefix:
                return
            rests.pop()
            prefix.pop()
            continue
        low = rest & -rest
        rest ^= low
        rests[-1] = rest
        v = low.bit_length() - 1
        depth = len(prefix) + 1
        if depth == s:
            member = (*prefix, v)
            yield member
            mask = low
            for u in prefix:
                mask |= 1 << u
            for u in member:
                live[u] &= ~mask
            u0 = prefix[0]
            del prefix[1:], rests[2:]
            rests[1] &= live[u0]
            continue
        rest &= live[v]
        if depth + rest.bit_count() >= s:
            prefix.append(v)
            rests.append(rest)


def _exact_packing(adj: list[int], n: int, s: int,
                   target: int | None = None) -> list[tuple[int, ...]]:
    """Maximum-cardinality edge-disjoint packing by branch and bound.

    With a `target` k the search decides whether k members fit instead: it
    stops as soon as it has chosen k cliques and prunes every branch whose
    bound is below k, so it returns k members when k fit and fewer otherwise.
    """
    cliques = list(_cliques(adj, (1 << n) - 1, s))
    if not cliques:
        return []
    pair_bit = {}
    for u in range(n):
        for v in iter_bits(adj[u] & (-1 << (u + 1))):
            pair_bit[(u, v)] = len(pair_bit)
    all_pairs_mask = (1 << len(pair_bit)) - 1
    per_clique = math.comb(s, 2)
    masks = []
    for member in cliques:
        mask = 0
        for i in range(s):
            for j in range(i + 1, s):
                mask |= 1 << pair_bit[(member[i], member[j])]
        masks.append(mask)

    best: list[tuple[int, ...]] = []

    def rec(i: int, used: int, chosen: list[tuple[int, ...]]) -> bool:
        """Search the cliques from i on; True once `target` members are chosen."""
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
            if len(best) == target:
                return True
        if i == len(cliques):
            return False
        # The smallest size worth reaching: beyond the best so far, or the target.
        need = len(best) + 1 if target is None else target
        free = (all_pairs_mask & ~used).bit_count() // per_clique
        if len(chosen) + min(len(cliques) - i, free) < need:
            return False
        if not (masks[i] & used):
            chosen.append(cliques[i])
            found = rec(i + 1, used | masks[i], chosen)
            chosen.pop()
            if found:
                return True
        return rec(i + 1, used, chosen)

    rec(0, 0, [])
    return best


def max_edge_disjoint_packing(col: TwoColoring, s: int,
                              mode: Literal["greedy", "exact"] = "greedy") -> CliquePacking:
    """Edge-disjoint packing of red s-cliques.

    Greedy mode returns a maximal packing (no red s-clique is edge-disjoint
    from all members), which is what the recoloring step needs; exact mode
    returns a maximum-cardinality packing and is capped at n <= 12 because
    maximum packing is a hard search problem.
    """
    if s < 2:
        raise InputError("clique order must be at least 2")
    if mode not in ("greedy", "exact"):
        raise InputError(f"mode must be 'greedy' or 'exact', got {mode!r}")
    if mode == "exact" and col.n > EXACT_PACKING_MAX_N:
        raise CapacityError(f"exact packing capped at n <= {EXACT_PACKING_MAX_N}")
    adj = col.red_adjacency_bits()
    if mode == "greedy":
        members = _greedy_packing(adj, col.n, s)
    else:
        members = _exact_packing(adj, col.n, s)
    return CliquePacking(s=s, members=tuple(members))


def packing_reaches(col: TwoColoring, s: int, k: int) -> bool:
    """Whether some k red s-cliques of `col` are pairwise edge-disjoint.

    Decides X0 >= k, X0 the maximum packing size, without computing X0.  Three
    exits come first, each sound on its own: fewer than k * C(s,2) red pairs
    (False); k members of one lazy greedy pass, which are edge-disjoint (True);
    fewer than k red s-cliques (False).  Otherwise the exact branch and bound
    runs with target k.
    """
    if s < 2:
        raise InputError("clique order must be at least 2")
    if k < 1:
        raise InputError("k must be at least 1")
    if col.n > EXACT_PACKING_MAX_N:
        raise CapacityError(f"exact packing capped at n <= {EXACT_PACKING_MAX_N}")
    if col.red_count < k * math.comb(s, 2):
        return False
    adj = col.red_adjacency_bits()
    if _count_up_to(_greedy_packing(adj, col.n, s), k) == k:
        return True
    if _count_up_to(_cliques(adj, (1 << col.n) - 1, s), k) < k:
        return False
    return len(_exact_packing(adj, col.n, s, k)) == k


def _count_up_to(items: Iterator, k: int) -> int:
    """Number of items, counting no further than k."""
    return sum(1 for _ in itertools.islice(items, k))


def max_red_degree_vertex(col: TwoColoring) -> tuple[int, int]:
    """Vertex with maximum red degree, ties broken by smallest id."""
    if col.n < 1:
        raise InputError("coloring must have at least one vertex")
    adj = col.red_adjacency_bits()
    best_v, best_d = 0, adj[0].bit_count()
    for v in range(1, col.n):
        d = adj[v].bit_count()
        if d > best_d:
            best_v, best_d = v, d
    return best_v, best_d
