"""Monochromatic structure detection in two-colorings of K_n.

Everything here is a deterministic backtracking search over bitmask
adjacency: clique finding, subgraph-isomorphism copies of a pattern graph,
and greedy/exact edge-disjoint clique packing.  Scan orders are
lexicographic throughout so results are reproducible without seeds.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

from .bitset import bits_of, iter_bits
from .errors import CapacityError, InputError, SearchBudgetExceeded
from .graphs import Graph, TwoColoring

Color = Literal["red", "blue"]

EXACT_PACKING_MAX_N = 12


def check_color(color: Color) -> None:
    if color != "red" and color != "blue":
        raise InputError(f"color must be 'red' or 'blue', got {color!r}")


def color_adjacency_bits(col: TwoColoring, color: Color) -> list[int]:
    if color == "red":
        return col.red_adjacency_bits()
    check_color(color)
    return col.blue_adjacency_bits()


@dataclass(frozen=True)
class CliquePacking:
    """Family of pairwise edge-disjoint monochromatic s-cliques."""

    members: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class EmbeddingMap:
    """Injective vertex map witnessing a monochromatic copy of `source`."""

    source: Graph
    assignment: dict[int, int]

    def validates(self, col: TwoColoring, color: Color) -> bool:
        """Revalidate from scratch: the keys are exactly the pattern's
        vertices, the map is injective, and every edge has the color."""
        check_color(color)
        n = self.source.n
        images = set(self.assignment.values())
        if self.assignment.keys() != set(range(n)) or len(images) != n:
            return False
        if any(not (0 <= w < col.n) for w in images):
            return False
        want_red = color == "red"
        for u, v in self.source.edges:
            if col.is_red(self.assignment[u], self.assignment[v]) != want_red:
                return False
        return True


def check_node_budget(node_budget: int | None) -> None:
    """A given node budget must allow at least one node."""
    if node_budget is not None and node_budget < 1:
        raise InputError(f"node budget must be at least 1, got {node_budget}")


def check_exact_packing_order(n: int) -> None:
    """Exact packing runs only on colorings of order n <= EXACT_PACKING_MAX_N."""
    if n > EXACT_PACKING_MAX_N:
        raise CapacityError(f"exact packing capped at n <= {EXACT_PACKING_MAX_N}")


class _NodeCounter:
    __slots__ = ("count", "budget")

    def __init__(self, budget: int):
        self.count = 0
        self.budget = budget

    def tick(self):
        self.count += 1
        if self.count > self.budget:
            raise SearchBudgetExceeded(f"search exceeded node budget of {self.budget}")


# ---------------------------------------------------------------------------
# The search kernels
# ---------------------------------------------------------------------------
#
# `_cliques`, `_place` and the branch and bound of `_exact_packing` are
# depth-first searches driven by an explicit stack, so their depth is not
# limited by the interpreter's recursion limit.  `_greedy_packing` writes out
# `_cliques`'s loop again: built on `_cliques`, it was slower.  The first two
# tick `counter` once per prefix visited, the empty prefix included.

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


def _place(adj: list[int], cand_mask: list[int], placed_nbrs: Sequence[Sequence[int]],
           counter: _NodeCounter | None = None,
           image: list[int] | None = None) -> list[int] | None:
    """First injective image of a pattern on the host graph `adj`, or None.

    Position i of the pattern goes to a host vertex in `cand_mask[i]` adjacent
    to the images of the earlier positions `placed_nbrs[i]`.  Host vertices are
    tried in ascending order, so the image is the lexicographically least one.
    The empty pattern has the empty image and visits no prefix, and so does a
    given prefix that already places every position.

    `image`, if given, is a prefix already placed: the search starts at
    position len(image), its vertices used.  The caller guarantees that it is
    a valid partial image (distinct host vertices, each in its position's mask
    and adjacent to the images of its earlier neighbors); nothing checks it.
    The list is extended in place into the image that is returned, and is
    back to the prefix when None is returned.
    """
    k = len(cand_mask)
    if image is None:
        image = []
    start = len(image)
    if start == k:
        return image
    if counter is not None:
        counter.tick()
    used = 0
    for x in image:
        used |= 1 << x
    cand = cand_mask[start] & ~used
    for j in placed_nbrs[start]:
        cand &= adj[image[j]]
    # rests[d]: host candidates for position start + d not yet tried.
    rests = [cand]
    while True:
        rest = rests[-1]
        if not rest:
            rests.pop()
            if not rests:
                return None
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
    adj = color_adjacency_bits(col, color)
    counter = None if node_budget is None else _NodeCounter(node_budget)
    return next(_cliques(adj, (1 << col.n) - 1, s, counter), None)


# ---------------------------------------------------------------------------
# Subgraph-isomorphism copies (not induced)
# ---------------------------------------------------------------------------

@functools.lru_cache
def _pattern_plan(G: Graph, head: tuple[int, ...] = ()) -> tuple[
        tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The plan `_place` follows for the immutable pattern G, built once per
    (G, head): a placement order that starts with `head`, the degree at each
    position, and the earlier positions adjacent to each position.  After the
    head, the next vertex is the unplaced one of highest degree, ties by id,
    among those adjacent to a placed one if there are any; so in a connected
    pattern every position after the first has a placed neighbor."""
    deg, gadj = G.degrees(), G.adjacency_bits()
    # Vertex sets are masks over ranks in that order: the least bit goes next.
    by_rank = sorted(range(G.n), key=lambda x: (-deg[x], x))
    rank = {x: r for r, x in enumerate(by_rank)}
    order: list[int] = []
    unplaced, reached = (1 << G.n) - 1, 0
    while unplaced:
        if len(order) < len(head):
            r = rank[head[len(order)]]
        else:
            pick = reached & unplaced or unplaced
            r = (pick & -pick).bit_length() - 1
        order.append(by_rank[r])
        unplaced ^= 1 << r
        reached |= bits_of(rank[y] for y in iter_bits(gadj[by_rank[r]]))
    pos = {x: i for i, x in enumerate(order)}
    return tuple(order), tuple(deg[x] for x in order), tuple(
        tuple(pos[y] for y in iter_bits(gadj[x]) if pos[y] < i) for i, x in enumerate(order))


def find_copy(col: TwoColoring, color: Color, G: Graph,
              node_budget: int | None = None) -> EmbeddingMap | None:
    """First monochromatic copy of G, as an injective vertex map, or None.

    Backtracking places pattern vertices in decreasing-degree order; a host
    candidate must have monochromatic degree at least the pattern degree and
    be adjacent (in the color) to every already-placed pattern neighbor.
    Absence is exact unless a node budget is given and runs out, which
    raises SearchBudgetExceeded instead of returning None.
    """
    check_node_budget(node_budget)
    n = col.n
    if G.n > n:
        check_color(color)
        return None
    adj = color_adjacency_bits(col, color)
    order, degs, placed_nbrs = _pattern_plan(G)
    host_deg = [a.bit_count() for a in adj]
    at_least = {d: bits_of(w for w in range(n) if host_deg[w] >= d) for d in set(degs)}
    deg_mask = [at_least[d] for d in degs]
    counter = None if node_budget is None else _NodeCounter(node_budget)
    image = _place(adj, deg_mask, placed_nbrs, counter)
    if image is None:
        return None
    return EmbeddingMap(G, dict(zip(order, image)))


# ---------------------------------------------------------------------------
# Edge-disjoint red clique packing
# ---------------------------------------------------------------------------

def _greedy_packing(adj: list[int], s: int) -> Iterator[tuple[int, ...]]:
    """Maximal edge-disjoint packing, yielded member by member: each s-clique
    (s >= 2), in lexicographic order, joins the packing unless one of its
    pairs is already covered.

    The search runs on `live`, the rows of `adj` minus the covered pairs, so
    it never lists a clique it would reject.  `live` is `adj` itself, cleared
    in place, so the exhausted generator leaves the residual red rows in the
    caller's list.  It yields the same members as filtering every clique:
    member i + 1 of the filter is the least clique of `live` after members
    1..i, because covered pairs only grow (a clique rejected once stays
    rejected, and one before member i that was still in `live` would have
    joined before it).  After a member (u0, u1, ..., v) is yielded, its pairs
    leave `live` and the search resumes at depth 1 under u0: every prefix of
    the member of length >= 2 now holds a covered pair, and the untried second
    vertices, all above u1, are masked with live[u0].  Deeper levels are
    rebuilt from `live` as the search descends, so the next clique reached is
    the least clique of `live` above the last member.
    """
    live = adj
    prefix: list[int] = []
    # rests[d]: candidates for position d not yet tried, all above prefix[d - 1]
    # and adjacent in `live` to every vertex of the prefix.
    rests = [(1 << len(adj)) - 1]
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


def _exact_packing(col: TwoColoring, s: int,
                   target: int | None = None) -> list[tuple[int, ...]]:
    """Maximum-cardinality edge-disjoint packing of red s-cliques; with a
    `target` k, k members when k fit and fewer otherwise.  Every exact
    packing passes through here, so this is where the order cap
    (`check_exact_packing_order`) is met, before any other work.

    Branch and bound over the cliques in lexicographic order, each included
    before it is excluded.  `cap` is the sum of floor(deg_red(v) / (s-1))
    divided by s, as a member takes s - 1 red pairs at each of its s
    vertices; the goal is cap, or k, and none fits past cap.  As that sum is
    at most 2R / (s-1) for R red pairs, cap <= R // C(s,2), so no test on the
    red-pair count could return earlier.  The greedy packing from
    `_greedy_packing` is the search's first leaf: it is returned once it
    reaches the goal, before any clique is listed.  Otherwise the search
    starts from it and stops once it holds the goal; a later leaf replaces
    the best only when larger, so neither changes the members.  A branch is
    cut when its chosen cliques and all later ones stay below `need` (one
    more than the best, or k).  The stack is `chosen`: every exclusion still
    to try is that of a chosen clique.
    """
    n = col.n
    check_exact_packing_order(n)
    adj = col.red_adjacency_bits()
    cap = sum(row.bit_count() // (s - 1) for row in adj) // s
    goal = cap if target is None else target
    if goal > cap:
        return []
    best = list(itertools.islice(_greedy_packing(list(adj), s), goal))
    if len(best) == goal:
        return best
    cliques = list(_cliques(adj, (1 << n) - 1, s))
    # Bit u * n + v of a mask stands for the pair (u, v), u < v.
    masks: list[int] = []
    for member in cliques:
        later = mask = 0
        for u in reversed(member):
            # later: the vertices of the member after u.
            mask |= later << (u * n)
            later |= 1 << u
        masks.append(mask)
    last, need = len(cliques), target or len(best) + 1
    chosen: list[int] = []
    used = i = 0
    while True:
        if len(chosen) > len(best):
            best = [cliques[j] for j in chosen]
            if len(best) == goal:
                return best
            need = max(need, len(best) + 1)
        if i < last and len(chosen) + last - i >= need:
            if not masks[i] & used:
                chosen.append(i)
                used |= masks[i]
            i += 1
            continue
        if not chosen:
            return best
        i = chosen.pop()
        used ^= masks[i]
        i += 1


def max_edge_disjoint_packing(col: TwoColoring, s: int,
                              mode: Literal["greedy", "exact"] = "greedy") -> CliquePacking:
    """Edge-disjoint packing of red s-cliques.

    Greedy mode returns a maximal packing (no red s-clique is edge-disjoint
    from all members), which is what the recoloring step needs; exact mode
    returns a maximum-cardinality packing from `_exact_packing`, which meets
    the order cap (`check_exact_packing_order`, n <= 12) first because
    maximum packing is a hard search problem.
    """
    if s < 2:
        raise InputError("clique order must be at least 2")
    if mode == "greedy":
        members = _greedy_packing(col.red_adjacency_bits(), s)
    elif mode == "exact":
        members = _exact_packing(col, s)
    else:
        raise InputError(f"mode must be 'greedy' or 'exact', got {mode!r}")
    return CliquePacking(members=tuple(members))

