"""Greedy blue-embedding algorithms for colorings with no red K_s.

The s = 3 routine embeds each component of G into a fresh block of 3*e
vertices: take the red neighborhood X of the maximum-red-degree vertex (all
pairs inside X are blue when there is no red triangle), park the highest-
degree component vertices there, and place the rest one by one on vertices
with no red edge to any already-placed neighbor.  The general routine either
descends into a high-red-degree neighborhood with s-1, or grabs a blue clique
of order ~sqrt(m ln m) and runs the same greedy placement; at desk scale the
blue clique may simply not exist, which is reported as a failure rather than
papered over.
"""
from __future__ import annotations

import math

from .bitset import bits_of, iter_bits
from .detect import EmbeddingMap, check_node_budget, find_clique, max_red_degree_vertex
from .errors import ContractViolation, EmbedFailure, InputError, SearchBudgetExceeded
from .graphs import Graph, TwoColoring, induced_coloring


def _check_no_isolated(G: Graph):
    if any(d == 0 for d in G.degrees()):
        raise InputError("target graph must have no isolated vertices")


def _revalidated(col: TwoColoring, G: Graph, assignment: dict[int, int]) -> EmbeddingMap:
    """The embedding `assignment` of G, checked blue in `col` from scratch."""
    emb = EmbeddingMap(G, assignment)
    if not emb.validates(col, "blue"):
        raise ContractViolation("embedding failed revalidation")
    return emb


def _greedy_place(red: list[int], host_mask: int, tmax: int, gadj: list[int],
                  order: list[int], assignment: dict[int, int], used: int,
                  failure: type[Exception]) -> int:
    """Place `order` one by one on host vertices with no red edge to any
    already-placed neighbor in the rows `gadj` of G; smallest feasible id wins.

    Asserts the availability bound from the degree argument: the number of
    host vertices free of red edges into the placed neighbor set Y is at
    least |host| - tmax * |Y|.
    """
    host_size = host_mask.bit_count()
    for v in order:
        ys = [assignment[u] for u in iter_bits(gadj[v]) if u in assignment]
        bad = 0
        for y in ys:
            bad |= red[y]
        feasible = host_mask & ~bad
        if feasible.bit_count() < host_size - tmax * len(ys):
            raise ContractViolation("availability bound violated in greedy placement")
        cand = feasible & ~used
        if not cand:
            raise failure("greedy placement ran out of feasible host vertices")
        w = (cand & -cand).bit_length() - 1
        assignment[v] = w
        used |= 1 << w
    return used


def _place_high_degree(X: list[int], vertices: list[int], deg: list[int],
                       assignment: dict[int, int], used: int) -> tuple[list[int], int]:
    """Park the highest-degree vertices on X (degree-sorted to id-sorted),
    returning the leftover vertices in ascending id order."""
    by_degree = sorted(vertices, key=lambda v: (-deg[v], v))
    parked = by_degree[: len(X)]
    for g, w in zip(parked, sorted(X)):
        assignment[g] = w
        used |= 1 << w
    return sorted(by_degree[len(X):]), used


def embed_s3(col: TwoColoring, G: Graph) -> EmbeddingMap:
    """Blue embedding of G into a red-triangle-free coloring on >= 3*e(G) vertices.

    Components are processed on disjoint fresh blocks of 3*e_i vertices each;
    the greedy step cannot fail under the preconditions, so an internal
    failure raises ContractViolation.
    """
    if find_clique(col, "red", 3) is not None:
        raise InputError("coloring contains a red triangle")
    _check_no_isolated(G)
    m = G.edge_count
    if col.n < 3 * m:
        raise InputError(f"host needs at least {3 * m} vertices, has {col.n}")

    red = col.red_adjacency_bits()
    gadj = G.adjacency_bits()
    deg = [row.bit_count() for row in gadj]
    assignment: dict[int, int] = {}
    next_free = 0
    for comp in G.components():
        m_i = sum(deg[v] for v in comp) // 2
        block = list(range(next_free, next_free + 3 * m_i))
        next_free += 3 * m_i
        block_mask = bits_of(block)

        # Maximum red degree inside the block, ties to the smallest id.
        t_of = [(red[v] & block_mask).bit_count() for v in block]
        vstar = block[max(range(len(block)), key=lambda i: (t_of[i], -block[i]))]
        x_mask = red[vstar] & block_mask
        X = list(iter_bits(x_mask))
        t = len(X)
        if any(red[x] & x_mask for x in X):
            raise ContractViolation("red pair inside the red neighborhood X")

        rest, used = _place_high_degree(X, comp, deg, assignment, 0)
        _greedy_place(red, block_mask, t, gadj, rest, assignment, used, ContractViolation)

    return _revalidated(col, G, assignment)


def embed_general(col: TwoColoring, G: Graph, s: int,
                  node_budget: int | None = None) -> EmbeddingMap:
    """Blue embedding of G into a coloring with no red K_s.

    s = 3 goes to embed_s3, which checks its own preconditions.
    For s > 3: if some vertex has red degree >= d = m^((s-2)/2) /
    (ln m)^((s-4)/2), recurse into its red neighborhood with s-1 (that
    neighborhood has no red K_{s-1}); otherwise find a blue clique of order
    k = floor(sqrt(m ln m)) and greedily place around it.  Both the missing
    blue clique and an exhausted greedy step raise EmbedFailure: the
    asymptotic guarantee behind this procedure needs n large, which
    desk-scale inputs may not reach.
    """
    if s < 3:
        raise InputError("s must be at least 3")
    check_node_budget(node_budget)
    if s == 3:
        return embed_s3(col, G)
    _check_no_isolated(G)
    if find_clique(col, "red", s) is not None:
        raise InputError(f"coloring contains a red clique of order {s}")
    if G.n > col.n:
        raise EmbedFailure("target graph has more vertices than the host")
    if G.n == 0:
        return EmbeddingMap(G, {})

    m = G.edge_count
    logm = math.log(m)
    try:
        d = m ** ((s - 2) / 2) / logm ** ((s - 4) / 2)
    except (OverflowError, ZeroDivisionError):
        # d is compared with a red degree below col.n, so past the float
        # range (or at m = 1, where ln m = 0) there is no descent.
        d = math.inf

    vstar, dmax = max_red_degree_vertex(col)
    if dmax >= d:
        red = col.red_adjacency_bits()
        sub, mapping = induced_coloring(col, iter_bits(red[vstar]))
        try:
            inner = embed_general(sub, G, s - 1, node_budget)
        except InputError as exc:
            # The descent can bottom out on a neighborhood too small for the
            # s = 3 routine; that is a desk-scale failure, not caller misuse.
            raise EmbedFailure(f"red-neighborhood descent failed: {exc}") from exc
        return _revalidated(col, G, {g: mapping[h] for g, h in inner.assignment.items()})

    k = max(1, math.floor(math.sqrt(m * logm)))
    try:
        X = find_clique(col, "blue", k, node_budget)
    except SearchBudgetExceeded as exc:
        raise EmbedFailure(f"no blue {k}-clique found within budget") from exc
    if X is None:
        raise EmbedFailure(f"no blue {k}-clique exists in the coloring")

    red = col.red_adjacency_bits()
    assignment: dict[int, int] = {}
    rest, used = _place_high_degree(list(X), list(range(G.n)), G.degrees(), assignment, 0)
    _greedy_place(red, (1 << col.n) - 1, dmax, G.adjacency_bits(), rest, assignment, used,
                  EmbedFailure)
    return _revalidated(col, G, assignment)

