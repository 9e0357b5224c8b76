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
from collections.abc import Iterable, Sequence

from .bitset import iter_bits
from .detect import EmbeddingMap, check_node_budget, find_clique
from .errors import ContractViolation, EmbedFailure, InputError, SearchBudgetExceeded
from .graphs import Graph, TwoColoring, induced_coloring


def _check_no_isolated(G: Graph) -> list[int]:
    """G's degrees, once none of them is 0."""
    deg = G.degrees()
    if 0 in deg:
        raise InputError("target graph must have no isolated vertices")
    return deg


def _revalidated(col: TwoColoring, G: Graph, assignment: dict[int, int]) -> EmbeddingMap:
    """The embedding `assignment` of G, checked blue in `col` from scratch."""
    emb = EmbeddingMap(G, assignment)
    if not emb.validates(col, "blue"):
        raise ContractViolation("embedding failed revalidation")
    return emb


def _hub(red: list[int], mask: int) -> tuple[int, int]:
    """The vertex of the nonempty `mask` with the most red neighbours inside
    `mask`, ties to the smallest id, and that number of neighbours."""
    best_v, best_d = -1, -1
    for v in iter_bits(mask):
        d = (red[v] & mask).bit_count()
        if d > best_d:
            best_v, best_d = v, d
    return best_v, best_d


def _greedy_place(red: list[int], host_mask: int, X: Sequence[int], tmax: int,
                  gadj: list[int], deg: list[int], vertices: Iterable[int],
                  assignment: dict[int, int], failure: type[Exception]) -> None:
    """Park the highest-degree `vertices` of G on the ascending blue clique X
    (degree-sorted to id-sorted), then place the rest in ascending id order,
    each on the smallest free host vertex with no red edge to any
    already-placed neighbor in the rows `gadj` of G.

    Asserts the availability bound from the degree argument: the number of
    host vertices free of red edges into the placed neighbor set Y is at
    least |host| - tmax * |Y|.
    """
    by_degree = sorted(vertices, key=lambda v: (-deg[v], v))
    used = 0
    for g, w in zip(by_degree, X):
        assignment[g] = w
        used |= 1 << w
    host_size = host_mask.bit_count()
    for v in sorted(by_degree[len(X):]):
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


def embed_s3(col: TwoColoring, G: Graph) -> EmbeddingMap:
    """Blue embedding of G into a red-triangle-free coloring on >= 3*e(G) vertices.

    Components are processed on disjoint fresh blocks of 3*e_i vertices each;
    the greedy step cannot fail under the preconditions, so an internal
    failure raises ContractViolation.
    """
    if find_clique(col, "red", 3) is not None:
        raise InputError("coloring contains a red triangle")
    deg = _check_no_isolated(G)
    m = G.edge_count
    if col.n < 3 * m:
        raise InputError(f"host needs at least {3 * m} vertices, has {col.n}")

    red = col.red_adjacency_bits()
    gadj = G.adjacency_bits()
    assignment: dict[int, int] = {}
    next_free = 0
    for comp in G.components():
        m_i = sum(deg[v] for v in comp) // 2
        block_mask = ((1 << 3 * m_i) - 1) << next_free
        next_free += 3 * m_i
        vstar, t = _hub(red, block_mask)
        x_mask = red[vstar] & block_mask
        X = list(iter_bits(x_mask))
        if any(red[x] & x_mask for x in X):
            raise ContractViolation("red pair inside the red neighborhood X")
        _greedy_place(red, block_mask, X, t, gadj, deg, comp, assignment, ContractViolation)

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
    deg = _check_no_isolated(G)
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

    red = col.red_adjacency_bits()
    host_mask = (1 << col.n) - 1
    vstar, dmax = _hub(red, host_mask)
    if dmax >= d:
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

    assignment: dict[int, int] = {}
    _greedy_place(red, host_mask, X, dmax, G.adjacency_bits(), deg, range(G.n), assignment,
                  EmbedFailure)
    return _revalidated(col, G, assignment)

