"""Exact classical invariants for small graphs.

Everything here is exhaustive search or branch-and-bound: values are
exact, never heuristic, and a BudgetError is raised instead of silently
approximating once the order exceeds the n <= 10 desk budget.

Connectivity and independence come from tables over all vertex
subsets X, built for a stack of same-order graphs at once.  lambda is
the fewest edges leaving a nonempty proper X, alpha the largest X that
misses its own neighbourhood N(X).  If some vertex lies outside X and
N(X), then N(X) \\ X separates it from X, so no such set is smaller
than kappa; and a minimum separator S is N(C) \\ C for the smallest
component C of g - S, as a minimal separator has a neighbour in every
component it leaves.  So kappa is the smallest such N(X) \\ X, or n - 1
when every X sees the whole graph (complete graphs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .graphs import Graph, _reach

__all__ = [
    "INVARIANT_BUDGET",
    "GraphInvariants",
    "graph_invariants",
    "vertex_connectivity",
    "edge_connectivity",
    "chromatic_number",
    "independence_number",
    "bipartition",
]

INVARIANT_BUDGET = 10


@dataclass(frozen=True)
class GraphInvariants:
    vertex_connectivity: int
    edge_connectivity: int
    chromatic_number: int
    independence_number: int
    min_degree: int


def _check_budget(g, what):
    if g.n > INVARIANT_BUDGET:
        raise BudgetError(
            f"budget exceeded: exact {what} limited to n <= {INVARIANT_BUDGET}, got n={g.n}"
        )


def _subset_invariants(graphs):
    """Vertex connectivity, edge connectivity and independence number of
    each graph in ``graphs``, all of one order n, as three arrays.  The
    tables grow one vertex v at a time (X holds only lower vertices):
    nb[X | v] = nb[X] | adj[v] unites the neighbourhoods, and the count of
    edges leaving X gains deg(v) less twice the edges from v into X."""
    n = graphs[0].n
    masks = np.uint8 if n <= 8 else np.uint16
    adj = np.array([g.adj_bits for g in graphs], dtype=masks)
    size = 1 << n
    subsets = np.arange(size, dtype=masks)[:, None]
    nb = np.zeros((size, len(graphs)), dtype=masks)
    cut = np.zeros_like(nb, dtype=np.uint8)
    degrees = np.bitwise_count(adj)
    for v in range(n):
        low, high = 1 << v, 2 << v
        nb[low:high] = nb[:low] | adj[:, v]
        cut[low:high] = cut[:low] + degrees[:, v] - 2 * np.bitwise_count(subsets[:low] & adj[:, v])
    full = size - 1
    lam = cut[1:full].min(axis=0, initial=n - 1)  # lambda <= delta <= n - 1
    alpha = np.where(nb & subsets, np.uint8(0), np.bitwise_count(subsets)).max(axis=0)
    # N(X) \ X of each nonempty X that leaves some vertex unreached
    covered = (nb | subsets) == full
    nb &= ~subsets
    separator = np.bitwise_count(nb)
    separator[covered] = n - 1
    kappa = separator[1:].min(axis=0)
    return kappa, lam, alpha


def vertex_connectivity(g: Graph):
    """Minimum number of vertex deletions that disconnect g (n-1 for complete graphs)."""
    _check_budget(g, "vertex connectivity")
    return int(_subset_invariants([g])[0][0])


def edge_connectivity(g: Graph):
    """Minimum number of edge deletions that disconnect g (0 for K_1)."""
    _check_budget(g, "edge connectivity")
    return int(_subset_invariants([g])[1][0])


def _max_clique(adj, n):
    """Exact maximum-clique size by branch and bound over candidate bitmasks."""
    best = 0

    def expand(clique_size, candidates):
        nonlocal best
        if clique_size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, clique_size)
            return
        while candidates:
            if clique_size + candidates.bit_count() <= best:
                return
            low = candidates & -candidates
            v = low.bit_length() - 1
            candidates ^= low
            expand(clique_size + 1, candidates & adj[v])

    expand(0, (1 << n) - 1)
    return best


def independence_number(g: Graph):
    """Size of a maximum independent set."""
    _check_budget(g, "independence number")
    return int(_subset_invariants([g])[2][0])


def _k_colorable(adj, k, order):
    """Whether the vertices, placed in ``order``, fit in k colour classes.
    Each tries the classes holding none of its neighbours, then opens a new
    one while fewer than k exist (any empty class would do as well)."""
    n = len(order)
    classes = []  # vertex bitmasks, in the order they were opened

    def place(i):
        if i == n:
            return True
        v = order[i]
        nbrs, bit = adj[v], 1 << v
        for c, members in enumerate(classes):
            if not members & nbrs:
                classes[c] = members | bit
                if place(i + 1):
                    return True
                classes[c] = members
        if len(classes) < k:
            classes.append(bit)
            if place(i + 1):
                return True
            classes.pop()
        return False

    return place(0)


def chromatic_number(g: Graph):
    """Exact chromatic number: iterative-deepening k-colouring from the clique bound."""
    _check_budget(g, "chromatic number")
    if g.edge_count == 0:
        return 1
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    for k in range(_max_clique(g.adj_bits, g.n), g.n + 1):
        if _k_colorable(g.adj_bits, k, order):
            return k
    return g.n


def bipartition(g: Graph):
    """(True, (a, b)) with a <= b when g is bipartite, else (False, None).

    Part sizes are only canonical for connected graphs, where the
    2-colouring is unique up to swapping the sides.
    """
    adj = g.adj_bits
    unseen = (1 << g.n) - 1
    even = 0
    # Breadth-first layers from each component's lowest vertex: the
    # component is bipartite exactly when no edge joins two vertices of
    # one layer, and then layer parity is its 2-colouring.
    while unseen:
        layer, odd = unseen & -unseen, False
        while layer:
            reach = _reach(adj, layer)
            if reach & layer:
                return False, None
            if not odd:
                even |= layer
            unseen &= ~layer
            layer, odd = reach & unseen, not odd
    a = even.bit_count()
    sizes = (min(a, g.n - a), max(a, g.n - a))
    return True, sizes


def graph_invariants(g: Graph):
    """All exact invariants in one record."""
    _check_budget(g, "invariants")
    return _stack_invariants([g])[0]


def _stack_invariants(graphs):
    """``graph_invariants`` of every graph in ``graphs``, all of one order,
    from one subset-table pass."""
    columns = (column.tolist() for column in _subset_invariants(graphs))
    return [GraphInvariants(kappa, lam, chromatic_number(g), alpha, min(g.degrees()))
            for g, kappa, lam, alpha in zip(graphs, *columns)]
