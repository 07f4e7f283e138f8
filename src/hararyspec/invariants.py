"""Exact classical invariants for small graphs.

Everything here is exhaustive search or branch-and-bound: values are
exact, never heuristic, and a BudgetError is raised instead of silently
approximating once the order exceeds the n <= 10 desk budget.

Connectivity, independence and clique number come from tables over
all vertex subsets X, built for a stack of same-order graphs at once,
in chunks of at most ``_TABLE_CELLS`` table entries.  lambda is the
fewest edges leaving a nonempty proper X, alpha the largest X that
misses its own neighbourhood N(X), and omega the largest X that misses
its own neighbourhood in the complement.  If some vertex lies outside X
and N(X), then N(X) \\ X separates it from X, so no such set is smaller
than kappa; and a minimum separator S is N(C) \\ C for the smallest
component C of g - S, as a minimal separator has a neighbour in every
component it leaves.  So kappa is the smallest such N(X) \\ X, or n - 1
when every X sees the whole graph (complete graphs).

The chromatic number chi is at least omega and at least ceil(n / alpha),
as each colour class is an independent set, and at most the colours of
a first-fit colouring by falling degree, found for the whole stack in
one pass per vertex.  Only the graphs whose bounds differ run the
branch-and-bound colouring search, one graph at a time: exact chi over
the subset tables for a whole stack (a zeta/Moebius convolution of the
independent sets, or inclusion-exclusion) was slower than this search
at n = 8 and n = 9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .graphs import Graph, _reach

__all__ = [
    "GraphInvariants",
    "graph_invariants",
    "vertex_connectivity",
    "edge_connectivity",
    "chromatic_number",
    "independence_number",
    "bipartition",
]

INVARIANT_BUDGET = 10
_TABLE_CELLS = 1 << 22  # subset-table cells per chunk: 2^n rows times the chunk's graphs


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


def _rows(graphs):
    """The adjacency rows of same-order graphs as a (k, n) array."""
    return np.array([g.adj_bits for g in graphs], dtype=np.uint16)


def _subset_invariants(adj):
    """Vertex connectivity, edge connectivity, independence number, clique
    number and degrees of each graph of a (k, n) stack of adjacency rows,
    as arrays (the degrees of shape (k, n)), one chunk of the stack at a
    time."""
    step = max(1, _TABLE_CELLS >> adj.shape[1])
    chunks = [_subset_tables(adj[i:i + step]) for i in range(0, len(adj), step)]
    return tuple(np.concatenate(column) for column in zip(*chunks))


def _subset_tables(adj):
    """``_subset_invariants`` of one chunk.  The tables grow one vertex v
    at a time (X holds only lower vertices): nb[X | v] = nb[X] | adj[v]
    unites the neighbourhoods, co[X | v] = co[X] | (V - N[v]) the
    complement's, and the count of edges leaving X gains deg(v) less
    twice the edges from v into X."""
    n = adj.shape[1]
    masks = np.uint8 if n <= 8 else np.uint16
    adj = adj.astype(masks)
    size = 1 << n
    full = size - 1
    subsets = np.arange(size, dtype=masks)[:, None]
    nb = np.zeros((size, len(adj)), dtype=masks)
    co = np.zeros_like(nb)
    cut = np.zeros_like(nb, dtype=np.uint8)
    degrees = np.bitwise_count(adj)
    for v in range(n):
        low, high = 1 << v, 2 << v
        nb[low:high] = nb[:low] | adj[:, v]
        co[low:high] = co[:low] | full & ~(adj[:, v] | low)
        cut[low:high] = cut[:low] + degrees[:, v] - 2 * np.bitwise_count(subsets[:low] & adj[:, v])
    lam = cut[1:full].min(axis=0, initial=n - 1)  # lambda <= delta <= n - 1
    sizes = np.bitwise_count(subsets)
    alpha = np.where(nb & subsets, np.uint8(0), sizes).max(axis=0)
    omega = np.where(co & subsets, np.uint8(0), sizes).max(axis=0)
    # N(X) \ X of each nonempty X that leaves some vertex unreached
    covered = (nb | subsets) == full
    nb &= ~subsets
    separator = np.bitwise_count(nb)
    separator[covered] = n - 1
    kappa = separator[1:].min(axis=0)
    return kappa, lam, alpha, omega, degrees


def vertex_connectivity(g: Graph):
    """Minimum number of vertex deletions that disconnect g (n-1 for complete graphs)."""
    _check_budget(g, "vertex connectivity")
    return int(_subset_invariants(_rows([g]))[0][0])


def edge_connectivity(g: Graph):
    """Minimum number of edge deletions that disconnect g (0 for K_1)."""
    _check_budget(g, "edge connectivity")
    return int(_subset_invariants(_rows([g]))[1][0])


def independence_number(g: Graph):
    """Size of a maximum independent set."""
    _check_budget(g, "independence number")
    return int(_subset_invariants(_rows([g]))[2][0])


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
    """Exact chromatic number: the colouring search between the clique and
    independence lower bounds and the first-fit upper bound."""
    _check_budget(g, "chromatic number")
    return int(_stack_invariants(_rows([g]))[0, 2])


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
    return GraphInvariants(*_stack_invariants(_rows([g]))[0].tolist())


def _first_fit(adj, orders):
    """Colours of the first-fit colouring of each graph of a stack of
    adjacency rows, placing the vertices in the row's order: each joins
    the first class holding none of its neighbours.  This is the first
    branch ``_k_colorable`` tries, so it bounds chi from above."""
    rows = np.arange(len(adj))
    classes = np.zeros_like(adj)
    for v in orders.T:
        free = classes & adj[rows, v, None] == 0  # an unopened class is empty, so free
        classes[rows, free.argmax(axis=1)] |= np.left_shift(1, v).astype(adj.dtype)
    return np.count_nonzero(classes, axis=1)


def _stack_invariants(adj):
    """``graph_invariants`` of every graph of a (k, n) stack of adjacency
    rows, from one subset-table pass, as a (k, 5) integer array with one
    column per ``GraphInvariants`` field, in field order.  chi lies
    between max(omega, ceil(n / alpha)), as every colour class is an
    independent set, and the first-fit colouring by falling degree; the
    colouring search runs per graph on the values in between."""
    kappa, lam, alpha, omega, degrees = _subset_invariants(adj)
    n = adj.shape[1]
    orders = np.argsort(-degrees.astype(np.int8), axis=1, kind="stable")
    low = np.maximum(omega, (n - 1) // alpha + 1)  # ceil(n / alpha)
    chi = _first_fit(adj, orders)
    for i in np.flatnonzero(low < chi).tolist():
        order, adj_bits = orders[i].tolist(), adj[i].tolist()
        fits = (k for k in range(low[i], chi[i]) if _k_colorable(adj_bits, k, order))
        chi[i] = next(fits, chi[i])
    return np.stack([kappa, lam, chi, alpha, degrees.min(axis=1)], axis=1)
