"""Exact classical invariants for small graphs.

Everything here is exhaustive search or branch-and-bound: values are
exact, never heuristic, and a BudgetError is raised instead of silently
approximating once the order exceeds the n <= 10 desk budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetError
from .graphs import Graph, _connected_within, _reach

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


def vertex_connectivity(g: Graph):
    """Minimum number of vertex deletions that disconnect g (n-1 for complete graphs)."""
    _check_budget(g, "vertex connectivity")
    return _vertex_connectivity(g, min(g.degrees()))


def _vertex_connectivity(g, delta):
    """Vertex connectivity of g, whose minimum degree is ``delta``."""
    n = g.n
    full = (1 << n) - 1
    if not g.is_connected():
        return 0
    if delta == n - 1:
        return n - 1  # complete
    # Whitney: the neighbours of a minimum-degree vertex separate it from
    # some non-neighbour, so only cuts smaller than the minimum degree remain.
    bits = [1 << v for v in range(n)]
    for k in range(1, delta):
        for cut in combinations(bits, k):
            if not _connected_within(g.adj_bits, full ^ sum(cut)):
                return k
    return delta


def edge_connectivity(g: Graph):
    """Minimum edge-cut size, by scanning vertex bipartitions.

    Whitney's sandwich kappa <= lambda <= delta ("Congruent graphs and
    the connectivity of graphs", 1932) bounds the scan: it starts from
    the minimum degree and stops at a cut of size 1.
    """
    _check_budget(g, "edge connectivity")
    return _edge_connectivity(g, 1, min(g.degrees())) if g.n > 1 and g.is_connected() else 0


def _edge_connectivity(g, floor, delta):
    """Edge connectivity of a connected g with n >= 2, given ``floor`` <= it
    (say the vertex connectivity) and the minimum degree ``delta`` >= it:
    delta when they meet, else the smallest bipartition cut, stopping at
    one of size ``floor``."""
    n = g.n
    best = delta
    if best == floor:
        return best
    # Vertex 0 stays on the complement side, so each bipartition appears once.
    for side in range(1, 1 << (n - 1)):
        mask = side << 1
        other = ((1 << n) - 1) & ~mask
        cut = 0
        m = mask
        while m:
            low = m & -m
            cut += (g.adj_bits[low.bit_length() - 1] & other).bit_count()
            m ^= low
        if cut < best:
            best = cut
            if best == floor:
                return best
    return best


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
    """Size of a maximum independent set (clique search on the complement)."""
    _check_budget(g, "independence number")
    n = g.n
    full = (1 << n) - 1
    comp = tuple((full & ~g.adj_bits[v]) & ~(1 << v) for v in range(n))
    return _max_clique(comp, n)


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
    delta = min(g.degrees())
    kappa = _vertex_connectivity(g, delta)
    return GraphInvariants(
        vertex_connectivity=kappa,
        # kappa = 0 exactly when g is disconnected or K_1, where lambda = 0 too
        edge_connectivity=kappa and _edge_connectivity(g, kappa, delta),
        chromatic_number=chromatic_number(g),
        independence_number=independence_number(g),
        min_degree=delta,
    )
