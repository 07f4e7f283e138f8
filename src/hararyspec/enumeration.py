"""Canonical labelling and isomorphism-free enumeration of small connected graphs.

The canonical form is exact: equitable colour refinement narrows the
candidate orderings, a backtracking search tries the orderings the
refinement leaves open, and the certificate is the lexicographically
smallest relabelled edge bitstring (equivalently, the smallest graph6
encoding).  Refinement keys depend only on the partition itself, never
on vertex labels, so isomorphic graphs explore label-equivalent search
trees and end up with identical certificates.

The search skips twins: vertices u and v with the same neighbours apart
from each other.  The transposition (u v) is then an automorphism fixing
every cell of the current partition, so individualising v yields the
same leaf masks as individualising u, and the certificate, the minimum
over the leaves, is unchanged when v is skipped.  This is the standard
automorphism pruning of individualisation-refinement (McKay & Piperno,
"Practical graph isomorphism, II", 2014); a cell of k mutual twins, as
in cliques and complete multipartite graphs, costs one path, not k!.

Enumeration has one regime: starting from the single vertex, each class
on n-1 vertices gets a new vertex attached to every nonempty
neighbourhood subset, deduplicated canonically.  Every connected graph
has a non-cut vertex, so each class on n vertices is reached.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BudgetError
from .graph6 import to_graph6
from .graphs import Graph, _bit_indices, triangle_pairs

__all__ = [
    "CANONICAL_BUDGET",
    "ENUMERATION_BUDGET",
    "canonical_form",
    "canonical_graph",
    "enumerate_connected_graphs",
]

CANONICAL_BUDGET = 10
ENUMERATION_BUDGET = 8


def _refine(adj, cells):
    """Equitable refinement: split cells by neighbour counts into every cell.

    Split groups are ordered by their count-vector keys, which keeps the
    refined partition independent of vertex labels.
    """
    while True:
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        changed = False
        refined = []
        for cell in cells:
            if len(cell) == 1:
                refined.append(cell)
                continue
            groups = {}
            for v in cell:
                key = tuple((adj[v] & m).bit_count() for m in masks)
                groups.setdefault(key, []).append(v)
            if len(groups) == 1:
                refined.append(cell)
            else:
                changed = True
                for key in sorted(groups):
                    refined.append(groups[key])
        cells = refined
        if not changed:
            return cells


def _canonical_mask(g):
    """Smallest relabelled upper-triangle bitmask (first pair = most significant bit)."""
    n = g.n
    adj = g.adj_bits
    pairs = triangle_pairs(n)
    twins = [0] * n
    for u in range(n):
        for v in range(u):
            if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                twins[u] |= 1 << v
                twins[v] |= 1 << u
    best = None

    def leaf(order):
        nonlocal best
        mask = 0
        for i, j in pairs:
            mask = (mask << 1) | (adj[order[i]] >> order[j] & 1)
        if best is None or mask < best:
            best = mask

    def search(cells):
        cells = _refine(adj, cells)
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                tried = 0
                for v in cell:
                    if twins[v] & tried:
                        continue  # (u v) is an automorphism: same leaves as u's subtree
                    tried |= 1 << v
                    rest = [u for u in cell if u != v]
                    search(cells[:idx] + [[v], rest] + cells[idx + 1 :])
                return
        leaf([cell[0] for cell in cells])

    search([list(range(n))])
    return best


def _graph_from_mask(n, mask):
    m = n * (n - 1) // 2
    adj = [0] * n
    for k, (i, j) in enumerate(triangle_pairs(n)):
        if mask >> (m - 1 - k) & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph._from_adj(n, adj)


def canonical_graph(g):
    """A canonically labelled representative of g's isomorphism class."""
    if g.n > CANONICAL_BUDGET:
        raise BudgetError(
            f"budget exceeded: canonical labelling limited to n <= {CANONICAL_BUDGET}, got n={g.n}"
        )
    return _graph_from_mask(g.n, _canonical_mask(g))


def canonical_form(g):
    """Canonical certificate: equal bytes iff the graphs are isomorphic."""
    return to_graph6(canonical_graph(g)).encode("ascii")


@lru_cache(maxsize=None)
def _connected_classes(n):
    if n == 1:
        return (Graph(1),)
    found = set()
    for parent in _connected_classes(n - 1):
        base = list(parent.adj_bits) + [0]
        for nbrs in range(1, 1 << (n - 1)):
            adj = list(base)
            adj[n - 1] = nbrs
            for v in _bit_indices(nbrs):
                adj[v] |= 1 << (n - 1)
            found.add(_canonical_mask(Graph._from_adj(n, adj)))
    ordered = sorted(found, key=lambda mask: (mask.bit_count(), mask))
    return tuple(_graph_from_mask(n, mask) for mask in ordered)


def enumerate_connected_graphs(n):
    """One canonically labelled representative per connected isomorphism class.

    Deterministic order: by edge count, then by canonical certificate.
    """
    if not 1 <= n <= ENUMERATION_BUDGET:
        raise BudgetError(
            f"budget exceeded: enumeration limited to 1 <= n <= {ENUMERATION_BUDGET}, got n={n}"
        )
    return _connected_classes(n)
