"""Canonical labelling and isomorphism-free enumeration of small connected graphs.

The canonical form is exact: equitable colour refinement narrows the
candidate orderings, individualisation tries the orderings the
refinement leaves open, and the certificate is the smallest relabelled
edge mask over the leaves, written as graph6.  A partition is ordered:
each vertex holds a cell index.  Refinement keys depend only on the
partition itself, never on vertex labels, so isomorphic graphs explore
label-equivalent search trees and end up with identical certificates.

Labelling is stacked: ``_canonical_masks`` holds the search nodes
(graph index, cell index per vertex) of k graphs in one numpy stack and
takes them one depth at a time: refine, close the discrete ones as
leaves, branch the rest.

* Refinement.  A pass keys each vertex on its own cell index, most
  significant, then on its neighbour counts in every cell in cell
  order, packed in one int64: each count is at most n - 1 and gets a
  field of ``n.bit_length()`` bits (44 bits in all at n = 10), so
  comparing keys compares the vectors lexicographically.  The new cells
  are the dense ranks of the keys within the node, so each cell's parts
  stay together, in cell order, sorted by count vector.  Nodes that
  gained a cell get another pass.  Split-cell refinement (McKay &
  Piperno, "Practical graph isomorphism, II", 2014) keys a pass only on
  the parts of the cells the previous pass split; two vertices of one
  cell had equal counts in every cell of the previous partition, so a
  field the narrowed key leaves out never differs first, and the full
  keys make the same groups in the same order.
* Branching.  A node branches on its first cell t with more than one
  vertex, once per lowest member v of each twin class in t (twins:
  vertices with the same neighbours apart from each other).  The child
  gives {v} index t and the rest of t index t + 1, and shifts every
  later cell up by one.  A twin u of v is skipped because the
  transposition (u v) is an automorphism fixing every cell, so both
  subtrees hold the same leaf masks, and the certificate, the minimum
  over the leaves, is unchanged.  This is the standard automorphism
  pruning of individualisation-refinement; a cell of k mutual twins, as
  in cliques and complete multipartite graphs, costs one path, not k!.
* Leaves.  A discrete node orders the vertices by cell index; its edge
  mask holds one bit per pair of that order in ``triangle_pairs``
  order, first pair most significant, the codec of ``graph6``.  Each
  graph's certificate is the minimum over its leaves.

Enumeration has one regime: starting from the single vertex, each class
on n-1 vertices gets a new vertex w attached to nonempty neighbourhood
subsets S, deduplicated canonically.  Two prunings decide which
extensions are labelled at all (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998):

* Deletion key.  A child is rejected unless w has the largest key
  (degree, sum of neighbour degrees) among its non-cut vertices.  Every
  connected class C has a non-cut vertex x of largest key; deleting x
  leaves a connected graph isomorphic to some parent representative P,
  and the extension of P that recreates C puts w where x was, so it
  passes.  The key and the cut test are invariants of the child with w
  fixed, so isomorphic extensions of P pass or fail together.  The keys
  come from P's degrees d and neighbour-degree sums s, computed once per
  parent: in P + w, d'(u) = d(u) + [u in S] and s'(u) = s(u) +
  |N(u) & S| + [u in S]|S|, and w's key is (|S|, sum of d over S + |S|).
  So does the cut test: P + w - u is connected iff S meets every
  component of P - u.
* Twin orbits.  Twins of P form classes (cliques or independent sets)
  that P's automorphisms permute freely, so any S can be moved onto one
  that meets every twin class c1 < c2 < ... in a prefix: S holds a twin
  only together with its nearest lower twin.  Only those S are tried.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .errors import BudgetError
from .graph6 import _mask_graph, _pack_graph6
from .graphs import Graph, _bit_indices, _component, _twins

__all__ = [
    "CANONICAL_BUDGET",
    "ENUMERATION_BUDGET",
    "canonical_form",
    "canonical_graph",
    "enumerate_connected_graphs",
]

CANONICAL_BUDGET = 10
ENUMERATION_BUDGET = 8


def _equitable(adj, cells):
    """Refine, in place, a stack of ordered partitions (row i of ``cells``
    holds the cell index of each vertex of the graph ``adj[i]``) until
    equitable, by the passes of the module docstring; returns ``cells``."""
    n = cells.shape[1]
    width = n.bit_length()
    bits = np.left_shift(1, np.arange(n, dtype=np.uint16))
    rows = np.arange(len(cells))
    while len(rows):
        part, nbrs = cells[rows], adj[rows]
        top = part.max(axis=1)
        index = np.arange(int(top.max()) + 1, dtype=np.int8)[:, None]
        members = np.where(part[:, None, :] == index, bits, 0).sum(axis=2, dtype=np.uint16)
        key = part.astype(np.int64)
        for cell in members.T:
            key <<= width
            key |= np.bitwise_count(nbrs & cell[:, None])
        order = np.argsort(key, axis=1)
        ranked = np.take_along_axis(key, order, axis=1)
        rank = np.zeros(part.shape, dtype=np.int8)
        np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=rank[:, 1:])
        np.put_along_axis(part, order, rank, axis=1)
        cells[rows] = part
        rows = rows[(rank[:, -1] > top) & (rank[:, -1] < n - 1)]
    return cells


def _leaf_masks(adj, cells):
    """Edge masks of a stack of graphs relabelled by their discrete
    partitions: the vertex in cell i becomes i."""
    n = cells.shape[1]
    order = np.argsort(cells, axis=1).astype(np.uint8)
    rows = np.take_along_axis(adj, order, axis=1)
    j, i = np.tril_indices(n, -1)  # the pairs (i, j) in ``triangle_pairs`` order
    pairs = rows[:, j] >> order[:, i] & 1
    return pairs @ np.left_shift(1, np.arange(len(i) - 1, -1, -1))


def _canonical_masks(adjs, n):
    """Canonical edge masks of k graphs on n vertices, given as k rows of
    adjacency bitmasks: every search node of every graph at one depth is
    refined, closed as a leaf or branched in one stacked step."""
    if n > CANONICAL_BUDGET:
        raise BudgetError(
            f"budget exceeded: canonical labelling limited to n <= {CANONICAL_BUDGET}, got n={n}"
        )
    adj = np.array(adjs, dtype=np.uint16).reshape(-1, n)
    bits = np.left_shift(1, np.arange(n, dtype=np.uint16))
    off = adj[:, :, None] & ~bits  # off[g, u, v]: u's neighbours other than v
    twins = np.where(off == off.transpose(0, 2, 1), bits, 0).sum(axis=2, dtype=np.uint16)
    del off
    lower_twins = twins & bits - 1  # the twins u < v of each v
    best = np.full(len(adj), np.iinfo(np.int64).max)
    graph = np.arange(len(adj))
    cells = np.zeros(adj.shape, dtype=np.int8)
    while len(graph):
        cells = _equitable(adj[graph], cells)
        ranked = np.sort(cells, axis=1)
        first = np.where(ranked[:, 1:] == ranked[:, :-1], ranked[:, :-1], n).min(axis=1, initial=n)
        leaf = first == n
        if leaf.any():
            np.minimum.at(best, graph[leaf], _leaf_masks(adj[graph[leaf]], cells[leaf]))
            graph, cells, first = graph[~leaf], cells[~leaf], first[~leaf]
        inside = cells == first[:, None]
        members = np.where(inside, bits, 0).sum(axis=1, dtype=np.uint16)
        # the lowest member of each twin class in the cell (module docstring)
        node, v = np.nonzero(inside & (lower_twins[graph] & members[:, None] == 0))
        graph, cells, first = graph[node], cells[node], first[node]
        cells += cells >= first[:, None]
        cells[np.arange(len(node)), v] = first
    return best.tolist()


def canonical_graph(g):
    """A canonically labelled representative of g's isomorphism class."""
    return _mask_graph(g.n, _canonical_masks([g.adj_bits], g.n)[0])


def canonical_form(g):
    """Canonical certificate: equal bytes iff the graphs are isomorphic."""
    return _pack_graph6(g.n, _canonical_masks([g.adj_bits], g.n)[0]).encode("ascii")


def _twin_prefixes(adj):
    """Per twin class c1 < c2 < ... < ck of ``adj``, the masks of its
    prefixes: 0, c1, c1|c2, ..., the whole class."""
    prefixes = {}
    for v, twins in enumerate(_twins(adj)):
        cls = twins | 1 << v
        masks = prefixes.setdefault(cls & -cls, [0])  # keyed by the lowest member
        masks.append(masks[-1] | 1 << v)
    return list(prefixes.values())


def _components_without(adj):
    """Per vertex u, the vertex bitmasks of the components of the graph minus u."""
    parts = []
    for u in range(len(adj)):
        rest, comps = ((1 << len(adj)) - 1) ^ 1 << u, []
        while rest:
            comps.append(_component(adj, rest & -rest, rest))
            rest ^= comps[-1]
        parts.append(comps)
    return parts


def _last_is_deletable(base, deg, sums, parts, nbrs):
    """No non-cut vertex of the child, ``base`` plus w joined to the bitmask
    ``nbrs``, outranks w by the deletion key; ``deg``, ``sums`` and ``parts``
    are the parent's degrees, neighbour-degree sums and components without
    each vertex (see the module docstring)."""
    k = top = nbrs.bit_count()
    rest = nbrs
    while rest:
        low = rest & -rest
        top += deg[low.bit_length() - 1]
        rest ^= low
    for u, a in enumerate(base):
        inside = nbrs >> u & 1
        d = deg[u] + inside
        if d < k or d == k and sums[u] + (a & nbrs).bit_count() + inside * k <= top:
            continue
        for comp in parts[u]:
            if not comp & nbrs:
                break  # w misses a component of P - u: u is a cut vertex of the child
        else:
            return False
    return True


def _extend(base, nbrs):
    """Adjacency of ``base`` plus a new last vertex joined to the bitmask ``nbrs``."""
    w = len(base)
    adj = [a | 1 << w if nbrs >> u & 1 else a for u, a in enumerate(base)]
    adj.append(nbrs)
    return adj


def _children(n):
    """Adjacency rows of the order-n extensions that pass both prunings,
    in generation order: the stack ``_connected_classes`` labels."""
    children = []
    for parent in _connected_classes(n - 1)[1]:
        base = parent.adj_bits
        deg = [a.bit_count() for a in base]
        sums = [sum(deg[v] for v in _bit_indices(a)) for a in base]
        parts = _components_without(base)
        for choice in product(*_twin_prefixes(base)):
            nbrs = sum(choice)
            if nbrs and _last_is_deletable(base, deg, sums, parts, nbrs):
                children.append(_extend(base, nbrs))
    return children


@lru_cache(maxsize=None)
def _connected_classes(n):
    """Canonical edge masks and representatives of the connected classes
    of order n, in enumeration order."""
    if n == 1:
        return (0,), (Graph(1),)
    found = set(_canonical_masks(_children(n), n))
    masks = tuple(sorted(found, key=lambda mask: (mask.bit_count(), mask)))
    return masks, tuple(_mask_graph(n, mask) for mask in masks)


def enumerate_connected_graphs(n):
    """One canonically labelled representative per connected isomorphism class.

    Deterministic order: by edge count, then by canonical certificate.
    """
    if not 1 <= n <= ENUMERATION_BUDGET:
        raise BudgetError(
            f"budget exceeded: enumeration limited to 1 <= n <= {ENUMERATION_BUDGET}, got n={n}"
        )
    return _connected_classes(n)[1]
