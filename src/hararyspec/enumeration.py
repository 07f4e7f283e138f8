"""Canonical labelling and isomorphism-free enumeration of small connected graphs.

The canonical form is exact: equitable colour refinement narrows the
candidate orderings, a backtracking search tries the orderings the
refinement leaves open, and the certificate is the smallest relabelled
edge mask (see ``graph6``), written as graph6.  Each cell of the
partition is a vertex bitmask, and the search individualises its
vertices lowest first.  Refinement keys depend only on the partition
itself, never on vertex labels, so isomorphic graphs explore
label-equivalent search trees and end up with identical certificates.
A vertex's key is its vector of neighbour counts per cell, packed into
one integer: each count is at most n - 1 and gets a field of
``n.bit_length()`` bits, the first cell's field most significant, so
comparing the integers compares the vectors lexicographically.

A pass keys only on the parts of the cells the previous pass split,
each split's last part left out, and after individualising v on {v}
alone (split-cell refinement, McKay & Piperno 2014).  Two vertices of
one cell had equal counts in every cell of the previous partition, so
their counts in an unsplit cell are equal, and in a split's last part
(the old count minus the other parts') equal whenever the other parts'
are.  A dropped field never differs first, so the narrowed keys make
the same groups in the same order.

The search skips twins: vertices u and v with the same neighbours apart
from each other.  The transposition (u v) is then an automorphism fixing
every cell of the current partition, so individualising v yields the
same leaf masks as individualising u, and the certificate, the minimum
over the leaves, is unchanged when v is skipped.  This is the standard
automorphism pruning of individualisation-refinement (McKay & Piperno,
"Practical graph isomorphism, II", 2014); a cell of k mutual twins, as
in cliques and complete multipartite graphs, costs one path, not k!.

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

from .errors import BudgetError
from .graph6 import _edge_mask, _mask_graph, _pack_graph6
from .graphs import Graph, _bit_indices, _component

__all__ = [
    "CANONICAL_BUDGET",
    "ENUMERATION_BUDGET",
    "canonical_form",
    "canonical_graph",
    "enumerate_connected_graphs",
]

CANONICAL_BUDGET = 10
ENUMERATION_BUDGET = 8


def _refine(adj, cells, keys=None):
    """Equitable refinement: split cells (vertex bitmasks) by neighbour counts.

    The first pass keys on the cells in ``keys`` (default: all), later
    ones on the parts of the cells that split (see the module docstring).
    Split groups are ordered by their packed count vectors, which keeps
    the refined partition independent of vertex labels.
    """
    n = len(adj)
    width = n.bit_length()
    keys = cells if keys is None else keys
    while len(cells) < n:
        refined = []
        split = []
        for cell in cells:
            if not cell & (cell - 1):
                refined.append(cell)
                continue
            groups = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                row = adj[low.bit_length() - 1]
                key = 0
                for c in keys:
                    key = key << width | (row & c).bit_count()
                groups[key] = groups.get(key, 0) | low
            parts = [groups[key] for key in sorted(groups)]
            refined += parts
            split += parts[:-1]
        if not split:
            return cells
        cells, keys = refined, split
    return cells


def _twins(adj):
    """Per vertex, the bitmask of its twins: the vertices with the same
    open neighbourhood (non-adjacent twins) or closed one (adjacent twins).
    No open neighbourhood N(u) equals a closed one N[w], as u is not in
    N(u) but w in N(u) puts u in N[w], so one dictionary holds both."""
    groups = {}
    for v, a in enumerate(adj):
        for key in (a, a | 1 << v):
            groups[key] = groups.get(key, 0) | 1 << v
    return [(groups[a] | groups[a | 1 << v]) & ~(1 << v) for v, a in enumerate(adj)]


def _canonical_mask(g):
    """Smallest edge mask over the relabellings the search leaves open."""
    n = g.n
    if n > CANONICAL_BUDGET:
        raise BudgetError(
            f"budget exceeded: canonical labelling limited to n <= {CANONICAL_BUDGET}, got n={n}"
        )
    adj = g.adj_bits
    twins = _twins(adj)
    best = None

    def search(cells, keys=None):
        nonlocal best
        cells = _refine(adj, cells, keys)
        for idx, cell in enumerate(cells):
            if cell & (cell - 1):
                tried = 0
                for v in _bit_indices(cell):
                    if twins[v] & tried:
                        continue  # (u v) is an automorphism: same leaves as u's subtree
                    tried |= 1 << v
                    search(cells[:idx] + [1 << v, cell ^ 1 << v] + cells[idx + 1 :], [1 << v])
                return
        mask = _edge_mask(adj, [cell.bit_length() - 1 for cell in cells])
        if best is None or mask < best:
            best = mask

    search([(1 << n) - 1])
    return best


def canonical_graph(g):
    """A canonically labelled representative of g's isomorphism class."""
    return _mask_graph(g.n, _canonical_mask(g))


def canonical_form(g):
    """Canonical certificate: equal bytes iff the graphs are isomorphic."""
    return _pack_graph6(g.n, _canonical_mask(g)).encode("ascii")


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


@lru_cache(maxsize=None)
def _connected_classes(n):
    """Canonical edge masks and representatives of the connected classes
    of order n, in enumeration order."""
    if n == 1:
        return (0,), (Graph(1),)
    found = set()
    for parent in _connected_classes(n - 1)[1]:
        base = parent.adj_bits
        deg = [a.bit_count() for a in base]
        sums = [sum(deg[v] for v in _bit_indices(a)) for a in base]
        parts = _components_without(base)
        for choice in product(*_twin_prefixes(base)):
            nbrs = sum(choice)
            if nbrs and _last_is_deletable(base, deg, sums, parts, nbrs):
                found.add(_canonical_mask(Graph._from_adj(n, _extend(base, nbrs))))
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
