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
  gained a cell get another pass, keyed again on every cell.
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
subsets S, deduplicated canonically.  Every step runs on whole-order
arrays: the parents' adjacency rows, one row per candidate (parent, S),
and the children's rows, labelled in one stacked call.  Two prunings
decide which extensions are labelled at all (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998):

* Deletion key.  A child is rejected unless w has the largest key
  (degree, sum of neighbour degrees) among its non-cut vertices.  Every
  connected class C has a non-cut vertex x of largest key; deleting x
  leaves a connected graph isomorphic to some parent representative P,
  and the extension of P that recreates C puts w where x was, so it
  passes.  The key and the cut test are invariants of the child with w
  fixed, so isomorphic extensions of P pass or fail together.  The keys
  come from P's degrees d and neighbour-degree sums s: in P + w,
  d'(u) = d(u) + [u in S] and s'(u) = s(u) + |N(u) & S| + [u in S]|S|,
  and w's key is (|S|, sum of d over S + |S|), where the sum of d over
  S is the sum of |N(u) & S| over all u.  So does the cut test: P + w
  - u is connected iff S meets every component of P - u.  A stacked
  table holds that answer for every parent, u and S: the components
  come from Warshall's closure of P - u, and their unions over S grow
  one vertex at a time, as in the subset tables of ``invariants``.
* Twin orbits.  Twins of P form classes (cliques or independent sets)
  that P's automorphisms permute freely, so any S can be moved onto one
  that meets every twin class c1 < c2 < ... in a prefix: S holds a twin
  only together with its nearest lower twin.  Only those S are tried,
  numbered by a mixed-radix key: one digit per twin class, c1 most
  significant, counting the members of the class that S holds.  A
  vertex with r lower twins is in S iff its class digit exceeds r, and
  the keys 1, 2, ... of each parent in turn give the generation order.

The kept canonical masks are decoded into the representatives'
adjacency rows in one step, the inverse of the leaf masks.  The masks
and rows are the per-order arrays the extremal scans read;
``enumerate_connected_graphs`` builds its ``Graph`` tuple from the rows
on first call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BudgetError
from .graph6 import _pack_graph6
from .graphs import Graph

__all__ = [
    "canonical_form",
    "enumerate_connected_graphs",
]

CANONICAL_BUDGET = 10
ENUMERATION_BUDGET = 8
_CANDIDATES = 1 << 18  # candidate extensions tested in one stacked block


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
        count = int(top.max()) + 1
        node = np.arange(len(rows))[:, None]
        # each cell's member bitmask, one bin per (node, cell); the sums stay exact in float64
        members = np.bincount((node * count + part).ravel(), np.tile(bits, len(rows)),
                              len(rows) * count).astype(np.uint16).reshape(-1, count)
        key = part.astype(np.int64)
        for cell in members.T:
            key <<= width
            key |= np.bitwise_count(nbrs & cell[:, None])
        order = key.argsort(axis=1)
        ranked = key[node, order]
        rank = np.zeros(part.shape, dtype=np.int8)
        np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=rank[:, 1:])
        part[node, order] = rank
        cells[rows] = part
        rows = rows[(rank[:, -1] > top) & (rank[:, -1] < n - 1)]
    return cells


@lru_cache(maxsize=None)
def _pairs(n):
    """The vertex pairs (i, j), i < j, of order n in ``triangle_pairs``
    order, as read-only index arrays i and j, with each pair's bit position
    and bit in an edge mask, the first pair most significant."""
    j, i = np.tril_indices(n, -1)
    shifts = np.arange(len(i) - 1, -1, -1)
    arrays = i, j, shifts, np.left_shift(1, shifts)
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _leaf_masks(adj, cells):
    """Edge masks of a stack of graphs relabelled by their discrete
    partitions: the vertex in cell i becomes i."""
    i, j, _, weights = _pairs(cells.shape[1])
    order = cells.argsort(axis=1).astype(np.uint8)
    rows = adj[np.arange(len(adj))[:, None], order]
    pairs = rows[:, j] >> order[:, i] & 1
    return pairs @ weights


def _twin_classes(adj):
    """Per graph and vertex v of a stack of adjacency rows, the bitmask of
    v's twin class: v and the vertices with its neighbours apart from each
    other."""
    bits = np.left_shift(1, np.arange(adj.shape[1], dtype=np.uint16))
    off = adj[:, :, None] & ~bits  # off[g, u, v]: u's neighbours other than v
    return np.where(off == off.transpose(0, 2, 1), bits, 0).sum(axis=2, dtype=np.uint16)


def _canonical_masks(adjs, n):
    """Canonical edge masks of k graphs on n vertices, given as k rows of
    adjacency bitmasks: every search node of every graph at one depth is
    refined, closed as a leaf or branched in one stacked step."""
    if n > CANONICAL_BUDGET:
        raise BudgetError(
            f"budget exceeded: canonical labelling limited to n <= {CANONICAL_BUDGET}, got n={n}"
        )
    adj = np.asarray(adjs, dtype=np.uint16).reshape(-1, n)
    bits = np.left_shift(1, np.arange(n, dtype=np.uint16))
    lower_twins = _twin_classes(adj) & bits - 1  # the twins u < v of each v
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


def canonical_form(g):
    """Canonical certificate: equal bytes iff the graphs are isomorphic."""
    return _pack_graph6(g.n, _canonical_masks([g.adj_bits], g.n)[0]).encode("ascii")


def _cut_table(adj):
    """Per graph g, vertex u and vertex bitmask S of a stack of adjacency
    rows, whether S meets the component of every vertex v of g - u: then u
    is no cut vertex of g plus a new vertex joined to S.  The components
    come from Warshall's closure, in which whatever reaches w reaches all
    that w reaches, and their unions over S grow one vertex at a time."""
    k, n = adj.shape
    bits = np.left_shift(1, np.arange(n, dtype=np.uint16))
    reach = adj[:, None, :] & ~bits[:, None] | bits  # reach[g, u, v]: v and its neighbours but u
    for w in range(n):
        reach |= np.where(reach >> w & 1, reach[:, :, w, None], 0)
    reach[:, np.arange(n), np.arange(n)] = 0
    union = np.zeros((k, n, 1 << n), dtype=np.uint16)
    for v in range(n):
        union[:, :, 1 << v:2 << v] = union[:, :, :1 << v] | reach[:, :, v, None]
    return union == (bits.sum() ^ bits)[:, None]


def _deletable(adj, parent, nbrs):
    """Per candidate, the parent ``adj[parent]`` plus w joined to the bitmask
    ``nbrs``, whether no non-cut vertex of the child outranks w by the
    deletion key (module docstring)."""
    bits = np.left_shift(1, np.arange(adj.shape[1], dtype=np.uint16))
    deg = np.bitwise_count(adj)
    sums = np.where(adj[:, :, None] & bits, deg[:, None, :], 0).sum(axis=2, dtype=np.uint8)
    inside = (nbrs[:, None] & bits) != 0
    k = np.bitwise_count(nbrs)[:, None]
    shared = np.bitwise_count(adj[parent] & nbrs[:, None])  # |N(u) & S|
    top = shared.sum(axis=1, keepdims=True, dtype=np.uint8) + k  # w's: degrees over S, plus |S|
    d = deg[parent] + inside
    s = sums[parent] + shared + inside * k
    node, u = np.nonzero((d > k) | (d == k) & (s > top))
    keep = np.ones(len(nbrs), dtype=bool)
    keep[node[_cut_table(adj)[parent[node], u, nbrs[node]]]] = False
    return keep


def _extensions(adj):
    """Adjacency rows of the extensions of a (k, n) stack of parents that
    pass both prunings, in generation order.  The candidates S of a parent
    are the numbers of a mixed-radix key with one digit per twin class,
    first class most significant; a digit counts the members of its class
    that S holds, lowest first, so v is in S iff its class digit exceeds
    v's rank in the class."""
    n = adj.shape[1]
    bits = np.left_shift(1, np.arange(n, dtype=np.uint16))
    classes = _twin_classes(adj)
    rank = np.bitwise_count(classes & bits - 1)  # v's rank in its class
    radix = np.bitwise_count(classes).astype(np.int32) + 1  # the digits of v's class
    own = np.where(rank == 0, radix, 1)  # one radix per class, at its lowest member
    place = np.cumprod(own[:, ::-1], axis=1)[:, ::-1] // own  # the weight of each class digit
    lowest = np.bitwise_count((classes & ~(classes - 1)) - 1)
    place = np.take_along_axis(place, lowest.astype(np.intp), axis=1)
    count = place[:, 0] * radix[:, 0] - 1  # S = {} left out
    parent = np.repeat(np.arange(len(adj)), count)
    first = np.cumsum(count, dtype=np.int32) - count  # each parent's first candidate
    key = np.arange(1, len(parent) + 1, dtype=np.int32) - np.repeat(first, count)
    # digit > rank, with the digit's lower places kept: key mod (place radix) >= (rank + 1) place
    inside = key[:, None] % (place * radix)[parent] >= ((rank + 1) * place)[parent]
    nbrs = np.where(inside, bits, 0).sum(axis=1, dtype=np.uint16)
    keep = _deletable(adj, parent, nbrs)
    children = np.empty((np.count_nonzero(keep), n + 1), dtype=np.uint16)
    children[:, :-1] = adj[parent[keep]] | np.where(inside[keep], np.uint16(1 << n), 0)
    children[:, -1] = nbrs[keep]
    return children


def _children(n):
    """Adjacency rows of the order-n extensions that pass both prunings,
    in generation order, as a (k, n) array: the stack ``_connected_classes``
    labels.  A parent has fewer than 2^(n-1) candidates; the parents go in
    blocks of at most ``_CANDIDATES`` candidates, one block up to n = 8."""
    adj = _connected_classes(n - 1)[1]
    step = max(1, _CANDIDATES >> n - 1)
    return np.concatenate([_extensions(adj[i:i + step]) for i in range(0, len(adj), step)])


def _mask_rows(masks, n):
    """Adjacency rows of the graphs on n vertices with the given edge masks
    (the inverse of ``_leaf_masks`` on the identity order)."""
    i, j, shifts, _ = _pairs(n)
    pairs = masks[:, None] >> shifts & 1
    weights = np.zeros((len(i), n), dtype=np.int64)
    weights[np.arange(len(i)), i] = 1 << j
    weights[np.arange(len(i)), j] = 1 << i
    return (pairs @ weights).astype(np.uint16)


@lru_cache(maxsize=None)
def _connected_classes(n):
    """Canonical edge masks and adjacency rows of the connected classes of
    order n, in enumeration order, as read-only arrays of shapes (k,) and
    (k, n)."""
    if n == 1:
        masks = np.zeros(1, dtype=np.int64)
    else:
        masks = np.sort(_canonical_masks(_children(n), n))
        masks = masks[np.append(True, masks[1:] != masks[:-1])]  # np.unique imports numpy.ma
        masks = masks[np.argsort(np.bitwise_count(masks), kind="stable")]
    adj = _mask_rows(masks, n)
    masks.setflags(write=False)
    adj.setflags(write=False)
    return masks, adj


@lru_cache(maxsize=None)
def enumerate_connected_graphs(n):
    """One canonically labelled representative per connected isomorphism class.

    Deterministic order: by edge count, then by canonical certificate.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if n > ENUMERATION_BUDGET:
        raise BudgetError(
            f"budget exceeded: enumeration limited to n <= {ENUMERATION_BUDGET}, got n={n}"
        )
    return tuple(Graph._from_adj(n, row) for row in _connected_classes(n)[1].tolist())
