"""Graph type, standard constructors, and distance-based quantities.

Vertices are always labelled 0..n-1.  Adjacency is stored as one Python
integer bitmask per vertex: at the orders this package targets (a few
dozen vertices) that representation makes breadth-first search, subset
tests and the isomorphism machinery both simple and fast.

Distances come from one stacked breadth-first routine, ``_distance_stack``,
and RD and RT from one builder over it, ``_reciprocal_stack``: the cached
bundle of one graph (``matrices.build_bundle``) and the arrays of a whole
order (``extremal._order``) are both built there.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import NotConnectedError

__all__ = [
    "Graph",
    "complete",
    "edgeless",
    "path",
    "cycle",
    "star",
    "complete_bipartite",
    "complete_split",
    "complete_multipartite",
    "turan",
    "wheel",
    "join",
    "disjoint_union",
    "all_pairs_distances",
    "reciprocal_transmissions",
    "pendant_counts",
]


def _bit_indices(mask):
    """Yield positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(adj, mask):
    """Union of the neighbourhoods of the vertices in the bitmask ``mask``:
    the breadth-first step of every traversal in the package except the
    distance matrices, which step a whole stack of frontiers at once."""
    reach = 0
    while mask:
        low = mask & -mask
        reach |= adj[low.bit_length() - 1]
        mask ^= low
    return reach


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


def triangle_pairs(n):
    """Vertex pairs (i, j) with i < j in column-major order (0,1),(0,2),(1,2),(0,3),..."""
    return [(i, j) for j in range(1, n) for i in range(j)]


class Graph:
    """Immutable simple undirected graph on vertex set {0, ..., n-1}."""

    __slots__ = ("n", "adj_bits")

    def __init__(self, n, edges=()):
        if n < 1:
            raise ValueError("graph must have at least one vertex")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj_bits = tuple(adj)

    @classmethod
    def _from_adj(cls, n, adj_bits):
        g = object.__new__(cls)
        g.n = n
        g.adj_bits = tuple(adj_bits)
        return g

    @property
    def edge_count(self):
        return sum(a.bit_count() for a in self.adj_bits) // 2

    def edges(self):
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in _bit_indices(self.adj_bits[u]) if u < v]

    def has_edge(self, u, v):
        return bool(self.adj_bits[u] >> v & 1)

    def neighbors(self, v):
        return tuple(_bit_indices(self.adj_bits[v]))

    def degree(self, v):
        return self.adj_bits[v].bit_count()

    def degrees(self):
        return tuple(a.bit_count() for a in self.adj_bits)

    def adjacency(self):
        """Dense 0/1 adjacency matrix as floats."""
        a = np.zeros((self.n, self.n))
        for u, v in self.edges():
            a[u, v] = a[v, u] = 1.0
        return a

    def with_edge(self, u, v):
        """New graph with the edge {u, v} added (no-op edges are rejected)."""
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) already present")
        adj = list(self.adj_bits)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph._from_adj(self.n, adj)

    def non_edges(self):
        """All vertex pairs (u, v), u < v, that are not edges."""
        return [(u, v) for (u, v) in triangle_pairs(self.n) if not self.has_edge(u, v)]

    def permuted(self, perm):
        """Relabel: vertex v becomes perm[v]."""
        adj = [0] * self.n
        for u, v in self.edges():
            adj[perm[u]] |= 1 << perm[v]
            adj[perm[v]] |= 1 << perm[u]
        return Graph._from_adj(self.n, adj)

    def is_connected(self):
        seen = frontier = 1  # vertex 0
        while frontier:
            frontier = _reach(self.adj_bits, frontier) & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj_bits == other.adj_bits

    def __hash__(self):
        return hash((self.n, self.adj_bits))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def complete(n):
    """Complete graph on n vertices."""
    return Graph(n, triangle_pairs(n))


def edgeless(n):
    """Graph on n vertices with no edges."""
    return Graph(n)


def path(n):
    """Path 0-1-...-(n-1)."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n):
    """Star of order n: centre 0 joined to n-1 leaves."""
    return Graph(n, [(0, i) for i in range(1, n)])


def complete_bipartite(a, b):
    """Complete bipartite graph with parts of size a and b."""
    if a < 1 or b < 1:
        raise ValueError("both parts must be nonempty")
    return join(edgeless(a), edgeless(b))


def complete_split(a, b):
    """Complete split graph: an a-clique fully joined to b independent vertices."""
    if a < 1 or b < 1:
        raise ValueError("complete split graph needs a >= 1 and b >= 1")
    return join(complete(a), edgeless(b))


def complete_multipartite(parts):
    """Complete multipartite graph with the given part sizes."""
    parts = tuple(int(p) for p in parts)
    if not parts or any(p < 1 for p in parts):
        raise ValueError("part sizes must be positive")
    return reduce(join, map(edgeless, parts))


def turan(n, r):
    """Turan graph: complete r-partite graph on n vertices with balanced parts."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    return complete_multipartite(_turan_parts(n, r))


def _turan_parts(n, r):
    """The r balanced part sizes of the Turan graph on n vertices, larger first."""
    big, rest = divmod(n, r)
    return [big + 1] * rest + [big] * (r - rest)


def wheel(n):
    """Wheel of order n >= 4: a hub joined to every vertex of an (n-1)-cycle."""
    if n < 4:
        raise ValueError("wheel needs at least 4 vertices")
    return join(complete(1), cycle(n - 1))


def join(g1, g2):
    """Join: disjoint union of g1 and g2 plus all cross edges."""
    n1, n2 = g1.n, g2.n
    first, second = (1 << n1) - 1, ((1 << n2) - 1) << n1
    adj = [a | second for a in g1.adj_bits] + [a << n1 | first for a in g2.adj_bits]
    return Graph._from_adj(n1 + n2, adj)


def disjoint_union(g1, g2):
    """Disjoint union with g2's vertices shifted past g1's."""
    n1 = g1.n
    return Graph._from_adj(n1 + g2.n, g1.adj_bits + tuple(a << n1 for a in g2.adj_bits))


# ---------------------------------------------------------------------------
# Distances and transmissions
# ---------------------------------------------------------------------------

def all_pairs_distances(g):
    """Hop-count distance matrix of a connected graph, as an int64 array.

    Raises NotConnectedError on disconnected input: reciprocal distances
    of unreachable pairs are undefined, and a silent 1/inf = 0 would
    corrupt every transmission downstream.
    """
    return _distance_stack([g.adj_bits], g.n)[0]


def _distance_stack(adjs, n):
    """Distance matrices of k graphs on n vertices, given as k rows of
    adjacency bitmasks (Python ints), stacked as a (k, n, n) int64 array;
    NotConnectedError if any of them is disconnected.

    Breadth-first search from every vertex of every graph at once: the
    frontier rows times the adjacency stack, one batched product per
    distance.  The adjacency is unpacked from the bitmasks into float32:
    a product entry counts at most n neighbours, exact below 2**24.
    """
    k, width = len(adjs), (n + 7) // 8
    packed = b"".join([a.to_bytes(width, "little") for row in adjs for a in row])
    bits = np.frombuffer(packed, dtype=np.uint8).reshape(k, n, width)
    adj = np.unpackbits(bits, axis=2, count=n, bitorder="little").astype(np.float32)
    frontier = seen = np.tile(np.eye(n, dtype=bool), (k, 1, 1))
    dist = np.zeros((k, n, n), dtype=np.int64)
    for step in range(1, n):  # a distance in a connected graph is below n
        frontier = (np.matmul(frontier, adj, dtype=np.float32) > 0) & ~seen
        if not frontier.any():
            break
        seen |= frontier
        dist[frontier] = step
    if not seen.all():
        raise NotConnectedError("graph not connected")
    return dist


def _reciprocal_stack(adjs, n):
    """(RD, RT) of k connected graphs on n vertices, given as k rows of
    adjacency bitmasks: the ``(k, n, n)`` reciprocal distances 1/d_ij with
    zero diagonal and their ``(k, n)`` row sums, the reciprocal
    transmissions.  The one conversion from distances to RD; one graph is
    a stack of one."""
    d = _distance_stack(adjs, n)
    rd = np.divide(1.0, d, out=np.zeros(d.shape), where=d > 0)
    return rd, rd.sum(axis=2)


def reciprocal_transmissions(g):
    """Per-vertex sums of reciprocal distances to all other vertices."""
    return _reciprocal_stack([g.adj_bits], g.n)[1][0]


def pendant_counts(g):
    """Number of degree-1 vertices and of their distinct neighbours (p, q)."""
    pendants = [v for v in range(g.n) if g.degree(v) == 1]
    quasi = {g.neighbors(v)[0] for v in pendants}
    return len(pendants), len(quasi)
