"""Shared fixtures and independent oracles for the test-suite.

The oracles here deliberately avoid the library's own algorithms:
connectivity-style invariants are recomputed by plain subset
enumeration over explicit edge sets, isomorphism classes are counted and
canonical forms of twin-heavy graphs checked by minimizing edge bitmasks
over all n! permutations with numpy.  Whatever
the library computes with refinement or branch-and-bound is checked
against these slower, simpler routes.  Spectra come from the library's
LAPACK solver (numpy.linalg.eigh), whose reported residual
||A V - V Lambda||_F the solver tests recompute, and are checked against
values derived without an eigensolver.  The enumeration's packed
refinement keys, twin grouping and incremental deletion keys are checked
against reference versions that compute the same results directly.
"""

from itertools import combinations, permutations, product

import networkx as nx
import numpy as np
import pytest
from hypothesis import strategies as st

from hararyspec import Graph, build_bundle, rd_alpha, sym_eigen, to_graph6
from hararyspec.enumeration import enumerate_connected_graphs
from hararyspec.graphs import _bit_indices, triangle_pairs

ALPHA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.fixture(autouse=True)
def cold_bundles():
    """Start every test with no cached bundle, and so no solved blend rows
    (they live on their bundles), whatever ran before it."""
    build_bundle.cache_clear()


# ---------------------------------------------------------------------------
# Named graphs
# ---------------------------------------------------------------------------

def make_paw():
    """Triangle with one pendant vertex."""
    return Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])


def make_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def make_double_star(p, q):
    """Adjacent centres 0 and 1 with p and q leaves respectively."""
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(p)]
    edges += [(1, 2 + p + i) for i in range(q)]
    return Graph(2 + p + q, edges)


@pytest.fixture
def paw():
    return make_paw()


@pytest.fixture
def petersen():
    return make_petersen()


@st.composite
def connected_graphs(draw, min_n=8, max_n=16):
    """A random spanning tree plus random extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    return Graph(n, sorted(edges | set(extra)))


# ---------------------------------------------------------------------------
# Cached per-graph spectra over the enumerated catalogue
# ---------------------------------------------------------------------------

class CatalogEntry:
    def __init__(self, graph):
        self.graph = graph
        self.bundle = build_bundle(graph)
        self._spectra = {}

    def eigenvalues(self, alpha):
        if alpha not in self._spectra:
            self._spectra[alpha] = sym_eigen(rd_alpha(self.bundle, alpha)).values
        return self._spectra[alpha]

    def rho(self, alpha):
        return float(self.eigenvalues(alpha)[0])

    def lambda_min(self, alpha):
        return float(self.eigenvalues(alpha)[-1])


class Catalog:
    def __init__(self):
        self._orders = {}

    def entries(self, n):
        if n not in self._orders:
            self._orders[n] = [CatalogEntry(g) for g in enumerate_connected_graphs(n)]
        return self._orders[n]

    def up_to(self, n, start=1):
        out = []
        for k in range(start, n + 1):
            out.extend(self.entries(k))
        return out


@pytest.fixture(scope="session")
def catalog():
    return Catalog()


# ---------------------------------------------------------------------------
# Brute-force invariant oracles (edge-set based, no bitmask tricks)
# ---------------------------------------------------------------------------

def _components(n, edges, dropped_vertices=frozenset()):
    vertices = [v for v in range(n) if v not in dropped_vertices]
    adj = {v: set() for v in vertices}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    seen = set()
    count = 0
    for start in vertices:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def brute_vertex_connectivity(g):
    n, edges = g.n, g.edges()
    if _components(n, edges) != 1:
        return 0
    if len(edges) == n * (n - 1) // 2:
        return n - 1
    for k in range(1, n - 1):
        for cut in combinations(range(n), k):
            if _components(n, edges, frozenset(cut)) > 1:
                return k
    return n - 1


def brute_edge_connectivity(g):
    n, edges = g.n, g.edges()
    if n == 1 or _components(n, edges) != 1:
        return 0
    for k in range(1, len(edges) + 1):
        for cut in combinations(edges, k):
            kept = [e for e in edges if e not in set(cut)]
            if _components(n, kept) > 1:
                return k
    return len(edges)


def brute_chromatic_number(g):
    n, edges = g.n, g.edges()
    if not edges:
        return 1
    for k in range(1, n + 1):
        for coloring in product(range(k), repeat=n):
            if all(coloring[u] != coloring[v] for u, v in edges):
                return k
    return n


def brute_independence_number(g):
    n, edges = g.n, g.edges()
    edge_set = set(edges)
    for size in range(n, 0, -1):
        for sub in combinations(range(n), size):
            if all((u, v) not in edge_set for u, v in combinations(sub, 2)):
                return size
    return 1


# ---------------------------------------------------------------------------
# Labeled-graph isomorphism-class oracle (independent of canonical_form)
# ---------------------------------------------------------------------------

def _mask_connected(n, mask, pairs):
    adj = {v: set() for v in range(n)}
    for k, (i, j) in enumerate(pairs):
        if mask >> k & 1:
            adj[i].add(j)
            adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_class_count_bruteforce(n):
    """Count connected isomorphism classes by minimizing edge bitmasks
    over all n! vertex permutations (vectorized over all labeled graphs)."""
    pairs = triangle_pairs(n)
    m = len(pairs)
    index = {pair: k for k, pair in enumerate(pairs)}
    masks = np.array(
        [mask for mask in range(1 << m) if _mask_connected(n, mask, pairs)],
        dtype=np.int64,
    )
    best = masks.copy()
    for perm in permutations(range(n)):
        out = np.zeros_like(masks)
        for k, (i, j) in enumerate(pairs):
            target = index[tuple(sorted((perm[i], perm[j])))]
            out |= ((masks >> k) & 1) << target
        np.minimum(best, out, out=best)
    return len(set(best.tolist()))


def brute_canonical_mask(g):
    """Smallest relabelled edge bitmask over all n! vertex orderings.

    Bits follow the graph6 pair order (0,1),(0,2),(1,2),(0,3),... with
    the first pair most significant.  No refinement and no pruning: every
    permutation is tried, vectorized with numpy.
    """
    n = g.n
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in g.edges():
        adj[u, v] = adj[v, u] = 1
    perms = np.array(list(permutations(range(n))))
    masks = np.zeros(len(perms), dtype=np.int64)
    for j in range(1, n):
        for i in range(j):
            masks = (masks << 1) | adj[perms[:, i], perms[:, j]]
    return int(masks.min())


def graph6_of_mask(n, mask):
    """graph6 bytes of the n-vertex graph with the given edge bitmask."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    m = len(pairs)
    edges = [pair for k, pair in enumerate(pairs) if mask >> (m - 1 - k) & 1]
    return to_graph6(Graph(n, edges)).encode("ascii")


# ---------------------------------------------------------------------------
# Reference versions of the enumeration's hot loops, in their direct form
# ---------------------------------------------------------------------------

def reference_refine(adj, cells):
    """Equitable refinement with tuple count-vector keys, run until stable."""
    while True:
        refined = []
        for cell in cells:
            if not cell & (cell - 1):
                refined.append(cell)
                continue
            groups = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                key = tuple([(adj[low.bit_length() - 1] & c).bit_count() for c in cells])
                groups[key] = groups.get(key, 0) | low
            refined += [groups[key] for key in sorted(groups)]
        if len(refined) == len(cells):
            return cells
        cells = refined


def reference_twins(adj):
    """Per vertex, the bitmask of its twins, comparing every pair."""
    n = len(adj)
    twins = [0] * n
    for u in range(n):
        for v in range(u):
            if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                twins[u] |= 1 << v
                twins[v] |= 1 << u
    return twins


def reference_last_is_deletable(adj, full):
    """The deletion-key test on the child's own adjacency: no non-cut
    vertex outranks the last one by (degree, sum of neighbour degrees).
    Cut vertices are found by the edge-list component count."""
    deg = [a.bit_count() for a in adj]
    w = len(adj) - 1
    top = (deg[w], sum(deg[v] for v in _bit_indices(adj[w])))
    edges = [(u, v) for u in range(w + 1) for v in _bit_indices(adj[u]) if u < v]
    outside = frozenset(v for v in range(w + 1) if not full >> v & 1)
    for u in range(w):
        if deg[u] < top[0]:
            continue
        if (deg[u], sum(deg[v] for v in _bit_indices(adj[u]))) > top and _components(
            w + 1, edges, outside | {u}
        ) == 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Random edge lists and explicit edge-list constructions (no bitmasks)
# ---------------------------------------------------------------------------

def random_edges(rng, n, connected=False):
    """Edge list of a random graph on 0..n-1.

    Sparse densities are drawn often, so many graphs are disconnected;
    one graph in three is bipartite by construction (edges only between
    two random sides).  ``connected=True`` adds a random spanning tree.
    """
    p = rng.choice((0.5 / n, 1.5 / n, 3.0 / n, 0.5))
    side = [rng.random() < 0.5 for _ in range(n)]
    bipartite = rng.random() < 1 / 3
    edges = {
        (u, v)
        for v in range(n)
        for u in range(v)
        if rng.random() < p and not (bipartite and side[u] == side[v])
    }
    if connected:
        edges |= {(rng.randrange(v), v) for v in range(1, n)}
    return sorted(edges)


def nx_graph(n, edges):
    """The same graph as a networkx graph, isolated vertices included."""
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return h


def multipartite_edges(parts):
    """Every pair of vertices in different parts, parts numbered in order."""
    part_of = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(part_of)
    return sorted((u, v) for v in range(n) for u in range(v) if part_of[u] != part_of[v])


def union_edges(n1, edges1, edges2):
    """Disjoint union: the second graph's vertices shifted past the first's."""
    return sorted(list(edges1) + [(u + n1, v + n1) for u, v in edges2])


def join_edges(n1, edges1, n2, edges2):
    """Join: the disjoint union plus every pair across the two sides."""
    cross = [(u, n1 + v) for u in range(n1) for v in range(n2)]
    return sorted(union_edges(n1, edges1, edges2) + cross)


# ---------------------------------------------------------------------------
# Assertions
# ---------------------------------------------------------------------------

def assert_spectra_close(got, expected, tol=1e-8):
    got = np.sort(np.asarray(got, dtype=float))
    expected = np.sort(np.asarray(expected, dtype=float))
    assert got.shape == expected.shape, f"sizes differ: {got.shape} vs {expected.shape}"
    worst = float(np.abs(got - expected).max())
    assert worst <= tol, f"spectra differ by {worst:.3e} (tol {tol:.1e})\n{got}\n{expected}"
