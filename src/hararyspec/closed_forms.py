"""Closed-form spectra of the reciprocal-distance blends for special families.

Every family here reduces exactly: complete graphs, regular graphs of
diameter two (via their adjacency spectrum), joins of regular graphs,
complete bipartite / split / multipartite graphs, wheels, and graphs
with a cluster of co-neighbour twins (via an equitable quotient).  Each
builder returns (eigenvalue, multiplicity) pairs; quotient reductions
also expose the non-symmetric quotient matrix together with the
positive diagonal similarity that symmetrizes it.

All quadratics are solved in the cancellation-free form: the
discriminant is assembled as a sum of squares and the smaller-magnitude
root is recovered from the product of the roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import sym_eigen
from .graphs import _bit_indices, all_pairs_distances, reciprocal_transmissions
from .matrices import build_bundle, check_alpha, rd_alpha

__all__ = [
    "ClosedFormSpectrum",
    "QuotientMatrix",
    "ClusterSpec",
    "spectrum_complete",
    "spectrum_regular_diam2",
    "spectrum_join_regular",
    "spectrum_complete_bipartite",
    "spectrum_complete_split",
    "spectrum_wheel",
    "spectrum_multipartite",
    "multipartite_quotient",
    "cluster_spec",
    "cluster_quotient",
    "adjacency_spectrum_complete",
    "adjacency_spectrum_cycle",
    "adjacency_spectrum_edgeless",
]

_SYMMETRIZE_TOL = 1e-12


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Eigenvalues with multiplicities, plus the family that produced them."""

    pairs: tuple[tuple[float, int], ...]
    source: str

    @property
    def n(self):
        return sum(m for _, m in self.pairs)

    def eigenvalues(self):
        """Expanded eigenvalue vector, descending."""
        vals = np.concatenate([np.full(m, v) for v, m in self.pairs])
        return np.sort(vals)[::-1]


@dataclass(frozen=True)
class QuotientMatrix:
    """Equitable-partition quotient with its diagonal symmetrizer sqrt(block sizes)."""

    matrix: np.ndarray
    block_sizes: tuple[int, ...]

    def symmetrized(self):
        d = np.sqrt(np.asarray(self.block_sizes, dtype=float))
        s = self.matrix * d[:, None] / d[None, :]
        scale = max(1.0, float(np.abs(s).max()))
        if float(np.abs(s - s.T).max()) > _SYMMETRIZE_TOL * scale:
            raise ValueError("diagonal similarity failed to symmetrize the quotient")
        return 0.5 * (s + s.T)

    def eigenvalues(self):
        return sym_eigen(self.symmetrized()).values


def _pairs(entries):
    """Freeze the (value, multiplicity) list, dropping zero multiplicities
    and merging each value within 1e-9 max(1, |v|) of an earlier one into
    it, so that every eigenvalue is listed once with its whole multiplicity."""
    merged = {}
    for v, m in entries:
        if m > 0:
            w = next((w for w in merged if abs(v - w) <= 1e-9 * max(1.0, abs(w))), float(v))
            merged[w] = merged.get(w, 0) + int(m)
    return tuple(merged.items())


def _stable_quadratic(s, p, disc):
    """Roots of x^2 - s*x + p, descending, given a cancellation-free discriminant."""
    root = math.sqrt(max(disc, 0.0))
    big = 0.5 * (s + root) if s >= 0.0 else 0.5 * (s - root)
    if big == 0.0:
        return 0.5 * root, -0.5 * root
    other = p / big
    return max(big, other), min(big, other)


def spectrum_complete(n, alpha):
    """{n-1} plus alpha*n - 1 repeated n-1 times."""
    a = check_alpha(alpha)
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    if n == 1:
        return ClosedFormSpectrum(_pairs([(0.0, 1)]), "complete")
    return ClosedFormSpectrum(_pairs([(n - 1.0, 1), (a * n - 1.0, n - 1)]), "complete")


def spectrum_regular_diam2(g, alpha):
    """Blend spectrum of an r-regular graph of diameter exactly 2.

    The reciprocal-distance matrix is (J - I + A)/2, so the all-ones
    vector carries (n + r - 1)/2 and every other adjacency eigenpair
    (lambda, x) maps to ((alpha*(n + r) - 1) + (1 - alpha)*lambda)/2.
    """
    a = check_alpha(alpha)
    degs = set(g.degrees())
    if len(degs) != 1:
        raise ValueError("graph is not regular")
    r = degs.pop()
    if int(all_pairs_distances(g).max()) != 2:
        raise ValueError("graph diameter is not 2")
    n = g.n
    adj_vals = sym_eigen(g.adjacency()).values
    entries = [(0.5 * (n + r - 1.0), 1)]
    entries += [(0.5 * ((a * (n + r) - 1.0) + (1.0 - a) * lam), 1) for lam in adj_vals[1:]]
    return ClosedFormSpectrum(_pairs(entries), "regular_diameter_2")


def _join_quadratic(n1, r1, n2, r2, a):
    """The two join eigenvalues coupling the all-ones directions of both sides."""
    lin1 = a * n2 + 0.5 * (n1 + r1 - 1.0)
    lin2 = a * n1 + 0.5 * (n2 + r2 - 1.0)
    cross = (1.0 - a) ** 2 * n1 * n2
    disc = (lin1 - lin2) ** 2 + 4.0 * cross
    return _stable_quadratic(lin1 + lin2, lin1 * lin2 - cross, disc)


def spectrum_join_regular(n1, r1, adj_spectrum1, n2, r2, adj_spectrum2, alpha):
    """Blend spectrum of the join of an r1-regular and an r2-regular graph.

    Inputs are the full adjacency spectra of the two sides with the
    Perron value r_i first.  Each non-principal adjacency eigenvalue
    lambda of side i contributes
    (alpha*(n + n_other + r_i) + (1-alpha)*lambda - 1)/2, and the two
    remaining eigenvalues solve the coupling quadratic.
    """
    a = check_alpha(alpha)
    spec1 = np.sort(np.asarray(adj_spectrum1, dtype=float))[::-1]
    spec2 = np.sort(np.asarray(adj_spectrum2, dtype=float))[::-1]
    for name, spec, n_i, r_i in (("first", spec1, n1, r1), ("second", spec2, n2, r2)):
        if len(spec) != n_i:
            raise ValueError(f"{name} spectrum has {len(spec)} entries, expected {n_i}")
        if abs(spec[0] - r_i) > 1e-8:
            raise ValueError(f"inconsistent {name} spectrum: largest eigenvalue != degree")
        if np.abs(spec).max() > r_i + 1e-8:
            raise ValueError(f"inconsistent {name} spectrum: |eigenvalue| exceeds degree")
    n = n1 + n2
    entries = [
        (0.5 * (a * (n + n2 + r1) + (1.0 - a) * lam - 1.0), 1) for lam in spec1[1:]
    ]
    entries += [
        (0.5 * (a * (n + n1 + r2) + (1.0 - a) * lam - 1.0), 1) for lam in spec2[1:]
    ]
    hi, lo = _join_quadratic(n1, r1, n2, r2, a)
    entries += [(hi, 1), (lo, 1)]
    return ClosedFormSpectrum(_pairs(entries), "join_regular")


def spectrum_complete_bipartite(a_part, b_part, alpha):
    """Two repeated families plus the coupling quadratic for K_{a,b}."""
    a = check_alpha(alpha)
    if a_part < 1 or b_part < 1:
        raise ValueError("both parts must be nonempty")
    n = a_part + b_part
    entries = [
        (0.5 * (a * (n + b_part) - 1.0), a_part - 1),
        (0.5 * (a * (n + a_part) - 1.0), b_part - 1),
    ]
    hi, lo = _join_quadratic(a_part, 0, b_part, 0, a)
    entries += [(hi, 1), (lo, 1)]
    return ClosedFormSpectrum(_pairs(entries), "complete_bipartite")


def spectrum_complete_split(a_part, b_part, alpha):
    """Repeated clique and independent-part families plus the quadratic for CS_{a,b}."""
    a = check_alpha(alpha)
    if a_part < 1 or b_part < 2:
        raise ValueError("complete split spectrum needs a >= 1 and b >= 2")
    n = a_part + b_part
    entries = [
        (a * n - 1.0, a_part - 1),
        (0.5 * (a * (n + a_part) - 1.0), b_part - 1),
    ]
    hi, lo = _join_quadratic(a_part, a_part - 1, b_part, 0, a)
    entries += [(hi, 1), (lo, 1)]
    return ClosedFormSpectrum(_pairs(entries), "complete_split")


def spectrum_wheel(n, alpha):
    """Cosine family from the rim cycle plus the hub coupling quadratic."""
    a = check_alpha(alpha)
    if n < 4:
        raise ValueError("wheel needs at least 4 vertices")
    entries = [
        (0.5 * (a * (n + 3) - 1.0 + 2.0 * (1.0 - a) * math.cos(2.0 * math.pi * j / (n - 1))), 1)
        for j in range(1, n - 1)
    ]
    hi, lo = _join_quadratic(1, 0, n - 1, 2, a)
    entries += [(hi, 1), (lo, 1)]
    return ClosedFormSpectrum(_pairs(entries), "wheel")


def multipartite_quotient(parts, alpha):
    """Equitable quotient of the blend of a complete multipartite graph."""
    a = check_alpha(alpha)
    parts = tuple(int(p) for p in parts)
    n = sum(parts)
    r = len(parts)
    t = np.empty((r, r))
    for i in range(r):
        for j in range(r):
            if i == j:
                t[i, j] = a * (n - parts[i]) + 0.5 * (parts[i] - 1.0)
            else:
                t[i, j] = (1.0 - a) * parts[j]
    return QuotientMatrix(t, parts)


def spectrum_multipartite(parts, alpha):
    """Per-part repeated families plus the r quotient eigenvalues for K_{n_1,...,n_r}."""
    a = check_alpha(alpha)
    parts = tuple(int(p) for p in parts)
    if len(parts) < 2 or any(p < 1 for p in parts):
        raise ValueError("need at least two nonempty parts")
    n = sum(parts)
    if n < 4:
        raise ValueError("multipartite closed form needs n >= 4")
    entries = [(a * (n - 0.5 * p) - 0.5, p - 1) for p in parts]
    quotient = multipartite_quotient(parts, a)
    entries += [(lam, 1) for lam in quotient.eigenvalues()]
    return ClosedFormSpectrum(_pairs(entries), "complete_multipartite")


# ---------------------------------------------------------------------------
# Clusters of co-neighbour vertices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterSpec:
    """A set C of pairwise co-neighbour vertices, their shared outside
    neighbourhood S, and the common reciprocal transmission t the C
    vertices have in the independent form of the graph."""

    vertices: tuple[int, ...]
    shared_neighbors: tuple[int, ...]
    transmission: float


def cluster_spec(g, vertices, variant="independent"):
    """Validate a cluster and derive its shared neighbourhood and transmission.

    variant="independent": C must be independent in g.
    variant="clique": g is the graph whose cluster has been completed
    into a clique; C must induce one.  Either way every vertex of C must
    see exactly the same neighbours outside C.
    """
    if variant not in ("independent", "clique"):
        raise ValueError(f"unknown cluster variant {variant!r}")
    c_verts = tuple(sorted(set(vertices)))
    c = len(c_verts)
    if c < 2:
        raise ValueError("a cluster needs at least two vertices")
    c_mask = 0
    for v in c_verts:
        c_mask |= 1 << v
    outside_sets = {g.adj_bits[v] & ~c_mask for v in c_verts}
    if len(outside_sets) != 1:
        raise ValueError("cluster vertices do not share one outside neighbourhood")
    inside_degrees = {(g.adj_bits[v] & c_mask).bit_count() for v in c_verts}
    if variant == "independent" and inside_degrees != {0}:
        raise ValueError("variant mismatch: cluster is not independent")
    if variant == "clique" and inside_degrees != {c - 1}:
        raise ValueError("variant mismatch: cluster does not induce a clique")
    shared = outside_sets.pop()
    tr = reciprocal_transmissions(g)
    t_here = float(tr[c_verts[0]])
    # Transmission in the independent form: completing C into a clique
    # moves the c-1 in-cluster distances from 2 to 1.
    t = t_here - 0.5 * (c - 1) if variant == "clique" else t_here
    return ClusterSpec(c_verts, tuple(_bit_indices(shared)), t)


def cluster_quotient(g, cluster, variant, alpha):
    """Repeated cluster eigenvalue and the (n - c + 1)-dimensional quotient.

    Independent variant: alpha*t + (alpha - 1)/2 with multiplicity c - 1.
    Clique variant: alpha*(t + c/2 + 1/2) - 1 with multiplicity c - 1.
    The quotient couples the collapsed cluster row with the untouched
    outside block of the blend; its blocks have sizes (c, 1, ..., 1).
    """
    a = check_alpha(alpha)
    cluster = cluster_spec(g, cluster.vertices, variant)  # revalidate against g
    c_verts = cluster.vertices
    c = len(c_verts)
    t = cluster.transmission
    outside = [v for v in range(g.n) if v not in set(c_verts)]
    if not outside:
        raise ValueError("cluster covers the whole graph; no quotient to build")
    blend = rd_alpha(build_bundle(g), a)
    x = blend[c_verts[0], outside]
    z = blend[np.ix_(outside, outside)]
    k = len(outside)
    if variant == "independent":
        repeated = a * t + 0.5 * (a - 1.0)
        corner = a * (t + 0.5) - 0.5 + 0.5 * c * (1.0 - a)
    else:
        repeated = a * (t + 0.5 * c + 0.5) - 1.0
        corner = a * (t + 0.5) - 1.0 + 0.5 * c * (2.0 - a)
    q = np.empty((k + 1, k + 1))
    q[0, 0] = corner
    q[0, 1:] = x
    q[1:, 0] = c * x
    q[1:, 1:] = z
    quotient = QuotientMatrix(q, (c,) + (1,) * k)
    return float(repeated), c - 1, quotient


# ---------------------------------------------------------------------------
# Stock adjacency spectra for feeding the join formula
# ---------------------------------------------------------------------------

def adjacency_spectrum_complete(n):
    """{n-1, (-1)^[n-1]}."""
    return np.array([n - 1.0] + [-1.0] * (n - 1))


def adjacency_spectrum_cycle(n):
    """Circulant eigenvalues 2*cos(2*pi*j/n), Perron value first."""
    vals = [2.0 * math.cos(2.0 * math.pi * j / n) for j in range(n)]
    return np.array(sorted(vals, reverse=True))


def adjacency_spectrum_edgeless(n):
    """All zeros."""
    return np.zeros(n)
