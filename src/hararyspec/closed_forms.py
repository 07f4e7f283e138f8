"""Closed-form spectra of the reciprocal-distance blends for special families.

Every family here reduces exactly: complete graphs, regular graphs of
diameter two (via their adjacency spectrum), joins of regular graphs,
complete bipartite / split / multipartite graphs, wheels, and any
connected graph through its twin classes.  Each builder returns
(eigenvalue, multiplicity) pairs.

Twins, vertices with the same neighbours apart from each other, are at
equal distance from every other vertex, so the twin classes form an
equitable partition of the blend.  A class of c twins at mutual
reciprocal distance w (1 in a clique class, 1/2 in an independent one),
with reciprocal transmission o to the other classes, carries the value
alpha*(o + c*w) - w on every vector that sums to zero over the class,
so with multiplicity c - 1.  The other eigenvalues are those of the
quotient matrix over the classes, which the diagonal similarity
sqrt(c) makes symmetric.  The parts of a complete multipartite graph
are such classes, independent and at mutual distance 1.

All quadratics are solved in the cancellation-free form: the
discriminant is assembled as a sum of squares and the smaller-magnitude
root is recovered from the product of the roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import _eigenvalues
from .graphs import _twins
from .matrices import build_bundle, check_alpha

__all__ = [
    "ClosedFormSpectrum",
    "spectrum_complete",
    "spectrum_regular_diam2",
    "spectrum_join_regular",
    "spectrum_complete_bipartite",
    "spectrum_complete_split",
    "spectrum_wheel",
    "spectrum_multipartite",
    "spectrum_twin_quotient",
    "adjacency_spectrum_complete",
    "adjacency_spectrum_cycle",
    "adjacency_spectrum_edgeless",
]


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
    rd = build_bundle(g).rd  # diameter 2: the smallest off-diagonal 1/d_ij is 1/2
    if float(rd.min(initial=1.0, where=rd > 0.0)) != 0.5:
        raise ValueError("graph diameter is not 2")
    n = g.n
    adj_vals = _eigenvalues(g.adjacency())
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


def _join_entries(n1, r1, spec1, n2, r2, spec2, a):
    """Blend (value, multiplicity) entries of the join of an r1-regular
    graph on n1 vertices and an r2-regular one on n2, from their adjacency
    spectra, Perron value first.  With n = n1 + n2, each other adjacency
    eigenvalue lambda of side i gives (a*(n + n_other + r_i) +
    (1-a)*lambda - 1)/2, and the coupling quadratic the last two."""
    entries = [(0.5 * (a * (n1 + n2 + n_other + r) + (1.0 - a) * lam - 1.0), 1)
               for r, spec, n_other in ((r1, spec1, n2), (r2, spec2, n1)) for lam in spec[1:]]
    return entries + [(root, 1) for root in _join_quadratic(n1, r1, n2, r2, a)]


def spectrum_join_regular(n1, r1, adj_spectrum1, n2, r2, adj_spectrum2, alpha):
    """Blend spectrum of the join of an r1-regular and an r2-regular graph.

    Inputs are the full adjacency spectra of the two sides with the
    Perron value r_i first; ``_join_entries`` turns them into the blend's.
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
    return ClosedFormSpectrum(_pairs(_join_entries(n1, r1, spec1, n2, r2, spec2, a)), "join_regular")


def spectrum_complete_bipartite(a_part, b_part, alpha):
    """K_{a,b} as the join of two edgeless graphs."""
    a = check_alpha(alpha)
    if a_part < 1 or b_part < 1:
        raise ValueError("both parts must be nonempty")
    entries = _join_entries(a_part, 0, adjacency_spectrum_edgeless(a_part),
                            b_part, 0, adjacency_spectrum_edgeless(b_part), a)
    return ClosedFormSpectrum(_pairs(entries), "complete_bipartite")


def spectrum_complete_split(a_part, b_part, alpha):
    """CS_{a,b} as the join of an a-clique and b independent vertices."""
    a = check_alpha(alpha)
    if a_part < 1 or b_part < 2:
        raise ValueError("complete split spectrum needs a >= 1 and b >= 2")
    entries = _join_entries(a_part, a_part - 1, adjacency_spectrum_complete(a_part),
                            b_part, 0, adjacency_spectrum_edgeless(b_part), a)
    return ClosedFormSpectrum(_pairs(entries), "complete_split")


def spectrum_wheel(n, alpha):
    """The wheel as the join of a hub and its rim cycle C_{n-1}."""
    a = check_alpha(alpha)
    if n < 4:
        raise ValueError("wheel needs at least 4 vertices")
    entries = _join_entries(1, 0, [0.0], n - 1, 2, adjacency_spectrum_cycle(n - 1), a)
    return ClosedFormSpectrum(_pairs(entries), "wheel")


def _twin_quotient(sizes, within, rd, a):
    """Blend eigenvalues, as (value, multiplicity) entries, of a graph
    whose twin classes have the given sizes c, within-class reciprocal
    distances w (a scalar or one per class) and class-level reciprocal
    distances ``rd`` (zero diagonal), at weight a.

    With o = rd @ c, each class gives a*(o + c*w) - w with multiplicity
    c - 1, and the quotient t_ij = (1-a)*rd_ij*c_j, with diagonal
    a*o + (c-1)*w, gives the rest.  It is solved as t*sqrt(c_i)/sqrt(c_j),
    symmetric up to rounding, which ``_eigenvalues`` checks to 1e-12.
    """
    c = np.asarray(sizes, dtype=float)
    o = rd @ c
    entries = list(zip(a * (o + c * within) - within, c.astype(int) - 1))
    t = (1.0 - a) * rd * c
    t[np.diag_indices_from(t)] = a * o + (c - 1.0) * within
    d = np.sqrt(c)
    entries += [(lam, 1) for lam in _eigenvalues(t * d[:, None] / d[None, :])]
    return entries


def spectrum_multipartite(parts, alpha):
    """Per-part repeated families plus the r quotient eigenvalues for
    K_{n_1,...,n_r}, whose parts are independent twin classes at mutual
    distance 1."""
    a = check_alpha(alpha)
    parts = tuple(int(p) for p in parts)
    if len(parts) < 2 or any(p < 1 for p in parts):
        raise ValueError("need at least two nonempty parts")
    if sum(parts) < 4:
        raise ValueError("multipartite closed form needs n >= 4")
    entries = _twin_quotient(parts, 0.5, 1.0 - np.eye(len(parts)), a)
    return ClosedFormSpectrum(_pairs(entries), "complete_multipartite")


def spectrum_twin_quotient(g, alpha):
    """Blend spectrum of a connected graph from its twin classes and the
    distances between one representative of each.

    The leaves of a star, say, form one independent class, whose value
    alpha*t + (alpha - 1)/2, t their reciprocal transmission, repeats
    once less than there are leaves.
    """
    a = check_alpha(alpha)
    classes = {}  # class bitmask -> its lowest member
    for v, twins in enumerate(_twins(g.adj_bits)):
        classes.setdefault(twins | 1 << v, v)
    reps = list(classes.values())
    within = np.array([1.0 if g.adj_bits[v] & mask else 0.5 for mask, v in classes.items()])
    rd = build_bundle(g).rd[np.ix_(reps, reps)]
    entries = _twin_quotient([mask.bit_count() for mask in classes], within, rd, a)
    return ClosedFormSpectrum(_pairs(entries), "twin_quotient")


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
