"""Exhaustive verification of the predicted spectral-radius maximizers.

Each scanned constraint (vertex connectivity, edge connectivity,
chromatic number, independence number) is one row of ``_SCANNED``: its
name, the symbol and range low..n-slack of its values, and its predicted
maximizer.  A verification maximizes the blend's spectral radius over
the connected graphs of order n whose exact invariant takes the value,
and compares the maximizer set against the predicted extremal graph.
Radii within 1e-9 of the maximum all count as maximizers, and every one
is listed.  The verdict is ``refuted`` unless the predicted graph is a
maximizer, else ``tie`` when there are several and ``confirmed`` when it
is the only one; isomorphic duplicates cannot occur because the
enumeration holds one representative per class.

The search reuses two caches, in the enumeration's order.  One per order
holds every class's canonical edge mask, its invariants (one column per
field), its RD, r and RD r; one per (order, alpha) holds every class
report of the order, so each verifier call after the first at an alpha
is one dict lookup.  The report cache keeps the ``_REPORT_TABLES`` most
recently used (order, alpha) tables, so a process that verifies at many
alphas does not keep them all; an evicted table is rebuilt on demand.
Building the reports of an alpha solves the contenders below in one
eigensolver call and scans only their rows: the class maxima of each
scanned invariant column come from one ``np.maximum.at`` and every
maximizer from one comparison against them; a verdict compares canonical
masks, and graph6 is written only for maximizers other than the
prediction, whose text is cached with its mask.  RD and r come from one
call of ``graphs._reciprocal_stack`` over the adjacency rows, the builder
``build_bundle`` calls for one graph.

Only contenders are solved, and no radius is kept past its alpha's
reports.  The blend A is nonnegative and symmetric, and for n >= 2 the
transmission vector r is positive, so the Rayleigh quotient and the
Collatz-Wielandt bound (Horn & Johnson, Matrix Analysis, 8.1) give
r'Ar / r'r <= rho <= max_i (Ar)_i / r_i, where Ar = alpha r*r +
(1 - alpha) RD r needs no matrix product once RD r is cached.  A graph
whose upper bound is more than 2 TIE_TOL below the largest lower bound
of every class holding it can neither attain nor tie a maximum; the rest
are the contenders.  Every nonempty class holds one, the member with its
largest lower bound, so the contender rows hold every class maximum and
every maximizer.

The predicted maximizers of an order (kites, Turan graphs and independent
sets joined to cliques) are labelled in one stacked call on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closed_forms import _join_quadratic
from .enumeration import ENUMERATION_BUDGET, _canonical_masks, _connected_classes
from .errors import _budget_error
from .eigen import sym_eigen
from .graph6 import _pack_graph6
from .graphs import _reciprocal_stack, complete, complete_split, disjoint_union, join, turan
from .invariants import _stack_invariants
from .matrices import _blend, check_alpha

__all__ = [
    "ExtremalReport",
    "build_kite",
    "independence_rho_bound",
    "verify_vertex_connectivity_extremal",
    "verify_edge_connectivity_extremal",
    "verify_chromatic_extremal",
    "verify_independence_extremal",
]

TIE_TOL = 1e-9
ATTAIN_TOL = 1e-8
CHROMATIC_GUARANTEE = 7.0 / 16.0
_REPORT_TABLES = 8  # (order, alpha) report tables kept; an extremal-cold stream uses 5


@dataclass(frozen=True, slots=True)
class ExtremalReport:
    """Outcome of one exhaustive class scan."""

    n: int
    constraint: str
    value: int
    alpha: float
    rho_max: float
    maximizers: tuple[str, ...]  # graph6, canonical
    predicted: str  # graph6, canonical
    verdict: str  # "confirmed" | "refuted" | "tie"
    exploratory: bool = False

    def to_json(self):
        # one literal in field order, with a fresh maximizers list: a slotted
        # report has no __dict__ to copy, and asdict's deep copy costs about
        # 20 us a report
        return {
            "n": self.n,
            "constraint": self.constraint,
            "value": self.value,
            "alpha": self.alpha,
            "rho_max": self.rho_max,
            "maximizers": list(self.maximizers),
            "predicted": self.predicted,
            "verdict": self.verdict,
            "exploratory": self.exploratory,
        }


def build_kite(n, r):
    """The predicted maximizer for fixed connectivity r: an r-clique joined
    to the disjoint union of a single vertex and an (n-r-1)-clique."""
    if not 1 <= r <= n - 2:
        raise ValueError(f"need 1 <= r <= n-2, got r={r}, n={n}")
    return join(complete(r), disjoint_union(complete(1), complete(n - r - 1)))


# Each scanned constraint once, in ``GraphInvariants`` field order, so row i
# scans column i of the order's invariants: name -> (symbol, low, slack,
# build), where the values low..n-slack are verified and ``build(n, value)``
# is the predicted maximizer.
_SCANNED = {
    "vertex-connectivity": ("r", 1, 2, build_kite),
    "edge-connectivity": ("r", 1, 2, build_kite),
    "chromatic-number": ("chi", 2, 0, turan),
    "independence-number": ("k", 1, 1, lambda n, k: complete_split(n - k, k)),
}


def independence_rho_bound(n, k, alpha):
    """Closed-form radius bound for connected graphs with independence number k.

    The bound is the radius of the extremal graph: k independent vertices
    joined to an (n-k)-clique, a join of a 0-regular and an
    (n-k-1)-regular graph.
    """
    a = check_alpha(alpha)
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    return _join_quadratic(k, 0, n - k, n - k - 1, a)[0]


@lru_cache(maxsize=None)
def _order(n):
    """Per connected class of order n, in enumeration order: the canonical
    edge masks (k,), the invariants (k, 5), one column per field of
    ``GraphInvariants``, RD (k, n, n) and r (k, n) from the shared builder
    ``graphs._reciprocal_stack``, and RD r (k, n)."""
    masks, adj = _connected_classes(n)
    invariants = _stack_invariants(adj)  # first: its subset tables and RD never coexist
    rd, rt = _reciprocal_stack(adj.tolist(), n)
    return masks, invariants, rd, rt, np.matmul(rd, rt[:, :, None])[:, :, 0]


def _class_maxima(n, invariants, values):
    """Per scanned invariant column of order n, in ``_SCANNED`` order: the
    column of the ``invariants`` rows and, per value 0..n, the largest of
    ``values`` over those rows holding it (-inf where none does), from
    one ``np.maximum.at``."""
    for column in invariants.T[:len(_SCANNED)]:
        top = np.full(n + 1, -np.inf)  # every invariant lies in 0..n
        np.maximum.at(top, column, values)
        yield column, top


def _contender_radii(n, alpha):
    """(positions, radii): the classes of order n whose Collatz-Wielandt
    upper bound reaches, within 2 TIE_TOL, the largest Rayleigh lower bound
    in some class that holds them, and their blend radii from one stacked
    solve whose residual must stay within the tie tolerance."""
    _, invariants, rd, rt, rdr = _order(n)
    ar = alpha * rt * rt + (1.0 - alpha) * rdr  # A r
    lower, upper = (rt * ar).sum(axis=1) / (rt * rt).sum(axis=1), (ar / rt).max(axis=1)
    keep = np.zeros(len(rt), dtype=bool)
    for column, top in _class_maxima(n, invariants, lower):
        keep |= upper >= top[column] - 2 * TIE_TOL
    spectrum = sym_eigen(_blend(rd[keep], rt[keep], alpha))
    if spectrum.residual > TIE_TOL:
        raise RuntimeError(f"stacked solve residual {spectrum.residual:.3g} exceeds the tie tolerance")
    return np.flatnonzero(keep), spectrum.values[:, 0]


@lru_cache(maxsize=None)
def _predicted(n):
    """Canonical edge mask and graph6 of every predicted maximizer
    ``build(n, value)`` of order n, keyed by (build, value), from one
    stacked labelling."""
    keys = dict.fromkeys((build, value) for _, low, slack, build in _SCANNED.values()
                         for value in range(low, n - slack + 1))
    masks = _canonical_masks([build(n, value).adj_bits for build, value in keys], n)
    return {key: (mask, _pack_graph6(n, mask)) for key, mask in zip(keys, masks)}


@lru_cache(maxsize=_REPORT_TABLES)
def _reports(n, alpha):
    """Every class report of order n at a checked ``alpha``, keyed by
    (constraint, value), for each value a prediction covers: per scanned
    column, one comparison of the contenders' radii with their class
    maxima marks every maximizer, and each verdict compares canonical
    masks."""
    positions, radii = _contender_radii(n, alpha)
    masks, invariants = (array[positions] for array in _order(n)[:2])
    predicted, reports = _predicted(n), {}
    maxima = _class_maxima(n, invariants, radii)
    for (name, (*_, build)), (column, top) in zip(_SCANNED.items(), maxima):
        hit = np.flatnonzero(radii >= top[column] - TIE_TOL)
        classes = {}
        for value, mask in zip(column[hit].tolist(), masks[hit].tolist()):
            classes.setdefault(value, []).append(mask)
        for value, tops in classes.items():
            if (build, value) not in predicted:
                continue  # outside the verifier's range
            mask, canon = predicted[build, value]
            rho_max = float(top[value])
            verdict = "refuted" if mask not in tops else "tie" if len(tops) > 1 else "confirmed"
            if name == "independence-number":  # the closed-form bound must hold, and be attained
                bound = independence_rho_bound(n, value, alpha)
                attained = abs(rho_max - bound) <= ATTAIN_TOL
                if rho_max > bound + TIE_TOL or (verdict == "confirmed" and not attained):
                    verdict = "refuted"
            maximizers = tuple(sorted(canon if m == mask else _pack_graph6(n, m) for m in tops))
            reports[name, value] = ExtremalReport(
                n, name, value, alpha, rho_max, maximizers, canon, verdict,
                exploratory=name == "chromatic-number" and alpha > CHROMATIC_GUARANTEE)
    return reports


def _verify(constraint, n, value, alpha):
    """The report of the order-n class whose ``constraint`` equals ``value``,
    after checking the order budget, alpha in [0, 1) and the constraint's
    ``_SCANNED`` range, in that order."""
    symbol, low, slack, _ = _SCANNED[constraint]
    if n > ENUMERATION_BUDGET:
        raise _budget_error("extremal search", ENUMERATION_BUDGET, n)
    a = check_alpha(alpha)
    if a >= 1.0:
        raise ValueError("maximizer prediction needs alpha < 1")
    if not low <= value <= n - slack:
        top = f"n-{slack}" if slack else "n"
        raise ValueError(f"need {low} <= {symbol} <= {top}, got {symbol}={value}, n={n}")
    report = _reports(n, a).get((constraint, value))
    if report is None:
        raise ValueError(f"empty class: no connected graph of order {n} has {constraint} = {value}")
    return report


def verify_vertex_connectivity_extremal(n, r, alpha):
    """Scan all connected graphs of order n with vertex connectivity r."""
    return _verify("vertex-connectivity", n, r, alpha)


def verify_edge_connectivity_extremal(n, r, alpha):
    """Scan all connected graphs of order n with edge connectivity r."""
    return _verify("edge-connectivity", n, r, alpha)


def verify_chromatic_extremal(n, chi, alpha):
    """Scan all connected graphs of order n with chromatic number chi.

    The balanced multipartite maximizer is only guaranteed for
    alpha <= 7/16; beyond that the report is marked exploratory and its
    verdict is data, not a claim.
    """
    return _verify("chromatic-number", n, chi, alpha)


def verify_independence_extremal(n, k, alpha):
    """Check the radius bound over all connected graphs of order n with
    independence number k, and that only the predicted graph attains it.

    Confirmed means: no graph in the class exceeds the closed-form bound
    (beyond 1e-9), the maximizer is unique, it is the predicted join of
    k independent vertices with an (n-k)-clique, and it attains the
    bound within 1e-8.
    """
    return _verify("independence-number", n, k, alpha)
