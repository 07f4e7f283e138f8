"""Exhaustive verification of the predicted spectral-radius maximizers.

Each verifier filters one enumeration stream per order by an exact
invariant (vertex connectivity, edge connectivity, chromatic number or
independence number), maximizes the blend's spectral radius over the
class, and compares the maximizer set against the predicted extremal
graph.  Ties within 1e-9 are reported as a tie listing every maximizer
rather than being broken arbitrarily; isomorphic duplicates cannot
occur because the stream carries one representative per class.

The search reuses per-order caches: one catalogue of (graph, canonical
graph6, invariants); per invariant field, an index from each value to
the catalogue positions holding it; and one spectral-radius table per
(order, alpha), so a class scan gathers its members' radii with numpy.
The catalogue's distance matrices come from one stacked breadth-first
pass and are converted to RD in one step, the same conversion
``build_bundle`` makes for one graph, and each table solves its stack of
blends in one eigensolver call.

Only contenders are solved.  The blend A is nonnegative and symmetric,
and for n >= 2 the transmission vector r is positive, so the Rayleigh
quotient and the Collatz-Wielandt bound (Horn & Johnson, Matrix
Analysis, 8.1) give r'Ar / r'r <= rho <= max_i (Ar)_i / r_i, where
Ar = alpha r*r + (1 - alpha) RD r costs one product per table.  At
each alpha, a graph whose upper bound is more than 2 TIE_TOL below the
largest lower bound of every class holding it can neither attain nor
tie a maximum, and stores its upper bound; only the rest are solved.
The predicted maximizers of an order (kites, Turan graphs and independent
sets joined to cliques) are labelled in one stacked call on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .closed_forms import _join_quadratic
from .enumeration import (ENUMERATION_BUDGET, _canonical_masks, _connected_classes,
                          enumerate_connected_graphs)
from .errors import BudgetError
from .eigen import sym_eigen
from .graph6 import _pack_graph6
from .graphs import (_distance_stack, _reciprocal_distances, complete, disjoint_union, edgeless,
                     join, turan)
from .invariants import _stack_invariants
from .matrices import _blend, check_alpha

__all__ = [
    "TIE_TOL",
    "ATTAIN_TOL",
    "CHROMATIC_GUARANTEE",
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
_FIELDS = ("vertex_connectivity", "edge_connectivity", "chromatic_number", "independence_number")


@dataclass(frozen=True)
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
        # vars, not asdict: asdict's deep copy costs about 20 us a report
        return {**vars(self), "maximizers": list(self.maximizers)}


def build_kite(n, r):
    """The predicted maximizer for fixed connectivity r: an r-clique joined
    to the disjoint union of a single vertex and an (n-r-1)-clique."""
    if not 1 <= r <= n - 2:
        raise ValueError(f"need 1 <= r <= n-2, got r={r}, n={n}")
    return join(complete(r), disjoint_union(complete(1), complete(n - r - 1)))


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
def _catalog(n):
    """(graph, canonical graph6, invariants) per connected class of order n,
    the graph6 written from the canonical mask the enumeration kept."""
    graphs = enumerate_connected_graphs(n)  # within the budget
    masks, _, adj = _connected_classes(n)
    records = zip(graphs, masks, _stack_invariants(adj))
    return tuple((g, _pack_graph6(n, mask), inv) for g, mask, inv in records)


@lru_cache(maxsize=None)
def _class_index(n, field):
    """Catalogue positions per value of the invariant ``field``."""
    values = [getattr(inv, field) for _, _, inv in _catalog(n)]
    column = np.array(values)
    return {v: np.flatnonzero(column == v) for v in set(values)}


@lru_cache(maxsize=None)
def _stack(n):
    """Reciprocal distances RD, transmissions r and the products RD r of
    every catalogue entry, stacked with shapes (k, n, n), (k, n), (k, n)."""
    rd = _reciprocal_distances(_distance_stack(enumerate_connected_graphs(n)))
    rt = rd.sum(axis=2)
    return rd, rt, np.matmul(rd, rt[:, :, None])[:, :, 0]


def _contenders(n, alpha):
    """(positions, lower, upper): the Rayleigh lower and Collatz-Wielandt
    upper bounds on each catalogue entry's blend radius (n >= 2), and the
    positions whose upper bound reaches, within 2 TIE_TOL, the largest
    lower bound in some class that holds them."""
    _, rt, rdr = _stack(n)
    ar = alpha * rt * rt + (1.0 - alpha) * rdr  # A r
    lower, upper = (rt * ar).sum(axis=1) / (rt * rt).sum(axis=1), (ar / rt).max(axis=1)
    keep = np.zeros(len(rt), dtype=bool)
    for field in _FIELDS:
        for members in _class_index(n, field).values():
            keep[members] |= upper[members] >= lower[members].max() - 2 * TIE_TOL
    return np.flatnonzero(keep), lower, upper


@lru_cache(maxsize=None)
def _rho_table(n, alpha):
    """Blend spectral radius per contender, from one stacked solve whose
    residual must stay within the tie tolerance; every other entry holds
    its Collatz-Wielandt bound, an upper bound on its radius."""
    rd, rt, _ = _stack(n)
    keep, _, radii = _contenders(n, alpha)
    spectrum = sym_eigen(_blend(rd[keep], rt[keep], alpha))
    if spectrum.residual > TIE_TOL:
        raise RuntimeError(f"stacked solve residual {spectrum.residual:.3g} exceeds the tie tolerance")
    radii[keep] = spectrum.values[:, 0]
    radii.setflags(write=False)  # the cache hands this array to every caller
    return radii


def _clique_on_independent(n, k):
    """k independent vertices joined to an (n-k)-clique."""
    return join(edgeless(k), complete(n - k))


@lru_cache(maxsize=None)
def _predicted(n):
    """Canonical graph6 of every predicted maximizer ``build(n, value)`` of
    order n, keyed by (build, value), from one stacked labelling."""
    graphs = {
        (build, value): build(n, value)
        for build, values in (
            (build_kite, range(1, n - 1)),
            (turan, range(2, n + 1)),
            (_clique_on_independent, range(1, n)),
        )
        for value in values
    }
    masks = _canonical_masks([g.adj_bits for g in graphs.values()], n)
    return {key: _pack_graph6(n, mask) for key, mask in zip(graphs, masks)}


def _check(n, alpha, symbol, value, low, slack):
    """The verifiers' shared preamble: the order budget, alpha in [0, 1)
    and ``low <= value <= n - slack``; returns alpha as a float."""
    if n > ENUMERATION_BUDGET:
        raise BudgetError(
            f"budget exceeded: extremal search limited to n <= {ENUMERATION_BUDGET}, got n={n}"
        )
    a = check_alpha(alpha)
    if a >= 1.0:
        raise ValueError("maximizer prediction needs alpha < 1")
    if not low <= value <= n - slack:
        top = f"n-{slack}" if slack else "n"
        raise ValueError(f"need {low} <= {symbol} <= {top}, got {symbol}={value}, n={n}")
    return a


def _scan(n, alpha, field, value, build, exploratory=False):
    """The class of order-n graphs whose invariant ``field`` equals
    ``value``, maximized and compared with the prediction ``build``."""
    constraint = field.replace("_", "-")
    members = _class_index(n, field).get(value)
    if members is None:
        raise ValueError(f"empty class: no connected graph of order {n} has {constraint} = {value}")
    radii = _rho_table(n, alpha)[members]
    rho_max = float(radii.max())
    catalog = _catalog(n)
    maximizers = tuple(sorted(catalog[i][1] for i in members[radii >= rho_max - TIE_TOL]))
    predicted_canon = _predicted(n)[build, value]
    if len(maximizers) > 1:
        verdict = "tie"
    elif maximizers[0] == predicted_canon:
        verdict = "confirmed"
    else:
        verdict = "refuted"
    return ExtremalReport(
        n=n,
        constraint=constraint,
        value=value,
        alpha=float(alpha),
        rho_max=rho_max,
        maximizers=maximizers,
        predicted=predicted_canon,
        verdict=verdict,
        exploratory=exploratory,
    )


def verify_vertex_connectivity_extremal(n, r, alpha):
    """Scan all connected graphs of order n with vertex connectivity r."""
    a = _check(n, alpha, "r", r, 1, 2)
    return _scan(n, a, "vertex_connectivity", r, build_kite)


def verify_edge_connectivity_extremal(n, r, alpha):
    """Scan all connected graphs of order n with edge connectivity r."""
    a = _check(n, alpha, "r", r, 1, 2)
    return _scan(n, a, "edge_connectivity", r, build_kite)


def verify_chromatic_extremal(n, chi, alpha):
    """Scan all connected graphs of order n with chromatic number chi.

    The balanced multipartite maximizer is only guaranteed for
    alpha <= 7/16; beyond that the report is marked exploratory and its
    verdict is data, not a claim.
    """
    a = _check(n, alpha, "chi", chi, 2, 0)
    return _scan(n, a, "chromatic_number", chi, turan, exploratory=a > CHROMATIC_GUARANTEE)


def verify_independence_extremal(n, k, alpha):
    """Check the radius bound over all connected graphs of order n with
    independence number k, and that only the predicted graph attains it.

    Confirmed means: no graph in the class exceeds the closed-form bound
    (beyond 1e-9), the maximizer is unique, it is the predicted join of
    k independent vertices with an (n-k)-clique, and it attains the
    bound within 1e-8.
    """
    a = _check(n, alpha, "k", k, 1, 1)
    bound = independence_rho_bound(n, k, a)
    report = _scan(n, a, "independence_number", k, _clique_on_independent)
    violated = report.rho_max > bound + TIE_TOL
    attained = abs(report.rho_max - bound) <= ATTAIN_TOL
    if violated or (report.verdict == "confirmed" and not attained):
        report = replace(report, verdict="refuted")
    return report
