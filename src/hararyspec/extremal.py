"""Exhaustive verification of the predicted spectral-radius maximizers.

Each verifier filters one enumeration stream per order by an exact
invariant (vertex connectivity, edge connectivity, chromatic number or
independence number), maximizes the blend's spectral radius over the
class, and compares the maximizer set against the predicted extremal
graph.  Ties within 1e-9 are reported as a tie listing every maximizer
rather than being broken arbitrarily; isomorphic duplicates cannot
occur because the stream carries one representative per class.

The search reuses two caches of arrays, in the enumeration's order.  One
per order holds every class's canonical edge mask, its invariants (one
column per field), its RD, r and RD r, and the positions holding each
value of each invariant; one per (order, alpha) holds the spectral
radii.  A class scan gathers its members' radii with numpy, its verdict
compares canonical masks, and graph6 is written only for maximizers
other than the prediction, whose text is cached with its mask.  The
distance matrices come from one stacked breadth-first pass over the
adjacency rows and are converted to RD in one step, the same conversion
``build_bundle`` makes for one graph, and each radius table solves its
stack of blends in one eigensolver call.

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
from .enumeration import ENUMERATION_BUDGET, _canonical_masks, _connected_classes
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
def _order(n):
    """Per connected class of order n, in enumeration order: the canonical
    edge masks (k,), the invariants (k, 5), one column per field of
    ``GraphInvariants``, RD (k, n, n), r (k, n) and RD r (k, n); last, per
    ``_FIELDS`` invariant and value 0..n, the positions of the classes holding it."""
    masks, adj = _connected_classes(n)
    invariants = _stack_invariants(adj)
    scanned = invariants.T[:len(_FIELDS)]
    members = [[np.flatnonzero(column == v) for v in range(n + 1)] for column in scanned]
    rd = _reciprocal_distances(_distance_stack(adj.tolist(), n))
    rt = rd.sum(axis=2)
    return masks, invariants, rd, rt, np.matmul(rd, rt[:, :, None])[:, :, 0], members


def _contenders(n, alpha):
    """(positions, lower, upper): the Rayleigh lower and Collatz-Wielandt
    upper bounds on each class's blend radius (n >= 2), and the positions
    whose upper bound reaches, within 2 TIE_TOL, the largest lower bound
    in some class that holds them, taken per invariant column with one
    ``np.maximum.at``."""
    _, invariants, _, rt, rdr, _ = _order(n)
    ar = alpha * rt * rt + (1.0 - alpha) * rdr  # A r
    lower, upper = (rt * ar).sum(axis=1) / (rt * rt).sum(axis=1), (ar / rt).max(axis=1)
    keep = np.zeros(len(rt), dtype=bool)
    for column in invariants.T[:len(_FIELDS)]:
        top = np.full(n + 1, -np.inf)  # every invariant lies in 0..n
        np.maximum.at(top, column, lower)
        keep |= upper >= top[column] - 2 * TIE_TOL
    return np.flatnonzero(keep), lower, upper


@lru_cache(maxsize=None)
def _rho_table(n, alpha):
    """Blend spectral radius per contender, from one stacked solve whose
    residual must stay within the tie tolerance; every other entry holds
    its Collatz-Wielandt bound, an upper bound on its radius."""
    rd, rt = _order(n)[2:4]
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
    """Canonical edge mask and graph6 of every predicted maximizer
    ``build(n, value)`` of order n, keyed by (build, value), from one
    stacked labelling."""
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
    return {key: (mask, _pack_graph6(n, mask)) for key, mask in zip(graphs, masks)}


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
    order = _order(n)
    masks, members = order[0], order[5][_FIELDS.index(field)][value]
    if not len(members):
        raise ValueError(f"empty class: no connected graph of order {n} has {constraint} = {value}")
    radii = _rho_table(n, alpha)[members]
    rho_max = float(radii.max())
    top = masks[members[radii >= rho_max - TIE_TOL]].tolist()
    predicted_mask, predicted_canon = _predicted(n)[build, value]
    if len(top) > 1:
        verdict, maximizers = "tie", tuple(sorted(_pack_graph6(n, mask) for mask in top))
    elif top[0] == predicted_mask:
        verdict, maximizers = "confirmed", (predicted_canon,)
    else:
        verdict, maximizers = "refuted", (_pack_graph6(n, top[0]),)
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
