"""Lower and upper bounds on the spectral radius of the distance blends.

Reports are schema-stable: every bound a routine knows about is always
emitted, and when a bound's hypotheses fail for the requested alpha the
record is flagged applicable=False with a reason rather than dropped,
so downstream diffs never change shape.  The tables ``_BOUNDS`` and
``_RQ_BOUNDS`` are the one place a record's name, kind and regime live;
the code behind each report computes only its values.

The bound table is stack-native: ``_bound_table`` evaluates every row-sum
and transmission bound of a ``(k, n, n)`` RD stack at several weights in one
numpy pass, and one graph is a stack of one.  A report over several weights
shares its work: ``_blend_radii`` reads every radius from the graph's solved
blends (one stacked solve of the weights no earlier report solved), and
``_bound_reports`` joins them.
The code behind the reports builds each record once, as the plain dict
row the ``bounds`` command prints, with ``BoundRecord``'s fields in field
order; the public functions wrap those rows in ``BoundRecord``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_forms import _join_quadratic
from .eigen import _blend_values
from .errors import NotConnectedError
from .invariants import bipartition
from .matrices import build_bundle, check_alpha

__all__ = [
    "BoundRecord",
    "bound_report",
    "rq_relation_bounds",
    "bipartite_bound",
]


@dataclass(frozen=True)
class BoundRecord:
    """One evaluated bound: direction, value, and whether it applies at this alpha."""

    name: str
    kind: str  # "lower" | "upper"
    value: float
    applicable: bool = True
    reason: str = ""
    tight: bool | None = None


# The row of every bound on K_1, less its name and kind: the blend is the 1x1 zero matrix.
_TRIVIAL = dict(value=0.0, applicable=False, reason="single-vertex graph is trivial", tight=None)

# Regimes: the weights where a bound holds, and why it fails at the others.
_ANY_ALPHA = (lambda a: True, "")
_BELOW_ONE = (lambda a: a < 1.0, "blend is diagonal (reducible) at alpha = 1")
_SMALL_ALPHA = (lambda a: a <= 0.5, "regime needs alpha <= 1/2")
_LARGE_ALPHA = (lambda a: a >= 0.5, "regime needs alpha >= 1/2")

# The records of ``bound_report``, in order: (name, kind, regime).
_BOUNDS = (
    ("row_norm_upper", "upper", _BELOW_ONE),
    ("weighted_transmission_lower", "lower", _ANY_ALPHA),
    ("weighted_transmission_upper", "upper", _ANY_ALPHA),
    ("rms_transmission_lower", "lower", _ANY_ALPHA),
    ("ratio_row_sum_upper", "upper", _ANY_ALPHA),
    ("harary_lower", "lower", _ANY_ALPHA),
    ("scaled_transmission_lower", "lower", _ANY_ALPHA),
    ("max_transmission_upper", "upper", _ANY_ALPHA),
)
# The records of ``rq_relation_bounds``, in order.
_RQ_BOUNDS = (
    ("rq_blend_lower_small_alpha", "lower", _SMALL_ALPHA),
    ("rq_blend_upper_small_alpha", "upper", _SMALL_ALPHA),
    ("rq_blend_lower_large_alpha", "lower", _LARGE_ALPHA),
    ("rq_blend_upper_large_alpha", "upper", _LARGE_ALPHA),
    ("rq_sum_lower", "lower", _ANY_ALPHA),
)
# The record of ``bipartite_bound``: (name, kind); it holds at every weight.
_BIPARTITE = ("bipartite_upper", "upper")


def _records(table, a, values):
    """The record rows of ``table`` at weight ``a``, with ``values`` in table order."""
    return [
        {"name": name, "kind": kind, "value": value, "applicable": (ok := holds(a)),
         "reason": "" if ok else reason, "tight": None}
        for (name, kind, (holds, reason)), value in zip(table, values)
    ]


def bound_report(g, alpha):
    """All row-sum and transmission-based bounds on the blend's spectral radius.

    Emits, in order: the row-norm upper bound max_i {alpha*RTr_i +
    (1-alpha)*sqrt((n-1) * sum_k (1/d_ki)^2)} (inapplicable at
    alpha = 1, where the blend is diagonal and reducible); the
    transmission-weighted row-sum sandwich with weights RT_i / RTr_i
    where RT_i = sum_j RTr_j / d_ij; the root-mean-square transmission
    lower bound and its sqrt(RTr_j/RTr_i)-weighted upper partner; the
    mean-transmission (Harary) lower bound 2H/n; the scaled maximum
    transmission alpha*RTr_max; and the plain maximum transmission
    upper bound.
    """
    bundle = build_bundle(g)
    rows = _bound_table(bundle.rd[None], bundle.transmissions[None], [check_alpha(alpha)])
    return [BoundRecord(**row) for row in rows[0][0]]


def _bound_table(rd, tr, alphas):
    """``bound_report``'s record rows for each graph of a ``(k, n, n)`` RD stack
    with ``(k, n)`` transmissions ``tr``, at each checked weight of ``alphas``:
    per graph, one list of rows per weight.

    Each per-vertex expression is evaluated for every graph and weight at
    once, as a ``(k, len(alphas), n)`` array, in the same operation order as
    the scalar formula, so every value equals its one-graph, one-weight
    evaluation bit for bit.
    """
    k, n = tr.shape
    if n == 1:
        return [[[{"name": name, "kind": kind, **_TRIVIAL} for name, kind, _ in _BOUNDS]
                 for _ in alphas] for _ in range(k)]
    a, t = np.array(alphas, dtype=float)[:, None], tr[:, None]  # t: (k, 1, n), for every weight
    a_tr, b, sqrt_t = a * t, 1.0 - a, np.sqrt(t)
    row_norm = (a_tr + b * np.sqrt((n - 1.0) * (rd * rd).sum(axis=1))[:, None]).max(axis=2)
    weighted = a_tr + b * (rd @ t.mT).mT / t
    ratio = a_tr + b * (rd @ sqrt_t.mT).mT / sqrt_t
    columns = (row_norm, weighted.min(axis=2), weighted.max(axis=2), ratio.max(axis=2),
               np.sqrt((tr * tr).sum(axis=1) / n), tr.sum(axis=1) / n, tr.max(axis=1))
    return [
        [_records(_BOUNDS, x, (rn, w_lo, w_hi, rms, r_hi, harary, x * tr_max, tr_max))
         for x, rn, w_lo, w_hi, r_hi in zip(alphas, *rows)]
        for *rows, rms, harary, tr_max in zip(*(c.tolist() for c in columns))
    ]


def _blend_radii(bundle, weights):
    """Spectral radius of the blend at each weight w of ``weights``, at its
    mirror 1 - w, and at 0, 1/2 and 1, keyed by weight, read from the
    bundle's solved blends (``_blend_values``: one stacked solve of the
    weights not solved before).  The blend at 0 is RD entry for entry (a
    copy with a zero diagonal) and the blend at 1/2 is exactly RQ/2 (a
    power-of-two scaling), so rho(RD) = radii[0.0] and rho(RQ) =
    2 * radii[0.5] bit for bit.  The blend at 1 is diag(RT), whose
    eigenvalues LAPACK returns exactly as its entries, so it is not solved:
    radii[1.0] is the largest transmission.
    """
    distinct = dict.fromkeys([0.0, 0.5, *weights, *(1.0 - w for w in weights)])
    solved = [w for w in distinct if w != 1.0]
    radii = {w: float(values[0]) for w, values in zip(solved, _blend_values(bundle, solved))}
    radii[1.0] = float(bundle.transmissions.max())
    return radii


def rq_relation_bounds(g, alpha):
    """Bounds that trade the blend's radius against rho(RD) and rho(RQ).

    The blend pair at alpha and 1-alpha sums to the signless companion
    RQ, which yields one regime of mixed bounds for alpha <= 1/2 and the
    mirrored regime for alpha >= 1/2, plus the sum relation
    rho(blend at alpha) >= rho(RQ) - rho(blend at 1-alpha).  All three
    radii come from one stacked solve (``_blend_radii``).
    """
    a = check_alpha(alpha)
    bundle = build_bundle(g)
    return [BoundRecord(**row) for row in _rq_records(a, _blend_radii(bundle, [a]))]


def _rq_records(a, radii):
    """``rq_relation_bounds``' record rows at ``a`` from the ``_blend_radii``
    of a set of weights holding it."""
    rho_rd, rho_rq, rho_mirror, tr_max = radii[0.0], 2.0 * radii[0.5], radii[1.0 - a], radii[1.0]
    # The large-alpha pair is the small-alpha pair with its sides swapped.
    lower = (1.0 - a) * rho_rq + (2.0 * a - 1.0) * tr_max
    upper = a * rho_rq + (1.0 - 2.0 * a) * rho_rd
    return _records(_RQ_BOUNDS, a, (lower, upper, upper, lower, rho_rq - rho_mirror))


def bipartite_bound(g, alpha):
    """Upper bound for connected bipartite graphs, tight exactly on K_{a,n-a}."""
    a = check_alpha(alpha)
    if not g.is_connected():
        raise NotConnectedError("graph not connected")
    is_bip, sizes = bipartition(g)
    if not is_bip:
        raise ValueError("graph is not bipartite")
    return BoundRecord(**_bipartite_record(g, sizes, a))


def _bipartite_record(g, sizes, a):
    """``bipartite_bound``'s row for a connected bipartite g with part sizes ``sizes``."""
    small, large = sizes
    name, kind = _BIPARTITE
    if g.n == 1:
        return {"name": name, "kind": kind, **_TRIVIAL}
    # A connected bipartite graph with parts a, b is K_{a,b} iff it has all a*b edges.
    tight = g.edge_count == small * large
    value = _join_quadratic(small, 0, large, 0, a)[0]  # the radius of K_{small,large}
    return {"name": name, "kind": kind, "value": value, "applicable": True, "reason": "",
            "tight": tight}


def _bound_reports(g, alphas):
    """Yield (rho, rows), the ``bounds`` report of g, at each checked weight of
    ``alphas``: ``bound_report``'s record rows, then ``rq_relation_bounds``',
    then ``bipartite_bound``'s when g is bipartite, each a dict of
    ``BoundRecord``'s fields.  One ``_blend_radii`` solve."""
    bundle = build_bundle(g)
    is_bipartite, sizes = bipartition(g)
    radii = _blend_radii(bundle, alphas)
    table = _bound_table(bundle.rd[None], bundle.transmissions[None], alphas)[0]
    for a, records in zip(alphas, table):
        records += _rq_records(a, radii)
        if is_bipartite:
            records.append(_bipartite_record(g, sizes, a))
        yield radii[a], records
