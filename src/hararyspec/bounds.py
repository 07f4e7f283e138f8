"""Lower and upper bounds on the spectral radius of the distance blends.

Reports are schema-stable: every bound a routine knows about is always
emitted, and when a bound's hypotheses fail for the requested alpha the
record is flagged applicable=False with a reason rather than dropped,
so downstream diffs never change shape.

A report over several weights shares its work: ``_bound_table`` evaluates
the row-sum and transmission bounds for every weight in one numpy pass,
and ``_blend_radii`` takes every radius from one stacked solve, reading
rho(RD) off the blend at 0 (which is RD) and rho(RQ) off the blend at 1/2
(which is RQ/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_forms import _join_quadratic
from .eigen import sym_eigen
from .invariants import bipartition
from .matrices import build_bundle, check_alpha, rd_alpha

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


# The record of every bound on K_1, where the blend is the 1x1 zero matrix.
_TRIVIAL = dict(value=0.0, applicable=False, reason="single-vertex graph is trivial")
# The records of ``bound_report``, in order: (name, kind).
_BOUNDS = (
    ("row_norm_upper", "upper"),
    ("weighted_transmission_lower", "lower"),
    ("weighted_transmission_upper", "upper"),
    ("rms_transmission_lower", "lower"),
    ("ratio_row_sum_upper", "upper"),
    ("harary_lower", "lower"),
    ("scaled_transmission_lower", "lower"),
    ("max_transmission_upper", "upper"),
)


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
    return _bound_records(build_bundle(g), check_alpha(alpha))


def _bound_records(bundle, a):
    """``bound_report`` on a bundle already built, at a checked weight ``a``."""
    return _bound_table(bundle, [a])[0]


def _bound_table(bundle, alphas):
    """``bound_report``'s records at each checked weight of ``alphas``, one list per weight.

    Each per-vertex expression is evaluated for every weight at once, as a
    ``(len(alphas), n)`` array, in the same operation order as the scalar
    formula, so every value equals its one-weight evaluation bit for bit.
    """
    n = bundle.n
    if n == 1:
        return [[BoundRecord(name, kind, **_TRIVIAL) for name, kind in _BOUNDS] for _ in alphas]
    tr = bundle.transmissions
    rd = bundle.rd
    a = np.array(alphas, dtype=float)[:, None]
    row_norm = (a * tr + (1.0 - a) * np.sqrt((n - 1.0) * (rd * rd).sum(axis=0))).max(axis=1)
    weighted = a * tr + (1.0 - a) * (rd @ tr) / tr
    sqrt_tr = np.sqrt(tr)
    ratio = a * tr + (1.0 - a) * (rd @ sqrt_tr) / sqrt_tr
    rms = float(np.sqrt((tr * tr).mean()))
    harary = float(tr.mean())
    tr_max = float(tr.max())
    columns = (row_norm, weighted.min(axis=1), weighted.max(axis=1), ratio.max(axis=1))
    return [
        [
            BoundRecord(
                "row_norm_upper",
                "upper",
                rn,
                applicable=x < 1.0,
                reason="" if x < 1.0 else "blend is diagonal (reducible) at alpha = 1",
            ),
            BoundRecord("weighted_transmission_lower", "lower", w_lo),
            BoundRecord("weighted_transmission_upper", "upper", w_hi),
            BoundRecord("rms_transmission_lower", "lower", rms),
            BoundRecord("ratio_row_sum_upper", "upper", r_hi),
            BoundRecord("harary_lower", "lower", harary),
            BoundRecord("scaled_transmission_lower", "lower", x * tr_max),
            BoundRecord("max_transmission_upper", "upper", tr_max),
        ]
        for x, rn, w_lo, w_hi, r_hi in zip(alphas, *(c.tolist() for c in columns))
    ]


def _blend_radii(bundle, weights):
    """Spectral radius of the blend at each weight w of ``weights``, at its
    mirror 1 - w, and at 0 and 1/2, as a dict keyed by weight.

    The blends at the distinct weights of {w, 1 - w for each w} and {0, 1/2}
    are solved in one stacked ``sym_eigen`` call.  RD and RQ need no solve
    of their own, as both are points of the same family: the blend at 0 is
    RD entry for entry (``rd_alpha(b, 0)`` copies ``b.rd`` and writes a zero
    diagonal), and the blend at 1/2 is exactly RQ/2 (a power-of-two
    scaling), so rho(RD) = radii[0.0] and rho(RQ) = 2 * radii[0.5] bit for
    bit.
    """
    distinct = list(dict.fromkeys([0.0, 0.5, *weights, *(1.0 - w for w in weights)]))
    radii = sym_eigen(np.stack([rd_alpha(bundle, w) for w in distinct])).values[:, 0]
    return dict(zip(distinct, radii.tolist()))


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
    return _rq_records(a, float(bundle.transmissions.max()), _blend_radii(bundle, [a]))


def _rq_records(a, tr_max, radii):
    """``rq_relation_bounds`` at ``a`` from the ``_blend_radii`` of a set of weights holding it."""
    rho_rd, rho_rq, rho_mirror = radii[0.0], 2.0 * radii[0.5], radii[1.0 - a]
    small = a <= 0.5
    large = a >= 0.5
    blend_small_lower = (1.0 - a) * rho_rq + (2.0 * a - 1.0) * tr_max
    blend_small_upper = a * rho_rq + (1.0 - 2.0 * a) * rho_rd
    return [
        BoundRecord(
            "rq_blend_lower_small_alpha",
            "lower",
            blend_small_lower,
            applicable=small,
            reason="" if small else "regime needs alpha <= 1/2",
        ),
        BoundRecord(
            "rq_blend_upper_small_alpha",
            "upper",
            blend_small_upper,
            applicable=small,
            reason="" if small else "regime needs alpha <= 1/2",
        ),
        BoundRecord(
            "rq_blend_lower_large_alpha",
            "lower",
            blend_small_upper,
            applicable=large,
            reason="" if large else "regime needs alpha >= 1/2",
        ),
        BoundRecord(
            "rq_blend_upper_large_alpha",
            "upper",
            blend_small_lower,
            applicable=large,
            reason="" if large else "regime needs alpha >= 1/2",
        ),
        BoundRecord("rq_sum_lower", "lower", rho_rq - rho_mirror),
    ]


def bipartite_bound(g, alpha):
    """Upper bound for connected bipartite graphs, tight exactly on K_{a,n-a}."""
    a = check_alpha(alpha)
    is_bip, sizes = bipartition(g)
    if not is_bip:
        raise ValueError("graph is not bipartite")
    return _bipartite_record(g, sizes, a)


def _bipartite_record(g, sizes, a):
    """``bipartite_bound`` for a bipartite g with part sizes ``sizes``."""
    small, large = sizes
    if g.n == 1:
        return BoundRecord("bipartite_upper", "upper", **_TRIVIAL)
    # A connected bipartite graph with parts a, b is K_{a,b} iff it has all a*b edges.
    tight = g.edge_count == small * large
    value = _join_quadratic(small, 0, large, 0, a)[0]  # the radius of K_{small,large}
    return BoundRecord("bipartite_upper", "upper", value, tight=tight)
