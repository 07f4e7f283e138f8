"""Lower and upper bounds on the spectral radius of the distance blends.

Reports are schema-stable: every bound a routine knows about is always
emitted, and when a bound's hypotheses fail for the requested alpha the
record is flagged applicable=False with a reason rather than dropped,
so downstream diffs never change shape.
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
    n = bundle.n
    tr = bundle.transmissions
    rd = bundle.rd
    if n == 1:
        return [
            BoundRecord("row_norm_upper", "upper", **_TRIVIAL),
            BoundRecord("weighted_transmission_lower", "lower", **_TRIVIAL),
            BoundRecord("weighted_transmission_upper", "upper", **_TRIVIAL),
            BoundRecord("rms_transmission_lower", "lower", **_TRIVIAL),
            BoundRecord("ratio_row_sum_upper", "upper", **_TRIVIAL),
            BoundRecord("harary_lower", "lower", **_TRIVIAL),
            BoundRecord("scaled_transmission_lower", "lower", **_TRIVIAL),
            BoundRecord("max_transmission_upper", "upper", **_TRIVIAL),
        ]
    row_norm = float(np.max(a * tr + (1.0 - a) * np.sqrt((n - 1.0) * (rd * rd).sum(axis=0))))
    weighted = a * tr + (1.0 - a) * (rd @ tr) / tr
    sqrt_tr = np.sqrt(tr)
    ratio = a * tr + (1.0 - a) * (rd @ sqrt_tr) / sqrt_tr
    records = [
        BoundRecord(
            "row_norm_upper",
            "upper",
            row_norm,
            applicable=a < 1.0,
            reason="" if a < 1.0 else "blend is diagonal (reducible) at alpha = 1",
        ),
        BoundRecord("weighted_transmission_lower", "lower", float(weighted.min())),
        BoundRecord("weighted_transmission_upper", "upper", float(weighted.max())),
        BoundRecord("rms_transmission_lower", "lower", float(np.sqrt((tr * tr).mean()))),
        BoundRecord("ratio_row_sum_upper", "upper", float(ratio.max())),
        BoundRecord("harary_lower", "lower", float(tr.mean())),
        BoundRecord("scaled_transmission_lower", "lower", float(a * tr.max())),
        BoundRecord("max_transmission_upper", "upper", float(tr.max())),
    ]
    return records


def rq_relation_bounds(g, alpha):
    """Bounds that trade the blend's radius against rho(RD) and rho(RQ).

    The blend pair at alpha and 1-alpha sums to the signless companion
    RQ, which yields one regime of mixed bounds for alpha <= 1/2 and the
    mirrored regime for alpha >= 1/2, plus the sum relation
    rho(blend at alpha) >= rho(RQ) - rho(blend at 1-alpha).
    """
    a = check_alpha(alpha)
    bundle = build_bundle(g)
    rho_rd, rho_rq, rho_mirror = (
        float(sym_eigen(m).values[0]) for m in (bundle.rd, bundle.rq, rd_alpha(bundle, 1.0 - a))
    )
    return _rq_records(a, float(bundle.transmissions.max()), rho_rd, rho_rq, rho_mirror)


def _rq_records(a, tr_max, rho_rd, rho_rq, rho_mirror):
    """``rq_relation_bounds`` from the radii of RD, RQ and the blend at 1 - ``a``."""
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
