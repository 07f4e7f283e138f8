"""Smallest blend weight making the reciprocal-distance blend positive semidefinite.

The key monotonicity fact: every blend eigenvalue is nondecreasing in
alpha, the blend at 0 has negative smallest eigenvalue for n >= 2 (zero
trace, nonzero matrix) and the blend at 1/2 is half of RQ, which is PSD.
The threshold alpha0 therefore lives in (0, 1/2] and bisection needs
nothing beyond continuity, which matters because the smallest
eigenvalue is non-smooth at eigenvalue crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .eigen import sym_eigen
from .graphs import complete_bipartite, is_transmission_regular, wheel
from .matrices import build_bundle, rd_alpha

__all__ = [
    "BISECTION_LIMIT",
    "PsdThreshold",
    "alpha0_bisection",
    "alpha0_transmission_regular",
    "alpha0_complete_bipartite",
    "alpha0_wheel",
]

BISECTION_LIMIT = 60


@dataclass(frozen=True)
class PsdThreshold:
    """Threshold weight, how it was obtained, and |lambda_min| of the blend there."""

    alpha0: float
    method: str
    residual: float


def _closed_form(bundle, alpha0):
    """A closed-form threshold with |lambda_min| of the blend there as its residual."""
    residual = abs(float(sym_eigen(rd_alpha(bundle, alpha0)).values[-1]))
    return PsdThreshold(alpha0, "closed_form", residual)


def alpha0_bisection(g, tol=1e-9):
    """Bisect lambda_min(blend) = 0 on [0, 1/2].

    Returns the PSD side of the final bracket, so the reported alpha0
    overshoots the true threshold by at most ``tol``.
    """
    if tol < 1e-12:
        raise ValueError("tol must be at least 1e-12")
    bundle = build_bundle(g)

    def lam_min(a):
        return float(sym_eigen(rd_alpha(bundle, a)).values[-1])

    f0 = lam_min(0.0)
    if f0 >= 0.0:
        # Zero trace forces lambda_min < 0 for any n >= 2; only the
        # one-vertex graph lands here.
        return PsdThreshold(0.0, "already PSD at 0", abs(f0))
    f_half = lam_min(0.5)
    if f_half < -1e-9 * max(1.0, float(bundle.transmissions.max())):
        raise RuntimeError(
            f"blend at 1/2 reports lambda_min = {f_half:.3e} < 0; "
            "half of RQ is PSD, so the eigensolver failed"
        )
    lo, hi = 0.0, 0.5
    for _ in range(BISECTION_LIMIT):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if lam_min(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return PsdThreshold(hi, "bisection", abs(lam_min(hi)))


def alpha0_transmission_regular(g):
    """Closed form for transmission-regular graphs.

    With common transmission k the blend is alpha*k*I + (1-alpha)*RD,
    so lambda_min crosses zero at -lambda_min(RD) / (k - lambda_min(RD)).
    """
    if not is_transmission_regular(g, tol=1e-8):
        raise ValueError("graph is not transmission regular")
    bundle = build_bundle(g)
    k = float(bundle.transmissions.mean())
    lam_min = float(sym_eigen(bundle.rd).values[-1])
    return _closed_form(bundle, -lam_min / (k - lam_min))


def alpha0_complete_bipartite(a_part, n):
    """Closed form for K_{a,n-a}: (n - 1 + 3a(n-a)) / (2n(n-1) + 4a(n-a))."""
    if n < 4 or not 1 <= a_part <= n // 2:
        raise ValueError(f"need n >= 4 and 1 <= a <= n/2, got a={a_part}, n={n}")
    prod = a_part * (n - a_part)
    alpha0 = (n - 1.0 + 3.0 * prod) / (2.0 * n * (n - 1.0) + 4.0 * prod)
    return _closed_form(build_bundle(complete_bipartite(a_part, n - a_part)), alpha0)


def alpha0_wheel(n):
    """Closed form for wheels: 3/(n+5) for odd n, a rim-cosine ratio for even n."""
    if n < 4:
        raise ValueError("wheel needs at least 4 vertices")
    if n % 2 == 1:
        alpha0 = 3.0 / (n + 5.0)
    else:
        k = (n - 2) // 2
        c = math.cos(2.0 * math.pi * k / (2 * k + 1))
        alpha0 = (1.0 - 2.0 * c) / (n + 3.0 - 2.0 * c)
    return _closed_form(build_bundle(wheel(n)), alpha0)
