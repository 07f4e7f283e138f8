"""Smallest blend weight making the reciprocal-distance blend positive semidefinite.

With S = RT^{-1/2} RD RT^{-1/2}, the blend alpha*RT + (1-alpha)*RD is
congruent to RT^{1/2} (alpha*I + (1-alpha)*S) RT^{1/2}, so by Sylvester's
law of inertia it is PSD exactly when alpha*I + (1-alpha)*S is, that is
when alpha >= alpha0 = -nu_min / (1 - nu_min) with nu_min the smallest
eigenvalue of S.  S has zero trace, so nu_min < 0 for n >= 2, and
I + S is congruent to the PSD matrix RQ, so nu_min >= -1: alpha0 lies
in (0, 1/2].  One eigensolve of S gives the threshold and one solve of
the blend there gives its residual |lambda_min|.

Bisection on lambda_min over [0, 1/2] is kept as an independent
reference; transmission-regular graphs, complete bipartite graphs and
wheels have closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import _eigenvalues, sym_eigen
from .graphs import complete_bipartite, wheel
from .matrices import build_bundle, rd_alpha

__all__ = [
    "PsdThreshold",
    "alpha0_inertia",
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


def _threshold(bundle, alpha0, method="closed_form"):
    """A threshold with |lambda_min| of the blend there as its residual."""
    residual = abs(float(_eigenvalues(rd_alpha(bundle, alpha0))[-1]))
    return PsdThreshold(alpha0, method, residual)


def _inertia(bundle):
    """The threshold -nu_min / (1 - nu_min), nu_min the smallest eigenvalue of S."""
    if bundle.n == 1:
        return _threshold(bundle, 0.0, "already PSD at 0")
    tr = bundle.transmissions
    nu_min = float(_eigenvalues(bundle.rd / np.sqrt(np.outer(tr, tr)))[-1])
    return _threshold(bundle, -nu_min / (1.0 - nu_min), "inertia")


def alpha0_inertia(g):
    """The PSD threshold from one eigensolve of RT^{-1/2} RD RT^{-1/2}."""
    return _inertia(build_bundle(g))


def alpha0_bisection(g, tol=1e-9):
    """Bisect lambda_min(blend) = 0 on [0, 1/2]; the reference for the inertia threshold.

    Every blend eigenvalue is nondecreasing in alpha (the step is a
    multiple of the PSD matrix RL), the blend at 0 has negative smallest
    eigenvalue for n >= 2 and the blend at 1/2 is half of the PSD matrix
    RQ, so bisection needs nothing beyond continuity.  Returns the PSD
    side of the final bracket, so the reported alpha0 overshoots the
    true threshold by at most ``tol``.  As a reference it solves through
    ``sym_eigen``, apart from the values-only solves of the other routes.
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


def _transmission_regular_formula(bundle):
    """-lambda_min(RD) / (k - lambda_min(RD)) when every reciprocal
    transmission is k (within 1e-8), else None."""
    tr = bundle.transmissions
    if tr.max() - tr.min() > 1e-8:
        return None
    if bundle.n == 1:  # the 1x1 zero blend is PSD at every alpha
        return 0.0
    k = float(tr.mean())
    lam_min = float(_eigenvalues(bundle.rd)[-1])
    return -lam_min / (k - lam_min)


def alpha0_transmission_regular(g):
    """Closed form for transmission-regular graphs.

    With common transmission k the blend is alpha*k*I + (1-alpha)*RD,
    so lambda_min crosses zero at -lambda_min(RD) / (k - lambda_min(RD)).
    """
    bundle = build_bundle(g)
    alpha0 = _transmission_regular_formula(bundle)
    if alpha0 is None:
        raise ValueError("graph is not transmission regular")
    return _threshold(bundle, alpha0)


def _complete_bipartite_formula(a_part, n):
    prod = a_part * (n - a_part)
    return (n - 1.0 + 3.0 * prod) / (2.0 * n * (n - 1.0) + 4.0 * prod)


def alpha0_complete_bipartite(a_part, n):
    """Closed form for K_{a,n-a}: (n - 1 + 3a(n-a)) / (2n(n-1) + 4a(n-a))."""
    if n < 4 or not 1 <= a_part <= n // 2:
        raise ValueError(f"need n >= 4 and 1 <= a <= n/2, got a={a_part}, n={n}")
    graph = complete_bipartite(a_part, n - a_part)
    return _threshold(build_bundle(graph), _complete_bipartite_formula(a_part, n))


def _wheel_formula(n):
    if n % 2 == 1:
        return 3.0 / (n + 5.0)
    k = (n - 2) // 2
    c = math.cos(2.0 * math.pi * k / (2 * k + 1))
    return (1.0 - 2.0 * c) / (n + 3.0 - 2.0 * c)


def alpha0_wheel(n):
    """Closed form for wheels: 3/(n+5) for odd n, a rim-cosine ratio for even n."""
    if n < 4:
        raise ValueError("wheel needs at least 4 vertices")
    return _threshold(build_bundle(wheel(n)), _wheel_formula(n))
