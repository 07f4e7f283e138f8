"""Dense symmetric eigensolver and spectral quantities of the distance blends.

The solver is LAPACK's divide-and-conquer symmetric driver (``?syevd``)
through ``numpy.linalg.eigh``.  Every solve reports the residual
||A V - V diag(lambda)||_F of the full eigendecomposition, so each
numeric answer carries a check.  Eigenvalues come back in descending
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import build_bundle, check_alpha, rd_alpha

__all__ = [
    "Spectrum",
    "sym_eigen",
    "rd_alpha_spectrum",
    "spectral_radius",
    "perron_vector",
    "rd_alpha_energy",
    "eigenvalue_multiplicity",
]

_SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order, optional orthonormal eigenvector columns,
    and the residual ||A V - V diag(lambda)||_F of the decomposition."""

    values: np.ndarray
    vectors: np.ndarray | None
    residual: float


def sym_eigen(matrix, want_vectors=False):
    """Full spectrum of a symmetric matrix by LAPACK (``numpy.linalg.eigh``).

    Input must be finite and symmetric to 1e-12 relative tolerance; it is
    symmetrised before the solve.  LAPACK's ``LinAlgError`` signals
    non-convergence.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError("expected a non-empty square matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    scale = float(np.abs(a).max())
    if float(np.abs(a - a.T).max()) > _SYMMETRY_RTOL * max(1.0, scale):
        raise ValueError("matrix is not symmetric within 1e-12 relative tolerance")
    a = 0.5 * (a + a.T)
    values, vecs = np.linalg.eigh(a)
    values, vecs = values[::-1], vecs[:, ::-1]
    residual = float(np.linalg.norm(a @ vecs - vecs * values))
    return Spectrum(values, vecs if want_vectors else None, residual)


def rd_alpha_spectrum(g, alpha, want_vectors=False):
    """Spectrum of the reciprocal-distance blend of g at the given alpha."""
    bundle = build_bundle(g)
    return sym_eigen(rd_alpha(bundle, alpha), want_vectors)


def spectral_radius(g, alpha):
    """Largest blend eigenvalue; the Perron value of an irreducible
    nonnegative matrix whenever alpha < 1."""
    return float(rd_alpha_spectrum(g, alpha).values[0])


def perron_vector(g, alpha):
    """Positive unit eigenvector of the spectral radius (needs alpha < 1)."""
    a = check_alpha(alpha)
    if a >= 1.0:
        raise ValueError("Perron vector needs alpha < 1; the blend is diagonal at alpha = 1")
    spec = rd_alpha_spectrum(g, a, want_vectors=True)
    vec = spec.vectors[:, 0].copy()
    if vec.sum() < 0.0:
        vec = -vec
    return vec / np.linalg.norm(vec)


def rd_alpha_energy(g, alpha):
    """Sum of |lambda_i - 2*alpha*H/n| over the blend spectrum, H the Harary index."""
    a = check_alpha(alpha)
    bundle = build_bundle(g)
    values = sym_eigen(rd_alpha(bundle, a)).values
    center = a * float(bundle.transmissions.sum()) / bundle.n
    return float(np.abs(values - center).sum())


def eigenvalue_multiplicity(values, target, tol=1e-7):
    """How many entries of ``values`` lie within ``tol`` of ``target``."""
    return int((np.abs(np.asarray(values) - target) <= tol).sum())
