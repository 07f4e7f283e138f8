"""Dense symmetric eigensolver and spectral quantities of the distance blends.

The solver is LAPACK's divide-and-conquer symmetric driver (``?syevd``).
``sym_eigen`` runs it with eigenvectors (``numpy.linalg.eigh``) and
reports the residual ||A V - V diag(lambda)||_F of the decomposition;
``_eigenvalues`` runs it for the values alone (``numpy.linalg.eigvalsh``),
skipping the vectors and the residual.  The rule:
call ``sym_eigen`` when you read vectors or check the residual, otherwise
call ``_eigenvalues``.  Both run the same input checks, in
``_symmetrised``.  Eigenvalues come back in descending order; a stack of
matrices is solved in one call.

The reports of one graph, ``spectral_radius`` and ``rd_alpha_energy``
among them, share their blend solves: ``_blend_values`` keeps
each weight's eigenvalues on the graph's cached bundle (at most
``_BLEND_ROWS`` weights per bundle) and solves only the weights not seen
yet, in one stacked values-only call.  A slice's eigenvalues do not depend
on the rest of its stack, so a row read back equals a fresh
``_eigenvalues`` solve bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import _blend, build_bundle, check_alpha, rd_alpha

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
_BLEND_ROWS = 16  # blend eigenvalue rows kept per bundle


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in descending order, orthonormal eigenvector columns,
    and the residual ||A V - V diag(lambda)||_F of the decomposition (for a
    stack: values and vectors per slice, the largest slice residual).
    A spectrum compares and hashes by identity: its fields are arrays."""

    values: np.ndarray
    vectors: np.ndarray
    residual: float


def _symmetrised(matrix):
    """``matrix`` as a float array, symmetrised, after the input checks of
    both solvers: a non-empty square matrix or ``(k, n, n)`` stack, finite,
    and each matrix symmetric to 1e-12 relative tolerance."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ValueError("expected a non-empty square matrix or a stack of them")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    at = a.swapaxes(-1, -2)
    gap = a - at
    np.abs(gap, out=gap)
    # Every matrix's limit is at least the tolerance itself, so the
    # per-matrix limits are only needed when some entry exceeds it.
    if float(gap.max()) > _SYMMETRY_RTOL:
        limit = _SYMMETRY_RTOL * np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)
        if (gap.max(axis=(-2, -1)) > limit).any():
            raise ValueError("matrix is not symmetric within 1e-12 relative tolerance")
    a = a + at
    a *= 0.5
    return a


def sym_eigen(matrix):
    """Full spectrum of a symmetric matrix, or of a ``(k, n, n)`` stack of them,
    by LAPACK (``numpy.linalg.eigh``).

    Input must be finite and each matrix symmetric to 1e-12 relative
    tolerance; it is symmetrised before the solve.  For a stack, values
    descend along the last axis, vectors are the columns of each slice,
    and ``residual`` is the largest per-matrix residual.  LAPACK's
    ``LinAlgError`` signals non-convergence.
    """
    a = _symmetrised(matrix)
    values, vecs = np.linalg.eigh(a)
    # The symmetrised copy is dead once multiplied, so it is reused as
    # scratch to keep a large stack's peak memory down; keepdims avoids
    # slow numpy scalars.
    gap = np.matmul(a, vecs)
    gap -= np.multiply(vecs, values[..., None, :], out=a)
    np.square(gap, out=gap)
    residual = math.sqrt(float(gap.sum(axis=(-2, -1), keepdims=True).max()))
    values, vecs = values[..., ::-1], vecs[..., ::-1]
    return Spectrum(values, vecs, residual)


def _eigenvalues(matrix):
    """Descending eigenvalues of a symmetric matrix, or along the last axis
    for a ``(k, n, n)`` stack, by LAPACK's values-only driver
    (``numpy.linalg.eigvalsh``), after ``sym_eigen``'s input checks.  No
    vectors and no residual: call ``sym_eigen`` to read either."""
    return np.linalg.eigvalsh(_symmetrised(matrix))[..., ::-1]


def _blend_values(bundle, weights):
    """The blend eigenvalues, descending and write-locked, at each checked
    weight of ``weights``, in order.  Rows already solved from ``bundle``
    are read back; the unseen weights are blended in one ``_blend``
    broadcast and solved in one stacked ``_eigenvalues`` call.  The bundle then
    keeps its ``_BLEND_ROWS`` most recently solved rows.  The answer is read
    from a local table, so no other call's eviction can remove a row from it."""
    rows = bundle._blends
    found = {w: row for w in weights if (row := rows.get(w)) is not None}
    unseen = [w for w in dict.fromkeys(weights) if w not in found]
    if unseen:
        values = _eigenvalues(_blend(bundle.rd, bundle.transmissions, unseen))
        values.setflags(write=False)
        solved = dict(zip(unseen, values))
        found.update(solved)
        rows.update(solved)
        while len(rows) > _BLEND_ROWS:
            rows.popitem(last=False)
    return [found[w] for w in weights]


def rd_alpha_spectrum(g, alpha):
    """Spectrum of the reciprocal-distance blend of g at the given alpha."""
    bundle = build_bundle(g)
    return sym_eigen(rd_alpha(bundle, alpha))


def spectral_radius(g, alpha):
    """Largest blend eigenvalue; the Perron value of an irreducible
    nonnegative matrix whenever alpha < 1."""
    return float(_blend_values(build_bundle(g), [check_alpha(alpha)])[0][0])


def perron_vector(g, alpha):
    """Positive unit eigenvector of the spectral radius (needs alpha < 1)."""
    a = check_alpha(alpha)
    if a >= 1.0:
        raise ValueError("Perron vector needs alpha < 1; the blend is diagonal at alpha = 1")
    spec = rd_alpha_spectrum(g, a)
    vec = spec.vectors[:, 0].copy()
    if vec.sum() < 0.0:
        vec = -vec
    return vec / np.linalg.norm(vec)


def rd_alpha_energy(g, alpha):
    """Sum of |lambda_i - 2*alpha*H/n| over the blend spectrum, H the Harary index."""
    a = check_alpha(alpha)
    bundle = build_bundle(g)
    return _energy(a, _blend_values(bundle, [a])[0], float(bundle.transmissions.sum()), bundle.n)


def _energy(a, values, total, n):
    """Energy from blend eigenvalues already computed at weight ``a`` of a
    graph of order ``n`` whose transmissions sum to ``total``."""
    center = a * total / n
    return float(np.abs(values - center).sum())


def eigenvalue_multiplicity(values, target, tol=1e-7):
    """How many entries of ``values`` lie within ``tol`` of ``target``."""
    return int((np.abs(np.asarray(values) - target) <= tol).sum())
