"""Dense matrix family attached to one connected graph.

RD holds reciprocal distances 1/d_ij off the diagonal; RT is the
diagonal of its row sums (the reciprocal transmissions); RL = RT - RD
and RQ = RT + RD are the Laplacian-style companions.  The convex blend
alpha*RT + (1-alpha)*RD walks from RD (alpha=0) through RQ/2
(alpha=1/2) to RT (alpha=1).

Reciprocal distances 1, 1/2, 1/4 are exact binary fractions; 1/3, 1/6,
... are not, so every comparison downstream goes through an explicit
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import _reciprocal_matrix

__all__ = [
    "check_alpha",
    "MatrixBundle",
    "build_bundle",
    "rd_alpha",
    "format_matrix",
]


def check_alpha(alpha):
    """Validate and return the blend weight as a float in [0, 1]."""
    a = float(alpha) + 0.0  # -0.0 becomes +0.0: one cache key, one printed zero
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return a


@dataclass(frozen=True)
class MatrixBundle:
    """Immutable matrices derived from one graph (arrays are write-locked)."""

    n: int
    rd: np.ndarray
    transmissions: np.ndarray

    @property
    def rt(self):
        return np.diag(self.transmissions)

    @property
    def rl(self):
        return np.diag(self.transmissions) - self.rd

    @property
    def rq(self):
        return np.diag(self.transmissions) + self.rd

    @property
    def harary(self):
        return float(self.transmissions.sum() / 2.0)


def _lock(a):
    a.setflags(write=False)
    return a


def build_bundle(g):
    """Reciprocal distances and reciprocal transmissions of g."""
    rd = _reciprocal_matrix(g)
    tr = rd.sum(axis=1)
    return MatrixBundle(n=g.n, rd=_lock(rd), transmissions=_lock(tr))


def rd_alpha(bundle, alpha):
    """The blend alpha*RT + (1-alpha)*RD as a fresh symmetric matrix."""
    return _blend(bundle.rd, bundle.transmissions, check_alpha(alpha))


def _blend(rd, transmissions, a):
    """The blend at checked weights ``a`` from RD and its row sums.

    ``a`` is one weight, for one matrix or a ``(k, n, n)`` stack with
    ``(k, n)`` transmissions, or a vector of k weights, which blends one
    matrix into a ``(k, n, n)`` stack in one broadcast.  Each slice equals
    its one-weight blend bit for bit.
    """
    a = np.asarray(a, dtype=float)[..., None]
    m = (1.0 - a[..., None]) * rd
    diag = np.arange(rd.shape[-1])
    m[..., diag, diag] = a * transmissions
    return m


def format_matrix(m):
    """Plain-text dump, one row per line, 17 significant digits, for cross-tool diffs."""
    m = np.asarray(m)
    return "\n".join(" ".join(f"{x:.17g}" for x in row) for row in m) + "\n"
