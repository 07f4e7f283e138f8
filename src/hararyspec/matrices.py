"""Dense matrix family attached to one connected graph.

RD holds reciprocal distances 1/d_ij off the diagonal; RT is the
diagonal of its row sums (the reciprocal transmissions); RL = RT - RD
and RQ = RT + RD are the Laplacian-style companions.  The convex blend
alpha*RT + (1-alpha)*RD walks from RD (alpha=0) through RQ/2
(alpha=1/2) to RT (alpha=1).

Reciprocal distances 1, 1/2, 1/4 are exact binary fractions; 1/3, 1/6,
... are not, so every comparison downstream goes through an explicit
tolerance.

``build_bundle`` is the one route from a graph to its bundle, a stack of
one through ``graphs._reciprocal_stack``, and every per-graph read of RD
or RT goes through it, ``harary_index`` and ``is_transmission_regular``
among them.  It is cached: a graph compares and hashes by its value
``(n, adj_bits)``, so every input form of one graph maps to one bundle
object, and the ``_BUNDLES`` most recently used graphs keep theirs.  Each
bundle also holds the blend eigenvalue rows already solved from it (see
``eigen._blend_values``).  A bundle compares by identity; its arrays and
rows are write-locked.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .graphs import _reciprocal_stack

__all__ = [
    "check_alpha",
    "MatrixBundle",
    "build_bundle",
    "harary_index",
    "is_transmission_regular",
    "rd_alpha",
    "format_matrix",
]


def check_alpha(alpha):
    """Validate and return the blend weight as a float in [0, 1]."""
    a = float(alpha) + 0.0  # -0.0 becomes +0.0: one cache key, one printed zero
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return a


_BUNDLES = 64  # graphs whose bundles ``build_bundle`` keeps


@dataclass(frozen=True, eq=False)
class MatrixBundle:
    """Immutable matrices derived from one graph (arrays are write-locked).

    ``_blends`` maps a checked weight to the blend's eigenvalues there,
    descending and write-locked, for the weights solved so far, oldest
    first."""

    n: int
    rd: np.ndarray
    transmissions: np.ndarray
    _blends: OrderedDict = field(default_factory=OrderedDict, repr=False)

    @property
    def rt(self):
        return np.diag(self.transmissions)

    @property
    def rl(self):
        return np.diag(self.transmissions) - self.rd

    @property
    def rq(self):
        return np.diag(self.transmissions) + self.rd


def _lock(a):
    a.setflags(write=False)
    return a


@lru_cache(maxsize=_BUNDLES)
def build_bundle(g):
    """Reciprocal distances and reciprocal transmissions of g, one bundle
    per graph value among the ``_BUNDLES`` most recently used."""
    rd, tr = _reciprocal_stack([g.adj_bits], g.n)
    return MatrixBundle(n=g.n, rd=_lock(rd[0]), transmissions=_lock(tr[0]))


def harary_index(g):
    """Sum of reciprocal distances over unordered vertex pairs."""
    return float(build_bundle(g).transmissions.sum() / 2.0)


def is_transmission_regular(g):
    """True when all reciprocal transmissions agree within 1e-8."""
    tr = build_bundle(g).transmissions
    return bool(tr.max() - tr.min() <= 1e-8)


def rd_alpha(bundle, alpha):
    """The blend alpha*RT + (1-alpha)*RD as a fresh symmetric matrix."""
    return _blend(bundle.rd, bundle.transmissions, check_alpha(alpha))


def _blend(rd, transmissions, a):
    """The blend at checked weights ``a`` from RD and its row sums.

    ``a`` is one weight, for one matrix or a ``(k, n, n)`` stack with
    ``(k, n)`` transmissions, or a vector of k weights, which blends one
    matrix into a ``(k, n, n)`` stack in one broadcast, or blends a
    ``(k, n, n)`` stack slice by slice, each at its own weight.  Each slice
    equals its one-weight blend bit for bit.
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
