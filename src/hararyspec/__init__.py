"""Spectral toolkit for reciprocal-distance (Harary) matrices of connected graphs.

The package builds the convex blend alpha*RT + (1-alpha)*RD of the
reciprocal-distance matrix RD and its transmission diagonal RT, computes
blend spectra with LAPACK (numpy.linalg.eigh, or eigvalsh where only the
eigenvalues are read), evaluates the known
closed forms and spectral-radius bounds against the numeric values,
solves for the smallest alpha making the blend positive semidefinite
(one eigensolve, by Sylvester's law of inertia),
and verifies the predicted extremal graphs by exhaustive search over
all connected graphs of small order.

Every name in a submodule's ``__all__`` can be imported from ``hararyspec``.
"""

from .bounds import *  # noqa: F403
from .closed_forms import *  # noqa: F403
from .eigen import *  # noqa: F403
from .enumeration import *  # noqa: F403
from .errors import *  # noqa: F403
from .extremal import *  # noqa: F403
from .graph6 import *  # noqa: F403
from .graphs import *  # noqa: F403
from .invariants import *  # noqa: F403
from .matrices import *  # noqa: F403
from .psd import *  # noqa: F403

__version__ = "0.1.0"
