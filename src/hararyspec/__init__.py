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
"""

from .bounds import BoundRecord, bipartite_bound, bound_report, rq_relation_bounds
from .closed_forms import (
    ClosedFormSpectrum,
    adjacency_spectrum_complete,
    adjacency_spectrum_cycle,
    adjacency_spectrum_edgeless,
    spectrum_complete,
    spectrum_complete_bipartite,
    spectrum_complete_split,
    spectrum_join_regular,
    spectrum_multipartite,
    spectrum_regular_diam2,
    spectrum_twin_quotient,
    spectrum_wheel,
)
from .eigen import (
    Spectrum,
    eigenvalue_multiplicity,
    perron_vector,
    rd_alpha_energy,
    rd_alpha_spectrum,
    spectral_radius,
    sym_eigen,
)
from .enumeration import canonical_form, enumerate_connected_graphs
from .errors import BudgetError, Graph6Error, NotConnectedError
from .extremal import (
    ExtremalReport,
    build_kite,
    independence_rho_bound,
    verify_chromatic_extremal,
    verify_edge_connectivity_extremal,
    verify_independence_extremal,
    verify_vertex_connectivity_extremal,
)
from .graph6 import (
    load_graph6,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .graphs import (
    Graph,
    all_pairs_distances,
    complete,
    complete_bipartite,
    complete_multipartite,
    complete_split,
    cycle,
    disjoint_union,
    edgeless,
    harary_index,
    is_transmission_regular,
    join,
    path,
    pendant_counts,
    reciprocal_transmissions,
    star,
    turan,
    wheel,
)
from .invariants import (
    GraphInvariants,
    bipartition,
    chromatic_number,
    edge_connectivity,
    graph_invariants,
    independence_number,
    vertex_connectivity,
)
from .matrices import MatrixBundle, build_bundle, check_alpha, format_matrix, rd_alpha
from .psd import (
    PsdThreshold,
    alpha0_bisection,
    alpha0_complete_bipartite,
    alpha0_inertia,
    alpha0_transmission_regular,
    alpha0_wheel,
)

__version__ = "0.1.0"
