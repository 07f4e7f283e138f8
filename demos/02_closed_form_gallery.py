#!/usr/bin/env python3
"""Every closed-form spectrum cross-checked against the LAPACK eigensolver.

Complete graphs, complete bipartite/split graphs, wheels, complete
multipartite graphs, joins of regular graphs, regular diameter-2 graphs
and co-neighbour clusters: each reduction is printed next to the
numerically computed spectrum with the worst deviation.
"""

import numpy as np

from hararyspec import (
    Graph,
    adjacency_spectrum_cycle,
    cluster_quotient,
    cluster_spec,
    complete,
    complete_bipartite,
    complete_multipartite,
    complete_split,
    cycle,
    join,
    rd_alpha_spectrum,
    spectrum_complete,
    spectrum_complete_bipartite,
    spectrum_complete_split,
    spectrum_join_regular,
    spectrum_multipartite,
    spectrum_regular_diam2,
    spectrum_wheel,
    star,
    wheel,
)

ALPHA = 0.25


def show(tag, closed, graph):
    numeric = rd_alpha_spectrum(graph, ALPHA).values
    dev = np.abs(np.sort(closed.eigenvalues()) - np.sort(numeric)).max()
    pairs = ", ".join(f"{v:.4f}^[{m}]" for v, m in sorted(closed.pairs, reverse=True))
    print(f"{tag:<26} {{{pairs}}}")
    print(f"{'':<26} max |closed - numeric| = {dev:.2e}")


print(f"alpha = {ALPHA}\n")
show("K_6", spectrum_complete(6, ALPHA), complete(6))
show("K_{2,3}", spectrum_complete_bipartite(2, 3, ALPHA), complete_bipartite(2, 3))
show("CS_{2,3}", spectrum_complete_split(2, 3, ALPHA), complete_split(2, 3))
show("W(6)", spectrum_wheel(6, ALPHA), wheel(6))
show("K_{2,2,2}", spectrum_multipartite((2, 2, 2), ALPHA), complete_multipartite((2, 2, 2)))
show(
    "K_3 v C_5",
    spectrum_join_regular(3, 2, [2.0, -1.0, -1.0], 5, 2, adjacency_spectrum_cycle(5), ALPHA),
    join(complete(3), cycle(5)),
)

petersen = Graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)
show("Petersen (3-regular, diam 2)", spectrum_regular_diam2(petersen, ALPHA), petersen)

print("\ncluster reduction on the star K_{1,5}: the five leaves are co-neighbours")
g = star(6)
spec = cluster_spec(g, tuple(range(1, 6)), "independent")
repeated, mult, quotient = cluster_quotient(g, spec, "independent", ALPHA)
print(f"  repeated eigenvalue {repeated:.6f} with multiplicity {mult}")
print(f"  quotient eigenvalues {np.round(quotient.eigenvalues(), 6)}")
full = np.sort(np.concatenate([np.full(mult, repeated), quotient.eigenvalues()]))
numeric = np.sort(rd_alpha_spectrum(g, ALPHA).values)
print(f"  reassembled spectrum deviation: {np.abs(full - numeric).max():.2e}")
