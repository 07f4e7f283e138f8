#!/usr/bin/env python3
"""Every closed-form spectrum cross-checked against the LAPACK eigensolver.

Complete graphs, complete bipartite/split graphs, wheels, complete
multipartite graphs, joins of regular graphs, regular diameter-2 graphs
and any graph through its twin classes: each reduction is printed next to the
numerically computed spectrum with the worst deviation.
"""

import numpy as np

from hararyspec import (
    Graph,
    adjacency_spectrum_cycle,
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
    spectrum_twin_quotient,
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

print("\ntwin-class quotients: the leaves of a star are one class of co-neighbours")
show("K_{1,5}", spectrum_twin_quotient(star(6), ALPHA), star(6))
double_star = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6)])
show("double star S(3, 2)", spectrum_twin_quotient(double_star, ALPHA), double_star)
