#!/usr/bin/env python3
"""The smallest alpha making the blend positive semidefinite.

The blend is congruent to RT^{1/2} (alpha*I + (1-alpha)*S) RT^{1/2} with
S = RT^{-1/2} RD RT^{-1/2}, so by Sylvester's law of inertia it is PSD
exactly from alpha0 = -nu_min / (1 - nu_min), nu_min the smallest
eigenvalue of S: one eigensolve per graph.  Bisection on lambda_min
over [0, 1/2] (the blend at 0 has a negative eigenvalue, the blend at
1/2 is half of the PSD matrix RQ, and lambda_min is monotone in alpha)
is the reference; transmission-regular graphs, complete bipartite
graphs and wheels have closed forms.
"""

from hararyspec import (
    alpha0_bisection,
    alpha0_complete_bipartite,
    alpha0_inertia,
    alpha0_transmission_regular,
    alpha0_wheel,
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected_graphs,
    is_transmission_regular,
    path,
    star,
    to_graph6,
    wheel,
)

print("inertia thresholds vs bisection:")
for g, name in [
    (star(4), "K_{1,3}"),
    (wheel(5), "W(5)"),
    (wheel(7), "W(7)"),
    (cycle(4), "C_4"),
    (path(5), "P_5"),
    (complete(6), "K_6"),
]:
    got = alpha0_inertia(g)
    reference = alpha0_bisection(g, tol=1e-10).alpha0
    print(f"  {name:<8} alpha0 = {got.alpha0:.12f}  bisection {reference:.12f}"
          f"   |lambda_min| there = {got.residual:.2e}")

print("\nclosed forms vs inertia vs bisection:")
for label, closed, g in [
    ("K_{1,3}", alpha0_complete_bipartite(1, 4), star(4)),
    ("K_{3,3}", alpha0_complete_bipartite(3, 6), complete_bipartite(3, 3)),
] + [(f"W({n})", alpha0_wheel(n), wheel(n)) for n in range(4, 9)]:
    print(f"  {label:<8} formula {closed.alpha0:.12f}  inertia {alpha0_inertia(g).alpha0:.12f}"
          f"  bisection {alpha0_bisection(g).alpha0:.12f}")

print("\ntransmission-regular graphs on up to 6 vertices:")
for n in range(2, 7):
    for g in enumerate_connected_graphs(n):
        if is_transmission_regular(g):
            closed = alpha0_transmission_regular(g).alpha0
            inertia = alpha0_inertia(g).alpha0
            print(f"  n={n} {to_graph6(g):<8} formula {closed:.12f}  inertia {inertia:.12f}")
