"""Acceptance suite.

Each test here is one acceptance criterion, run at its stated tolerance
and time budget, and prints a single summary line (visible with -s, and
on failure).  Violations are collected rather than asserted one by one
so the summary line always reports how much of a criterion failed.
"""

import time
from itertools import combinations_with_replacement

import numpy as np
import pytest

from hararyspec import (
    Graph,
    adjacency_spectrum_complete,
    adjacency_spectrum_cycle,
    adjacency_spectrum_edgeless,
    alpha0_bisection,
    alpha0_complete_bipartite,
    alpha0_transmission_regular,
    alpha0_wheel,
    bipartite_bound,
    bipartition,
    bound_report,
    canonical_form,
    complete,
    complete_bipartite,
    complete_multipartite,
    complete_split,
    cycle,
    edgeless,
    eigenvalue_multiplicity,
    enumerate_connected_graphs,
    graph_invariants,
    independence_rho_bound,
    is_transmission_regular,
    join,
    parse_graph6,
    pendant_counts,
    rd_alpha_spectrum,
    rq_relation_bounds,
    spectrum_complete,
    spectrum_complete_bipartite,
    spectrum_complete_split,
    spectrum_join_regular,
    spectrum_multipartite,
    spectrum_wheel,
    star,
    to_graph6,
    verify_chromatic_extremal,
    verify_edge_connectivity_extremal,
    verify_independence_extremal,
    verify_vertex_connectivity_extremal,
    wheel,
)

ALPHAS_CLOSED = (0.0, 0.25, 0.5, 7.0 / 16.0, 0.75, 1.0)
ALPHAS_BOUNDS = (0.0, 0.25, 0.5, 0.75)


def _finish(name, started, limit_s, failures):
    elapsed = time.time() - started
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"[acceptance] {name}: {status} in {elapsed:.1f}s (limit {limit_s}s)")
    assert not failures, f"{name}: first violations: {failures[:10]}"
    assert elapsed < limit_s, f"{name} exceeded its {limit_s}s budget ({elapsed:.1f}s)"


@pytest.fixture(scope="module")
def invariants7(catalog):
    """(entry, invariants) for every connected class of order 2..7."""
    return [
        (entry, graph_invariants(entry.graph))
        for entry in catalog.up_to(7, start=2)
    ]


def _sorted_close(closed, numeric, tol=1e-8):
    a = np.sort(np.asarray(closed, dtype=float))
    b = np.sort(np.asarray(numeric, dtype=float))
    return float(np.abs(a - b).max()) <= tol


def _partitions_max3(total):
    """Non-increasing partitions of ``total`` into at least two parts of size <= 3."""
    out = []

    def extend(prefix, remaining, cap):
        if remaining == 0:
            if len(prefix) >= 2:
                out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            extend(prefix + [part], remaining - part, part)

    extend([], total, 3)
    return out


def test_criterion_1_closed_form_agreement():
    started = time.time()
    failures = []

    def check(tag, closed_spec, graph, alpha):
        numeric = rd_alpha_spectrum(graph, alpha).values
        if not _sorted_close(closed_spec.eigenvalues(), numeric):
            failures.append(f"{tag} alpha={alpha}")

    for alpha in ALPHAS_CLOSED:
        for n in range(1, 9):
            check(f"K_{n}", spectrum_complete(n, alpha), complete(n), alpha)
        for a in range(1, 7):
            for b in range(a, 7):
                check(
                    f"K_{a},{b}",
                    spectrum_complete_bipartite(a, b, alpha),
                    complete_bipartite(a, b),
                    alpha,
                )
        for a in range(1, 6):
            for b in range(2, 6):
                check(
                    f"CS_{a},{b}",
                    spectrum_complete_split(a, b, alpha),
                    complete_split(a, b),
                    alpha,
                )
        for n in range(4, 11):
            check(f"W_{n}", spectrum_wheel(n, alpha), wheel(n), alpha)
        for total in range(4, 10):
            for parts in _partitions_max3(total):
                check(
                    f"K_{parts}",
                    spectrum_multipartite(parts, alpha),
                    complete_multipartite(parts),
                    alpha,
                )
        sides = (
            [(complete(m), m - 1, adjacency_spectrum_complete(m)) for m in range(1, 6)]
            + [(cycle(m), 2, adjacency_spectrum_cycle(m)) for m in range(3, 6)]
            + [(edgeless(m), 0, adjacency_spectrum_edgeless(m)) for m in range(2, 6)]
        )
        for (g1, r1, s1), (g2, r2, s2) in combinations_with_replacement(sides, 2):
            closed = spectrum_join_regular(g1.n, r1, s1, g2.n, r2, s2, alpha)
            check(f"join({g1.n},{r1})({g2.n},{r2})", closed, join(g1, g2), alpha)

    _finish("criterion 1 (closed forms vs numeric, 1e-8)", started, 30, failures)


def test_criterion_2_psd_thresholds(catalog):
    started = time.time()
    failures = []

    for graph, expected, tag in (
        (star(4), 1.0 / 3.0, "star K_{1,3}"),
        (wheel(5), 0.3, "wheel W(5)"),
        (wheel(7), 0.25, "wheel W(7)"),
    ):
        got = alpha0_bisection(graph, tol=1e-9).alpha0
        if abs(got - expected) > 1e-7:
            failures.append(f"{tag}: bisection {got} vs formula {expected}")

    for n in range(4, 11):
        for a in range(1, n // 2 + 1):
            closed = alpha0_complete_bipartite(a, n).alpha0
            numeric = alpha0_bisection(complete_bipartite(a, n - a), tol=1e-9).alpha0
            if abs(closed - numeric) > 1e-7:
                failures.append(f"K_{a},{n - a}: {closed} vs {numeric}")

    for n in range(4, 11):
        closed = alpha0_wheel(n).alpha0
        numeric = alpha0_bisection(wheel(n), tol=1e-9).alpha0
        if abs(closed - numeric) > 1e-7:
            failures.append(f"W({n}): {closed} vs {numeric}")

    regular_count = 0
    for entry in catalog.up_to(7, start=2):
        if not is_transmission_regular(entry.graph):
            continue
        regular_count += 1
        closed = alpha0_transmission_regular(entry.graph).alpha0
        numeric = alpha0_bisection(entry.graph, tol=1e-9).alpha0
        if abs(closed - numeric) > 1e-7:
            failures.append(f"transmission-regular {to_graph6(entry.graph)}")
    if regular_count < 10:
        failures.append(f"only {regular_count} transmission-regular graphs found")

    _finish("criterion 2 (PSD thresholds, 1e-7)", started, 60, failures)


def test_criterion_3_bound_suite(catalog):
    started = time.time()
    failures = []
    for entry in catalog.up_to(7, start=2):
        g = entry.graph
        regular = is_transmission_regular(g)
        is_bip = bipartition(g)[0]
        tr_min = float(entry.bundle.transmissions.min())
        for alpha in ALPHAS_BOUNDS:
            rho = entry.rho(alpha)
            if entry.lambda_min(alpha) > alpha * tr_min + 1e-9:
                failures.append(f"{to_graph6(g)} a={alpha} lambda_min cap")
            records = bound_report(g, alpha) + rq_relation_bounds(g, alpha)
            if is_bip:
                records.append(bipartite_bound(g, alpha))
            for rec in records:
                if not rec.applicable:
                    continue
                if rec.kind == "lower" and rec.value > rho + 1e-9:
                    failures.append(f"{to_graph6(g)} a={alpha} {rec.name}")
                if rec.kind == "upper" and rec.value < rho - 1e-9:
                    failures.append(f"{to_graph6(g)} a={alpha} {rec.name}")
            if regular:
                harary = next(r for r in records if r.name == "harary_lower")
                if abs(harary.value - rho) > 1e-8:
                    failures.append(f"{to_graph6(g)} a={alpha} harary equality")
    _finish("criterion 3 (bound suite n<=7, 1e-9)", started, 600, failures)


def test_criterion_4_monotonicity(catalog):
    started = time.time()
    failures = []
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    for entry in catalog.up_to(6, start=2):
        g = entry.graph
        spectra = {a: entry.eigenvalues(a) for a in grid}
        for lo, hi in zip(grid, grid[1:]):
            if np.any(spectra[hi] < spectra[lo] - 1e-9):
                failures.append(f"{to_graph6(g)} blend-monotone {lo}->{hi}")
        for u, v in g.non_edges():
            bigger = g.with_edge(u, v)
            for alpha in (0.5, 0.75, 1.0):
                before = spectra[alpha]
                after = rd_alpha_spectrum(bigger, alpha).values
                if np.any(after < before - 1e-9):
                    failures.append(f"{to_graph6(g)}+({u},{v}) a={alpha} eigenvalue drop")
            for alpha in ALPHAS_BOUNDS:
                if rd_alpha_spectrum(bigger, alpha).values[0] <= spectra[alpha][0] + 1e-10:
                    failures.append(f"{to_graph6(g)}+({u},{v}) a={alpha} radius not strict")
    _finish("criterion 4 (monotonicity n<=6)", started, 300, failures)


def test_criterion_5_extremal_verification(catalog, invariants7):
    started = time.time()
    failures = []

    # connectivity chain sanity over the whole suite
    for entry, inv in invariants7:
        if not inv.vertex_connectivity <= inv.edge_connectivity <= inv.min_degree:
            failures.append(f"connectivity chain broken: {to_graph6(entry.graph)}")

    # vertex and edge connectivity: unique kite maximizer with a real gap
    by_order = {}
    for entry, inv in invariants7:
        by_order.setdefault(entry.graph.n, []).append((entry, inv))
    for n in range(3, 8):
        for r in range(1, n - 1):
            for alpha in ALPHAS_BOUNDS:
                for verify, attr in (
                    (verify_vertex_connectivity_extremal, "vertex_connectivity"),
                    (verify_edge_connectivity_extremal, "edge_connectivity"),
                ):
                    report = verify(n, r, alpha)
                    if report.verdict != "confirmed":
                        failures.append(f"{attr} n={n} r={r} a={alpha}: {report.verdict}")
                        continue
                    rhos = sorted(
                        (entry.rho(alpha) for entry, inv in by_order[n] if getattr(inv, attr) == r),
                        reverse=True,
                    )
                    if len(rhos) > 1 and rhos[0] - rhos[1] <= 1e-9:
                        failures.append(f"{attr} n={n} r={r} a={alpha}: no gap to runner-up")

    # chromatic number: unique balanced-multipartite maximizer
    for n in range(3, 8):
        for chi in range(2, n + 1):
            for alpha in (0.0, 0.25, 7.0 / 16.0):
                report = verify_chromatic_extremal(n, chi, alpha)
                if report.verdict != "confirmed" or report.exploratory:
                    failures.append(f"chromatic n={n} chi={chi} a={alpha}: {report.verdict}")

    # independence number: every class scan confirms the predicted graph
    for n in range(3, 8):
        for k in sorted({inv.independence_number for _, inv in by_order[n]}):
            for alpha in ALPHAS_BOUNDS:
                report = verify_independence_extremal(n, k, alpha)
                if report.verdict != "confirmed":
                    failures.append(f"independence n={n} k={k} a={alpha}: {report.verdict}")

    # ... and the bound holds graph by graph, with equality only at the
    # predicted join of an independent set with a clique
    predicted_forms = {
        (n, k): canonical_form(join(edgeless(k), complete(n - k))).decode("ascii")
        for n in range(2, 8)
        for k in range(1, n)
    }
    for entry, inv in invariants7:
        n = entry.graph.n
        k = inv.independence_number
        is_predicted = canonical_form(entry.graph).decode("ascii") == predicted_forms[(n, k)]
        for alpha in ALPHAS_BOUNDS:
            bound = independence_rho_bound(n, k, alpha)
            rho = entry.rho(alpha)
            if rho > bound + 1e-9:
                failures.append(f"independence bound violated: {to_graph6(entry.graph)} a={alpha}")
            attained = abs(rho - bound) <= 1e-8
            if attained != is_predicted:
                failures.append(
                    f"independence equality mismatch: {to_graph6(entry.graph)} a={alpha}"
                )

    _finish("criterion 5 (extremal verification n<=7)", started, 900, failures)


def test_criterion_6_pendant_multiplicity(catalog):
    started = time.time()
    failures = []
    for entry in catalog.up_to(7, start=2):
        p, q = pendant_counts(entry.graph)
        if p - q <= 0:
            continue
        mult = eigenvalue_multiplicity(entry.eigenvalues(0.0), -0.5, tol=1e-7)
        if mult < p - q:
            failures.append(f"{to_graph6(entry.graph)}: mult {mult} < {p - q}")
    _finish("criterion 6 (pendant multiplicity of -1/2)", started, 600, failures)


def test_criterion_7_graph6_round_trip():
    started = time.time()
    failures = []
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            text = to_graph6(g)
            if parse_graph6(text) != g or to_graph6(parse_graph6(text)) != text:
                failures.append(text)
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 31))
        edges = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < 0.35]
        g = Graph(n, edges)
        text = to_graph6(g)
        if parse_graph6(text) != g or to_graph6(parse_graph6(text)) != text:
            failures.append(f"random n={n}")
    _finish("criterion 7 (graph6 round trip)", started, 10, failures)
