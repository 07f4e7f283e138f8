"""Positive-semidefiniteness thresholds: inertia vs bisection vs closed forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from hararyspec import (
    Graph,
    alpha0_bisection,
    alpha0_complete_bipartite,
    alpha0_inertia,
    alpha0_transmission_regular,
    alpha0_wheel,
    complete,
    build_bundle,
    complete_bipartite,
    cycle,
    is_transmission_regular,
    path,
    rd_alpha,
    star,
    sym_eigen,
    wheel,
)
from hararyspec.extremal import _order
from hararyspec.psd import _inertia

from conftest import connected_graphs


def test_star_threshold_is_one_third():
    got = alpha0_bisection(star(4), tol=1e-9)
    assert got.method == "bisection"
    assert got.alpha0 == pytest.approx(1.0 / 3.0, abs=1e-7)
    assert got.residual <= 1e-7


def test_wheel_thresholds():
    assert alpha0_bisection(wheel(5)).alpha0 == pytest.approx(0.3, abs=1e-7)
    assert alpha0_bisection(wheel(7)).alpha0 == pytest.approx(0.25, abs=1e-7)
    assert alpha0_wheel(5).alpha0 == pytest.approx(0.3, abs=1e-12)
    assert alpha0_wheel(7).alpha0 == pytest.approx(0.25, abs=1e-12)


def test_wheel_even_branch():
    c = math.cos(4.0 * math.pi / 5.0)
    expected = (1.0 - 2.0 * c) / (9.0 - 2.0 * c)
    assert alpha0_wheel(6).alpha0 == pytest.approx(expected, abs=1e-12)
    assert alpha0_bisection(wheel(6)).alpha0 == pytest.approx(expected, abs=1e-7)


def test_cycle4_closed_form():
    got = alpha0_transmission_regular(cycle(4))
    assert got.method == "closed_form"
    assert got.alpha0 == pytest.approx(0.375, abs=1e-12)
    assert alpha0_bisection(cycle(4)).alpha0 == pytest.approx(0.375, abs=1e-7)


def test_complete_graph_threshold_is_one_over_n():
    for n in (2, 4, 7):
        got = alpha0_transmission_regular(complete(n))
        assert got.alpha0 == pytest.approx(1.0 / n, abs=1e-10)


def test_cycle5_closed_form_from_circulant():
    lam_min = 0.5 * (-1.0 + 2.0 * math.cos(4.0 * math.pi / 5.0))
    expected = -lam_min / (3.0 - lam_min)
    assert alpha0_transmission_regular(cycle(5)).alpha0 == pytest.approx(expected, abs=1e-10)


def test_bipartite_closed_form_values():
    assert alpha0_complete_bipartite(1, 4).alpha0 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert alpha0_complete_bipartite(2, 4).alpha0 == pytest.approx(0.375, abs=1e-12)
    assert alpha0_complete_bipartite(3, 6).alpha0 == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_bipartite_closed_form_matches_bisection():
    for n in range(4, 11):
        for a in range(1, n // 2 + 1):
            closed = alpha0_complete_bipartite(a, n).alpha0
            numeric = alpha0_bisection(complete_bipartite(a, n - a), tol=1e-9).alpha0
            assert numeric == pytest.approx(closed, abs=1e-7), (a, n)


def test_transmission_regular_closed_form_matches_bisection(catalog):
    checked = 0
    for entry in catalog.up_to(6, start=2):
        if not is_transmission_regular(entry.graph):
            continue
        closed = alpha0_transmission_regular(entry.graph).alpha0
        numeric = alpha0_bisection(entry.graph, tol=1e-9).alpha0
        assert numeric == pytest.approx(closed, abs=1e-7)
        checked += 1
    assert checked >= 5  # at least K_n, C_5, C_6, K_{3,3}, K_{2,2,2}, prism...


def test_threshold_in_half_open_interval(catalog):
    for entry in catalog.up_to(5, start=2):
        got = alpha0_bisection(entry.graph)
        assert 0.0 < got.alpha0 <= 0.5


def test_monotone_certificate(catalog):
    for entry in catalog.up_to(7, start=2):
        a0 = alpha0_bisection(entry.graph).alpha0
        bundle = entry.bundle
        if a0 - 0.01 >= 0.0:
            before = float(sym_eigen(rd_alpha(bundle, a0 - 0.01)).values[-1])
            assert before < -1e-6
        after = float(sym_eigen(rd_alpha(bundle, min(a0 + 0.01, 1.0))).values[-1])
        assert after > -1e-9


def test_single_vertex_degenerate():
    got = alpha0_bisection(Graph(1))
    assert got.alpha0 == 0.0
    assert got.method == "already PSD at 0"


def test_tol_validation():
    with pytest.raises(ValueError, match="tol"):
        alpha0_bisection(path(3), tol=1e-13)


def test_not_transmission_regular_rejected():
    with pytest.raises(ValueError, match="not transmission regular"):
        alpha0_transmission_regular(path(3))


def test_range_validation():
    with pytest.raises(ValueError):
        alpha0_complete_bipartite(3, 4)  # a > n/2
    with pytest.raises(ValueError):
        alpha0_complete_bipartite(1, 3)  # n < 4
    with pytest.raises(ValueError, match="^wheel needs at least 4 vertices$"):
        alpha0_wheel(3)


def test_inertia_matches_bisection_on_every_class(catalog):
    entries = catalog.up_to(7, start=2)
    assert len(entries) == 995
    for entry in entries:
        got = alpha0_inertia(entry.graph)
        assert got.method == "inertia"
        reference = alpha0_bisection(entry.graph, tol=1e-11).alpha0
        assert got.alpha0 == pytest.approx(reference, abs=1e-10), entry.graph.edges()


def test_inertia_matches_closed_forms(catalog):
    for n in range(4, 11):
        assert alpha0_inertia(wheel(n)).alpha0 == pytest.approx(alpha0_wheel(n).alpha0, abs=1e-12)
        for a in range(1, n // 2 + 1):
            closed = alpha0_complete_bipartite(a, n).alpha0
            got = alpha0_inertia(complete_bipartite(a, n - a)).alpha0
            assert got == pytest.approx(closed, abs=1e-12), (a, n)
    checked = 0
    for entry in catalog.up_to(6, start=2):
        if is_transmission_regular(entry.graph):
            closed = alpha0_transmission_regular(entry.graph).alpha0
            assert alpha0_inertia(entry.graph).alpha0 == pytest.approx(closed, abs=1e-12)
            checked += 1
    assert checked >= 5


def test_inertia_smallest_graphs():
    single = alpha0_inertia(Graph(1))
    assert (single.alpha0, single.method, single.residual) == (0.0, "already PSD at 0", 0.0)
    edge = alpha0_inertia(complete(2))
    assert edge.alpha0 == pytest.approx(0.5, abs=1e-15)
    assert edge.residual <= 1e-15


@pytest.mark.parametrize("n", range(1, 8))
def test_stacked_inertia_is_its_stacks_of_one(n):
    # every class of order n in one call, against one call per class, bit for bit
    _, _, rd, rt, _ = _order(n)
    alpha0, residual = _inertia(rd, rt)
    assert alpha0.shape == residual.shape == (len(rd),)
    one = [_inertia(rd[i:i + 1], rt[i:i + 1]) for i in range(len(rd))]
    assert alpha0.tobytes() == np.concatenate([a for a, _ in one]).tobytes()
    assert residual.tobytes() == np.concatenate([r for _, r in one]).tobytes()
    if n > 1:
        assert (alpha0 >= 1.0 / n - 1e-12).all() and (alpha0 <= 0.5).all()


def test_inertia_of_a_k1_stack():
    # K_1's blend is the 1x1 zero matrix, PSD at 0; its S (0/0) is never formed
    for rd, tr in (_order(1)[2:4], (np.zeros((3, 1, 1)), np.zeros((3, 1)))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha0, residual = _inertia(rd, tr)
        assert alpha0.tobytes() == residual.tobytes() == np.zeros(len(rd)).tobytes()


def test_transmission_regular_single_vertex():
    got = alpha0_transmission_regular(Graph(1))
    assert (got.alpha0, got.residual) == (0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(g=connected_graphs())
def test_inertia_threshold_is_sharp(g):
    got = alpha0_inertia(g)
    bundle = build_bundle(g)
    scale = max(1.0, float(bundle.transmissions.max()))

    def lam_min(a):
        return float(np.linalg.eigvalsh(rd_alpha(bundle, a))[0])

    assert lam_min(got.alpha0) >= -1e-12 * scale
    assert lam_min(got.alpha0 - 1e-9) < 0.0
    assert got.residual == pytest.approx(abs(lam_min(got.alpha0)), abs=1e-12 * scale)
