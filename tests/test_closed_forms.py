"""Closed-form spectra against the numeric eigensolver and against each other."""

import math
from functools import partial

import numpy as np
import pytest

from hararyspec import (
    adjacency_spectrum_complete,
    adjacency_spectrum_cycle,
    adjacency_spectrum_edgeless,
    build_kite,
    complete,
    complete_bipartite,
    complete_multipartite,
    complete_split,
    cycle,
    edgeless,
    eigenvalue_multiplicity,
    enumerate_connected_graphs,
    harary_index,
    join,
    path,
    rd_alpha_spectrum,
    reciprocal_transmissions,
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

from conftest import assert_spectra_close, make_double_star, make_petersen

ALPHAS = (0.0, 0.25, 0.4375, 0.5, 0.75, 1.0)


def test_complete_examples():
    assert spectrum_complete(4, 0.0).pairs == ((3.0, 1), (-1.0, 3))
    assert spectrum_complete(4, 0.5).pairs == ((3.0, 1), (1.0, 3))
    assert spectrum_complete(1, 0.7).pairs == ((0.0, 1),)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_complete_matches_numeric(n, alpha):
    closed = spectrum_complete(n, alpha).eigenvalues()
    numeric = rd_alpha_spectrum(complete(n), alpha).values
    assert_spectra_close(closed, numeric)


def test_regular_diam2_c4():
    closed = spectrum_regular_diam2(cycle(4), 0.0)
    assert_spectra_close(closed.eigenvalues(), [2.5, -0.5, -0.5, -1.5], tol=1e-12)


def test_regular_diam2_c5_circulant():
    # adjacency eigenvalues of the 5-cycle are 2cos(2 pi j / 5)
    expected = sorted(
        [0.5 * (5 + 2 - 1)]
        + [0.5 * (-1 + 2 * math.cos(2 * math.pi * j / 5)) for j in range(1, 5)],
        reverse=True,
    )
    closed = spectrum_regular_diam2(cycle(5), 0.0)
    assert_spectra_close(closed.eigenvalues(), expected, tol=1e-10)
    assert_spectra_close(closed.eigenvalues(), rd_alpha_spectrum(cycle(5), 0.0).values)


def test_regular_diam2_petersen():
    closed = spectrum_regular_diam2(make_petersen(), 0.0)
    expected = [6.0] + [0.0] * 5 + [-1.5] * 4
    assert_spectra_close(closed.eigenvalues(), expected, tol=1e-10)


def test_regular_diam2_rejects_bad_inputs():
    with pytest.raises(ValueError, match="not regular"):
        spectrum_regular_diam2(path(3), 0.0)
    with pytest.raises(ValueError, match="diameter"):
        spectrum_regular_diam2(cycle(6), 0.0)
    with pytest.raises(ValueError, match="diameter"):
        spectrum_regular_diam2(complete(4), 0.0)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_join_reproduces_wheel(alpha):
    closed = spectrum_join_regular(1, 0, [0.0], 4, 2, adjacency_spectrum_cycle(4), alpha)
    assert_spectra_close(closed.eigenvalues(), spectrum_wheel(5, alpha).eigenvalues(), tol=1e-12)


@pytest.mark.parametrize("a,b", [(1, 3), (2, 2), (3, 5), (4, 4)])
@pytest.mark.parametrize("alpha", (0.0, 0.4375, 0.75))
def test_join_of_edgeless_reproduces_bipartite(a, b, alpha):
    closed = spectrum_join_regular(
        a, 0, adjacency_spectrum_edgeless(a), b, 0, adjacency_spectrum_edgeless(b), alpha
    )
    assert_spectra_close(
        closed.eigenvalues(), spectrum_complete_bipartite(a, b, alpha).eigenvalues(), tol=1e-12
    )


def test_join_discriminant_never_negative():
    from hararyspec.closed_forms import _join_quadratic

    for n1 in range(1, 7):
        for n2 in range(1, 7):
            for r1 in range(0, n1):
                for r2 in range(0, n2):
                    for alpha in ALPHAS:
                        hi, lo = _join_quadratic(n1, r1, n2, r2, alpha)
                        assert hi >= lo
                        assert np.isfinite(hi) and np.isfinite(lo)


def test_join_validates_spectra():
    with pytest.raises(ValueError, match="inconsistent"):
        spectrum_join_regular(2, 1, [0.5, -0.5], 2, 0, [0.0, 0.0], 0.0)
    with pytest.raises(ValueError, match=r"^inconsistent first spectrum: \|eigenvalue\| exceeds degree$"):
        spectrum_join_regular(2, 1, [1, -2], 1, 0, [0], 0.2)
    with pytest.raises(ValueError, match="entries"):
        spectrum_join_regular(3, 1, [1.0, -1.0], 2, 0, [0.0, 0.0], 0.0)


def test_join_regular_against_numeric():
    sides = [
        ("complete", complete, adjacency_spectrum_complete, lambda m: m - 1),
        ("cycle", cycle, adjacency_spectrum_cycle, lambda m: 2),
        ("edgeless", edgeless, adjacency_spectrum_edgeless, lambda m: 0),
    ]
    cases = []
    for name1, build1, spec1, deg1 in sides:
        for name2, build2, spec2, deg2 in sides:
            for m1 in (1, 3, 4):
                for m2 in (2, 3, 5):
                    if name1 == "cycle" and m1 < 3:
                        continue
                    if name2 == "cycle" and m2 < 3:
                        continue
                    cases.append((build1(m1), spec1(m1), deg1(m1), build2(m2), spec2(m2), deg2(m2)))
    for g1, s1, r1, g2, s2, r2 in cases:
        for alpha in (0.0, 0.4375, 1.0):
            closed = spectrum_join_regular(g1.n, r1, s1, g2.n, r2, s2, alpha)
            numeric = rd_alpha_spectrum(join(g1, g2), alpha).values
            assert_spectra_close(closed.eigenvalues(), numeric)


def test_bipartite_star_example():
    closed = spectrum_complete_bipartite(1, 3, 0.0)
    root = math.sqrt(13.0)
    assert_spectra_close(
        closed.eigenvalues(), [(1 + root) / 2, -0.5, -0.5, (1 - root) / 2], tol=1e-12
    )


def test_bipartite_k22_equals_c4():
    for alpha in ALPHAS:
        assert_spectra_close(
            spectrum_complete_bipartite(2, 2, alpha).eigenvalues(),
            rd_alpha_spectrum(cycle(4), alpha).values,
        )
    assert_spectra_close(
        spectrum_complete_bipartite(2, 2, 0.0).eigenvalues(), [2.5, -0.5, -0.5, -1.5], tol=1e-12
    )


@pytest.mark.parametrize("alpha", ALPHAS)
def test_bipartite_trace_identity(alpha):
    for a, b in [(1, 3), (2, 5), (4, 6)]:
        closed = spectrum_complete_bipartite(a, b, alpha)
        n = a + b
        trace = 2.0 * alpha * harary_index(complete_bipartite(a, b))
        assert closed.eigenvalues().sum() == pytest.approx(trace, abs=1e-9)
        assert closed.n == n


def test_split_star_case_matches_bipartite():
    for alpha in ALPHAS:
        assert_spectra_close(
            spectrum_complete_split(1, 3, alpha).eigenvalues(),
            spectrum_complete_bipartite(1, 3, alpha).eigenvalues(),
            tol=1e-12,
        )


def test_split_matches_numeric():
    for a, b in [(2, 2), (1, 4), (3, 2), (4, 5)]:
        for alpha in ALPHAS:
            closed = spectrum_complete_split(a, b, alpha).eigenvalues()
            numeric = rd_alpha_spectrum(complete_split(a, b), alpha).values
            assert_spectra_close(closed, numeric)


def test_split_trace_identity():
    closed = spectrum_complete_split(3, 4, 0.25)
    trace = 2.0 * 0.25 * harary_index(complete_split(3, 4))
    assert closed.eigenvalues().sum() == pytest.approx(trace, abs=1e-9)


def test_wheel5_alpha0_exact_values():
    closed = spectrum_wheel(5, 0.0)
    root = math.sqrt(22.25)
    expected = [-0.5, -0.5, -1.5, (2.5 + root) / 2, (2.5 - root) / 2]
    assert_spectra_close(closed.eigenvalues(), expected, tol=1e-12)


def test_wheel_trace_and_numeric():
    for n in range(4, 11):
        for alpha in ALPHAS:
            closed = spectrum_wheel(n, alpha)
            numeric = rd_alpha_spectrum(wheel(n), alpha).values
            assert_spectra_close(closed.eigenvalues(), numeric)
            trace = 2.0 * alpha * harary_index(wheel(n))
            assert closed.eigenvalues().sum() == pytest.approx(trace, abs=1e-9)


def test_multipartite_reduces_to_bipartite_and_complete():
    for alpha in ALPHAS:
        assert_spectra_close(
            spectrum_multipartite((2, 2), alpha).eigenvalues(),
            spectrum_complete_bipartite(2, 2, alpha).eigenvalues(),
            tol=1e-10,
        )
        assert_spectra_close(
            spectrum_multipartite((1, 1, 1, 1), alpha).eigenvalues(),
            spectrum_complete(4, alpha).eigenvalues(),
            tol=1e-10,
        )


def test_multipartite_matches_numeric():
    for parts in [(2, 2, 2), (3, 2, 1), (1, 1, 2), (3, 3, 3), (2, 2, 2, 2)]:
        for alpha in (0.0, 0.25, 0.4375, 1.0):
            closed = spectrum_multipartite(parts, alpha).eigenvalues()
            numeric = rd_alpha_spectrum(complete_multipartite(parts), alpha).values
            assert_spectra_close(closed, numeric)


@pytest.mark.parametrize("closed, message", [
    (lambda: spectrum_complete(0, 0.3), "complete graph needs n >= 1"),
    (lambda: spectrum_complete_bipartite(0, 3, 0.2), "both parts must be nonempty"),
    (lambda: spectrum_complete_split(1, 1, 0.2), "complete split spectrum needs a >= 1 and b >= 2"),
    (lambda: spectrum_wheel(3, 0.2), "wheel needs at least 4 vertices"),
])
def test_closed_forms_reject_too_small_graphs(closed, message):
    with pytest.raises(ValueError) as info:
        closed()
    assert str(info.value) == message


def test_multipartite_validates_input():
    with pytest.raises(ValueError):
        spectrum_multipartite((4,), 0.0)
    with pytest.raises(ValueError):
        spectrum_multipartite((1, 2), 0.0)  # n < 4


# ---------------------------------------------------------------------------
# Twin-class quotient
# ---------------------------------------------------------------------------

def _listed_multiplicity(closed, value):
    return sum(m for v, m in closed.pairs if abs(v - value) <= 1e-12)


def test_star_leaf_cluster_repeated_eigenvalue():
    # The c = n - 1 leaves are one independent class: alpha*t + (alpha - 1)/2,
    # t a leaf's reciprocal transmission, with multiplicity c - 1.
    for n in range(3, 9):
        g = star(n)
        t = float(reciprocal_transmissions(g)[1])
        for alpha in ALPHAS:
            closed = spectrum_twin_quotient(g, alpha)
            numeric = rd_alpha_spectrum(g, alpha).values
            value = alpha * t + 0.5 * (alpha - 1.0)
            # a quotient eigenvalue can coincide with it (1 for P_3 at alpha = 3/4)
            assert _listed_multiplicity(closed, value) >= n - 2
            assert _listed_multiplicity(closed, value) == eigenvalue_multiplicity(numeric, value)
            assert_spectra_close(closed.eigenvalues(), numeric, tol=1e-12)


def test_clique_cluster_reproduces_split_family():
    for a_part, b_part in [(2, 2), (3, 2), (4, 3), (5, 1)]:
        g = complete_split(a_part, b_part)
        n = a_part + b_part
        for alpha in ALPHAS:
            closed = spectrum_twin_quotient(g, alpha)
            numeric = rd_alpha_spectrum(g, alpha).values
            value = alpha * n - 1.0
            # at alpha = 1/b the independent side's value coincides
            assert _listed_multiplicity(closed, value) >= a_part - 1
            assert _listed_multiplicity(closed, value) == eigenvalue_multiplicity(numeric, value)
            assert_spectra_close(closed.eigenvalues(), numeric, tol=1e-12)


def test_double_star_cluster_quotient_full_spectrum():
    for p, q in [(3, 2), (2, 2), (4, 1), (5, 3)]:
        g = make_double_star(p, q)
        for alpha in ALPHAS:
            closed = spectrum_twin_quotient(g, alpha)
            assert closed.source == "twin_quotient"
            assert closed.n == g.n
            assert_spectra_close(closed.eigenvalues(), rd_alpha_spectrum(g, alpha).values, tol=1e-12)


def test_complete_graph_is_one_clique_class():
    for n in range(1, 9):
        for alpha in ALPHAS:
            closed = sorted(spectrum_twin_quotient(complete(n), alpha).pairs)
            expected = sorted(spectrum_complete(n, alpha).pairs)
            assert [m for _, m in closed] == [m for _, m in expected]
            assert_spectra_close([v for v, _ in closed], [v for v, _ in expected], tol=1e-12)


@pytest.mark.parametrize("n", range(1, 8))
def test_twin_quotient_on_every_connected_class(n):
    for g in enumerate_connected_graphs(n):
        for alpha in (0.0, 0.3, 0.5, 0.9, 1.0):
            closed = spectrum_twin_quotient(g, alpha)
            numeric = rd_alpha_spectrum(g, alpha).values
            assert_spectra_close(closed.eigenvalues(), numeric, tol=1e-12)
            for value, multiplicity in closed.pairs:
                assert multiplicity == eigenvalue_multiplicity(numeric, value), \
                    (g, alpha, closed.pairs)


def _family_cases():
    """(closed-form spectrum as a function of alpha, graph) for every family."""
    yield from ((partial(spectrum_complete, n), complete(n)) for n in range(1, 9))
    for g in (cycle(4), cycle(5), make_petersen(), complete_bipartite(3, 3),
              complete_multipartite((2, 2, 2))):
        yield partial(spectrum_regular_diam2, g), g
    sides = ((complete, adjacency_spectrum_complete, lambda m: m - 1),
             (cycle, adjacency_spectrum_cycle, lambda m: 2),
             (edgeless, adjacency_spectrum_edgeless, lambda m: 0))
    for build1, spec1, deg1 in sides:
        for build2, spec2, deg2 in sides:
            for m1, m2 in ((3, 3), (3, 5), (4, 4)):
                args = (m1, deg1(m1), spec1(m1), m2, deg2(m2), spec2(m2))
                yield partial(spectrum_join_regular, *args), join(build1(m1), build2(m2))
    for p in range(1, 5):
        for q in range(1, 5):
            yield partial(spectrum_complete_bipartite, p, q), complete_bipartite(p, q)
            if q >= 2:
                yield partial(spectrum_complete_split, p, q), complete_split(p, q)
    yield from ((partial(spectrum_wheel, n), wheel(n)) for n in range(4, 11))
    for parts in ((2, 2), (1, 1, 1, 1), (2, 2, 2), (3, 2, 1), (1, 1, 2), (3, 3, 3), (2, 2, 2, 2)):
        yield partial(spectrum_multipartite, parts), complete_multipartite(parts)
    for g in (star(4), star(7), make_double_star(3, 2), make_double_star(2, 2),
              build_kite(6, 2), build_kite(7, 3), complete_split(3, 2), complete_split(2, 4)):
        yield partial(spectrum_twin_quotient, g), g


def test_every_eigenvalue_is_listed_once_with_its_numeric_multiplicity():
    # Families that coincide: both eigenvalues of K_5 are 4 at alpha = 1,
    # and both repeated families of K_{2,3} are -0.5 at alpha = 0.
    assert spectrum_complete(5, 1.0).pairs == ((4.0, 5),)
    assert [m for v, m in spectrum_complete_bipartite(2, 3, 0.0).pairs if v == -0.5] == [3]
    for spectrum, g in _family_cases():
        for alpha in (0.0, 0.3, 0.5, 1.0):
            closed = spectrum(alpha)
            numeric = rd_alpha_spectrum(g, alpha).values
            assert closed.n == g.n, (closed.source, g.n, alpha)
            for value, multiplicity in closed.pairs:
                assert multiplicity == eigenvalue_multiplicity(numeric, value), \
                    (closed.source, g.n, alpha, closed.pairs)
