"""LAPACK eigensolver and spectral quantities of the blends.

The solver is ``numpy.linalg.eigh``, so it is checked by what it reports
rather than against numpy itself: the residual ||A V - V diag(lambda)||_F
is recomputed, the vectors must be orthonormal and the values descending.
The values-only ``_eigenvalues`` (``numpy.linalg.eigvalsh``) is checked
against it, and both against the same input checks.
Independent checks are values derived without any eigensolver: the
spectral radius of the reciprocal-distance matrix of the 3-path is the
largest root of x^3 - 2.25x - 1, isolated by bisection and frozen here,
the closed-form families, and the trace identity.
"""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hararyspec import (
    build_bundle,
    eigen,
    complete,
    cycle,
    eigenvalue_multiplicity,
    is_transmission_regular,
    path,
    pendant_counts,
    perron_vector,
    rd_alpha,
    rd_alpha_energy,
    rd_alpha_spectrum,
    reciprocal_transmissions,
    spectral_radius,
    star,
    sym_eigen,
)

from hararyspec.eigen import _BLEND_ROWS, _blend_values, _eigenvalues

from conftest import ALPHA_GRID, assert_spectra_close, connected_graphs

P3_RHO = 1.6861406616345072  # bisection on the cubic, 200 halvings


def test_diagonal_matrix_sorted():
    spec = sym_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(spec.values, [3.0, 2.0, 1.0])


def test_complete_graph_rd_spectrum():
    spec = sym_eigen(build_bundle(complete(4)).rd)
    assert_spectra_close(spec.values, [3.0, -1.0, -1.0, -1.0], tol=1e-12)


def test_p3_rho_matches_cubic_root():
    assert spectral_radius(path(3), 0.0) == pytest.approx(P3_RHO, abs=1e-12)


def test_random_matrices_residual_orthonormal_descending():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 35))
        m = rng.normal(size=(n, n))
        m = m + m.T
        scale = max(1.0, float(np.abs(m).max()))
        spec = sym_eigen(m)
        recomputed = float(np.linalg.norm(m @ spec.vectors - spec.vectors * spec.values))
        assert spec.residual == pytest.approx(recomputed, rel=1e-6, abs=1e-15)
        assert spec.residual <= 1e-12 * n * scale
        gram = spec.vectors.T @ spec.vectors
        assert np.abs(gram - np.eye(n)).max() <= 1e-12 * n
        assert np.all(np.diff(spec.values) <= 0.0)


def test_stacked_solve_matches_separate_calls():
    rng = np.random.default_rng(5)
    for k, n in ((1, 1), (7, 4), (30, 9)):
        m = rng.normal(size=(k, n, n))
        m = m + m.swapaxes(1, 2)
        spec = sym_eigen(m)
        assert spec.values.shape == (k, n) and spec.vectors.shape == (k, n, n)
        assert np.all(np.diff(spec.values, axis=-1) <= 0.0)
        singles = [sym_eigen(s) for s in m]
        assert np.abs(spec.values - np.array([s.values for s in singles])).max() <= 1e-12
        recomputed = max(
            float(np.linalg.norm(m[i] @ spec.vectors[i] - spec.vectors[i] * spec.values[i]))
            for i in range(k)
        )
        assert spec.residual == pytest.approx(recomputed, rel=1e-6, abs=1e-15)
        scale = max(1.0, float(np.abs(m).max()))
        assert spec.residual <= 1e-12 * n * scale


def test_values_only_solve_agrees_with_full_solve(catalog):
    for entry in catalog.up_to(7):
        for alpha in ALPHA_GRID:
            m = rd_alpha(entry.bundle, alpha)
            full = sym_eigen(m).values
            assert np.abs(_eigenvalues(m) - full).max() <= 1e-13 * max(1.0, float(np.abs(full).max()))


def test_blend_values_are_fresh_solves_bit_for_bit(catalog):
    # a row read back, or solved in a stack of other weights, is the one-weight
    # solve by the same values-only driver
    weights = [*ALPHA_GRID, 1.0 / 3.0, 0.9]
    for entry in catalog.up_to(6):
        b = entry.bundle
        first = _blend_values(b, weights[::2])
        rows = _blend_values(b, weights)
        assert all(x is y for x, y in zip(first, rows[::2]))
        for a, row in zip(weights, rows):
            assert row.tobytes() == _eigenvalues(rd_alpha(b, a)).tobytes()


def test_blend_values_solve_only_unseen_weights(monkeypatch):
    b = build_bundle(cycle(7))
    stacks = []
    monkeypatch.setattr(eigen, "_eigenvalues", lambda m: stacks.append(len(m)) or _eigenvalues(m))
    _blend_values(b, [0.0, 0.25, 0.25])
    _blend_values(b, [0.25, 0.5, 0.0, 0.75])
    _blend_values(b, [0.75, 0.0])
    assert stacks == [2, 2]


def test_blend_rows_are_write_locked():
    b = build_bundle(path(5))
    for row in _blend_values(b, [0.0, 0.5]) + list(b._blends.values()):
        with pytest.raises(ValueError):
            row[0] = 1.0


def test_blend_rows_per_bundle_are_bounded():
    b = build_bundle(path(6))
    weights = [k / (2 * _BLEND_ROWS) for k in range(2 * _BLEND_ROWS)]
    for w in weights:
        _blend_values(b, [w])
        assert len(b._blends) <= _BLEND_ROWS
    assert list(b._blends) == weights[-_BLEND_ROWS:]  # the most recently solved
    # one request over more weights than the bound still returns every row
    b = build_bundle(path(7))
    rows = _blend_values(b, weights)
    assert len(b._blends) == _BLEND_ROWS
    for w, row in zip(weights, rows):
        assert row.tobytes() == _eigenvalues(rd_alpha(b, w)).tobytes()


def test_blend_values_survive_concurrent_eviction():
    # more threads than cores, each evicting rows the others may be reading
    b = build_bundle(cycle(9))
    weights = [k / (2 * _BLEND_ROWS) for k in range(2 * _BLEND_ROWS)]
    expected = {w: _eigenvalues(rd_alpha(b, w)).tobytes() for w in weights}
    failures = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(150):
                ws = rng.sample(weights, 3)
                if [row.tobytes() for row in _blend_values(b, ws)] != [expected[w] for w in ws]:
                    failures.append(ws)
        except Exception as exc:  # reported below, with the thread's other failures
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == [] and len(b._blends) <= _BLEND_ROWS


# Both solvers run the same input checks; each returns its descending values.
SOLVERS = pytest.mark.parametrize("values_of", [lambda m: sym_eigen(m).values, _eigenvalues],
                                  ids=["sym_eigen", "_eigenvalues"])


@SOLVERS
def test_stacked_solve_rejects_one_bad_slice(values_of):
    stack = np.stack([np.eye(3)] * 4)
    for bad in (np.nan, np.inf):
        broken = stack.copy()
        broken[2, 0, 1] = broken[2, 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            values_of(broken)
    broken = stack.copy()
    broken[3, 0, 2] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        values_of(broken)
    # the tolerance is relative to each matrix's own scale
    scaled = stack.copy()
    scaled[0] *= 1e6
    scaled[0, 0, 1] += 1e-8
    assert values_of(scaled).shape == (4, 3)
    scaled[1, 0, 1] += 1e-8
    with pytest.raises(ValueError, match="symmetric"):
        values_of(scaled)
    with pytest.raises(ValueError, match="square"):
        values_of(np.zeros((2, 3, 4)))


def test_trace_identity(catalog):
    for entry in catalog.up_to(5, start=2):
        for alpha in ALPHA_GRID:
            values = entry.eigenvalues(alpha)
            trace = alpha * entry.bundle.transmissions.sum()
            n = entry.bundle.n
            scale = max(1.0, float(np.abs(rd_alpha(entry.bundle, alpha)).max()))
            assert abs(values.sum() - trace) <= 1e-9 * n * scale


def test_descending_order(catalog):
    for entry in catalog.up_to(5, start=2):
        for alpha in (0.0, 0.5, 1.0):
            values = entry.eigenvalues(alpha)
            assert np.all(np.diff(values) <= 1e-15)


@SOLVERS
def test_non_finite_input_rejected(values_of):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            values_of(np.array([[1.0, bad], [bad, 2.0]]))


@SOLVERS
def test_asymmetric_input_rejected(values_of):
    with pytest.raises(ValueError, match="symmetric"):
        values_of(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        values_of(np.zeros((2, 3)))


def test_spectral_radius_examples():
    for alpha in ALPHA_GRID:
        assert spectral_radius(cycle(4), alpha) == pytest.approx(2.5, abs=1e-12)
    assert spectral_radius(complete(4), 0.0) == pytest.approx(3.0, abs=1e-12)


def test_perron_vector_positive_and_normalized(catalog):
    for entry in catalog.up_to(5, start=2):
        for alpha in (0.0, 0.5, 0.75):
            vec = perron_vector(entry.graph, alpha)
            assert np.all(vec > 0)
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="alpha < 1"):
        perron_vector(path(3), 1.0)


def test_energy_complete_graph():
    assert rd_alpha_energy(complete(4), 0.0) == pytest.approx(6.0, abs=1e-12)
    assert rd_alpha_energy(complete(4), 0.5) == pytest.approx(3.0, abs=1e-12)


def test_energy_at_alpha_one_is_transmission_deviation(catalog):
    for entry in catalog.up_to(5, start=2):
        g = entry.graph
        tr = reciprocal_transmissions(g)
        expected = float(np.abs(tr - tr.mean()).sum())
        assert rd_alpha_energy(g, 1.0) == pytest.approx(expected, abs=1e-9)
        if is_transmission_regular(g):
            assert rd_alpha_energy(g, 1.0) <= 1e-9


def test_weyl_sandwich_blend_between_rd_shifts(catalog):
    # blend(alpha) = RD + alpha*RL, so every eigenvalue moves by at most
    # alpha*extreme eigenvalues of RL
    for entry in catalog.up_to(6, start=2):
        rl_vals = sym_eigen(entry.bundle.rl).values
        rd_vals = entry.eigenvalues(0.0)
        for alpha in (0.25, 0.5, 0.75):
            blend = entry.eigenvalues(alpha)
            lo = rd_vals + alpha * rl_vals[-1]
            hi = rd_vals + alpha * rl_vals[0]
            assert np.all(blend >= lo - 1e-9)
            assert np.all(blend <= hi + 1e-9)


def test_eigenvalue_transmission_sandwich(catalog):
    # lambda_k(RD) <= lambda_k(blend) <= k-th largest transmission
    for entry in catalog.up_to(6, start=2):
        rd_vals = entry.eigenvalues(0.0)
        tr_sorted = np.sort(entry.bundle.transmissions)[::-1]
        for alpha in ALPHA_GRID:
            blend = entry.eigenvalues(alpha)
            assert np.all(blend >= rd_vals - 1e-9)
            assert np.all(blend <= tr_sorted + 1e-9)


def test_monotone_in_alpha(catalog):
    grid = ALPHA_GRID
    for entry in catalog.up_to(5, start=2):
        regular = is_transmission_regular(entry.graph)
        for lo_a, hi_a in zip(grid, grid[1:]):
            lo_vals = entry.eigenvalues(lo_a)
            hi_vals = entry.eigenvalues(hi_a)
            assert np.all(hi_vals >= lo_vals - 1e-9)
            if regular:
                assert hi_vals[0] == pytest.approx(lo_vals[0], abs=1e-9)
            else:
                assert hi_vals[0] > lo_vals[0] + 1e-10


@settings(max_examples=60, deadline=None)
@given(
    g=connected_graphs(),
    lo_a=st.floats(0.0, 1.0),
    hi_a=st.floats(0.0, 1.0),
)
def test_monotone_in_alpha_random_graphs(g, lo_a, hi_a):
    # blend(beta) - blend(alpha) = (beta - alpha) * RL with RL PSD, so no
    # eigenvalue decreases as alpha grows
    lo_a, hi_a = sorted((lo_a, hi_a))
    bundle = build_bundle(g)
    step = rd_alpha(bundle, hi_a) - rd_alpha(bundle, lo_a)
    scale = max(1.0, float(bundle.transmissions.max()))
    assert np.abs(step - (hi_a - lo_a) * bundle.rl).max() <= 1e-12 * scale
    assert sym_eigen(bundle.rl).values[-1] >= -1e-12 * g.n * scale
    lo_vals = sym_eigen(rd_alpha(bundle, lo_a)).values
    hi_vals = sym_eigen(rd_alpha(bundle, hi_a)).values
    assert np.all(hi_vals >= lo_vals - 1e-12 * g.n * scale)


def test_pendant_multiplicity_rule():
    for g in (path(3), path(5), star(4), star(6)):
        p, q = pendant_counts(g)
        values = rd_alpha_spectrum(g, 0.0).values
        assert eigenvalue_multiplicity(values, -0.5, tol=1e-8) >= p - q


def test_multiplicity_counting():
    values = np.array([2.0, 1.0 + 5e-8, 1.0, 1.0 - 5e-8, -0.5])
    assert eigenvalue_multiplicity(values, 1.0, tol=1e-7) == 3
    assert eigenvalue_multiplicity(values, -0.5, tol=1e-7) == 1
    assert eigenvalue_multiplicity(values, 0.0, tol=1e-7) == 0


@settings(max_examples=60, deadline=None)
@given(g=connected_graphs(), alpha=st.floats(0.0, 1.0))
def test_trace_identity_random_graphs(g, alpha):
    # RD has zero diagonal, so the blend's trace is alpha * sum_i RT_i
    bundle = build_bundle(g)
    values = sym_eigen(rd_alpha(bundle, alpha)).values
    scale = max(1.0, float(bundle.transmissions.max()))
    assert abs(values.sum() - alpha * bundle.transmissions.sum()) <= 1e-9 * scale
