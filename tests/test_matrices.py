"""Matrix bundle construction and blend identities."""

import importlib
import math
import pkgutil
from collections import Counter

import numpy as np
import pytest

import hararyspec
from hararyspec import (
    Graph,
    MatrixBundle,
    NotConnectedError,
    alpha0_inertia,
    bound_report,
    build_bundle,
    check_alpha,
    complete,
    cycle,
    disjoint_union,
    format_matrix,
    graphs,
    harary_index,
    is_transmission_regular,
    path,
    rd_alpha,
    rd_alpha_energy,
    rq_relation_bounds,
    spectral_radius,
    spectrum_regular_diam2,
    spectrum_twin_quotient,
    sym_eigen,
)
from hararyspec.extremal import _order
from hararyspec.matrices import _BUNDLES, _blend

from conftest import ALPHA_GRID


def test_p3_reciprocal_matrix_exact():
    b = build_bundle(path(3))
    assert np.array_equal(b.rd, np.array([[0, 1, 0.5], [1, 0, 1], [0.5, 1, 0]]))


def test_complete_graph_rd_is_j_minus_i():
    for n in (2, 4, 6):
        b = build_bundle(complete(n))
        assert np.array_equal(b.rd, np.ones((n, n)) - np.eye(n))


def test_c4_transmission_diagonal():
    b = build_bundle(cycle(4))
    assert np.array_equal(b.rt, 2.5 * np.eye(4))


def test_bundle_arrays_are_write_locked():
    b = build_bundle(path(3))
    with pytest.raises(ValueError):
        b.rd[0, 1] = 9.0


def test_bundle_compares_and_hashes_by_identity():
    b = build_bundle(path(3))
    assert b == b and hash(b) == hash(b) and len({b, b}) == 1
    same = MatrixBundle(n=b.n, rd=b.rd, transmissions=b.transmissions)
    assert same != b and len({b, same}) == 2


def test_spectrum_compares_and_hashes_by_identity():
    spec = sym_eigen(np.eye(3))
    assert spec == spec and hash(spec) == hash(spec) and len({spec, spec}) == 1
    same = sym_eigen(np.eye(3))
    assert same != spec and len({spec, same}) == 2


def test_bundle_is_cached_by_graph_value():
    b = build_bundle(path(4))
    assert build_bundle(Graph(4, [(2, 3), (1, 2), (0, 1)])) is b  # another object, same value
    assert build_bundle(Graph(4, [(0, 1), (1, 2), (1, 3)])) is not b


def test_bundle_cache_is_bounded(catalog):
    graphs = [entry.graph for entry in catalog.up_to(6)][:2 * _BUNDLES]
    assert len(graphs) == 2 * _BUNDLES
    bundles = []
    for g in graphs:
        bundles.append(build_bundle(g))
        assert build_bundle.cache_info().currsize <= _BUNDLES
    # the most recent graphs keep their bundles; the first one was evicted
    assert all(build_bundle(g) is b for g, b in zip(graphs[-_BUNDLES:], bundles[-_BUNDLES:]))
    assert build_bundle(graphs[0]) is not bundles[0]
    assert build_bundle.cache_info().currsize == _BUNDLES


def test_per_graph_reads_share_one_distance_pass(monkeypatch):
    # Every per-graph read of RD or RT goes through the cached bundle, so
    # ten library calls on one graph run one distance pass, and the blend
    # reads share their solves: the blend at 0.3 (read twice), the twin
    # quotient, the adjacency spectrum, the blends at 0, 1/2 and 0.7 in one
    # stack, and the inertia threshold's two.
    counts = Counter()
    solvers = [importlib.import_module(f"hararyspec.{info.name}")
               for info in pkgutil.iter_modules(hararyspec.__path__)]
    for module, name in [(graphs, "_distance_stack")] + [
            (m, "_eigenvalues") for m in solvers if hasattr(m, "_eigenvalues")]:
        monkeypatch.setattr(module, name, lambda *args, fn=getattr(module, name), name=name:
                            counts.update([name]) or fn(*args))
    g = cycle(5)
    build_bundle(g)
    harary_index(g)
    is_transmission_regular(g)
    for read in (spectral_radius, rd_alpha_energy, spectrum_twin_quotient, spectrum_regular_diam2,
                 bound_report, rq_relation_bounds):
        read(g, 0.3)
    alpha0_inertia(g)
    assert counts == {"_distance_stack": 1, "_eigenvalues": 6}


def test_blend_endpoints_exact():
    b = build_bundle(path(4))
    assert np.array_equal(rd_alpha(b, 0.0), b.rd)
    assert np.array_equal(rd_alpha(b, 1.0), b.rt)
    assert np.array_equal(2.0 * rd_alpha(b, 0.5), b.rq)


def test_weight_vector_blend_is_the_stacked_one_weight_blends(catalog):
    # one broadcast over k weights gives the k one-weight blends bit for bit
    weights = [*ALPHA_GRID, 1.0 / 3.0, 0.1, 0.9, 0.25]
    for entry in catalog.up_to(7):
        b = entry.bundle
        stacked = np.stack([rd_alpha(b, a) for a in weights])
        blended = _blend(b.rd, b.transmissions, weights)
        assert blended.shape == stacked.shape
        assert blended.tobytes() == stacked.tobytes()
        # and one weight over a stack of matrices blends each slice as alone
        rd, tr = np.stack([b.rd, b.rd]), np.stack([b.transmissions, b.transmissions])
        for a in weights:
            assert _blend(rd, tr, a).tobytes() == np.stack([rd_alpha(b, a)] * 2).tobytes()


def test_weight_vector_blends_a_stack_slice_by_slice():
    # k weights over a (k, n, n) stack blend each slice at its own weight, bit for bit
    _, _, rd, rt, _ = _order(6)
    assert len(rd) == 112
    weights = np.linspace(0.0, 1.0, len(rd))
    blended = _blend(rd, rt, weights)
    assert blended.shape == rd.shape
    for i, a in enumerate(weights.tolist()):
        assert blended[i].tobytes() == _blend(rd[i], rt[i], a).tobytes()


def test_blend_pair_sums_to_rq(catalog):
    for entry in catalog.up_to(5, start=2):
        for alpha in (0.0, 0.25, 0.4375, 0.5):
            left = rd_alpha(entry.bundle, alpha) + rd_alpha(entry.bundle, 1.0 - alpha)
            assert np.abs(left - entry.bundle.rq).max() <= 1e-12


def test_blend_row_sums_equal_transmissions(catalog):
    for entry in catalog.up_to(7, start=2):
        tr = entry.bundle.transmissions
        for alpha in ALPHA_GRID:
            rows = rd_alpha(entry.bundle, alpha).sum(axis=1)
            assert np.abs(rows - tr).max() <= 1e-12


def test_rd_off_diagonal_range(catalog):
    for entry in catalog.up_to(6, start=2):
        rd = entry.bundle.rd
        n = entry.bundle.n
        off = rd[~np.eye(n, dtype=bool)]
        assert np.all(np.diag(rd) == 0)
        assert off.min() > 0 and off.max() <= 1.0


def test_rl_is_psd_with_all_ones_kernel(catalog):
    for entry in catalog.up_to(6, start=2):
        rl = entry.bundle.rl
        ones = np.ones(entry.bundle.n)
        assert np.linalg.norm(rl @ ones) <= 1e-9
        lam_min = sym_eigen(rl).values[-1]
        assert -1e-9 <= lam_min <= 1e-9


def test_check_alpha_rejects_out_of_range():
    assert check_alpha(0.5) == 0.5
    for bad in (-0.1, 1.0001, 7):
        with pytest.raises(ValueError, match="alpha"):
            check_alpha(bad)


def test_check_alpha_returns_positive_zero_for_negative_zero():
    for zero in (-0.0, "-0", np.float64(-0.0), 0, 0.0):
        a = check_alpha(zero)
        assert a == 0.0 and math.copysign(1.0, a) == 1.0, zero
    assert math.copysign(1.0, check_alpha(5e-324)) == 1.0 and check_alpha(5e-324) == 5e-324


def test_build_bundle_requires_connected():
    with pytest.raises(NotConnectedError):
        build_bundle(disjoint_union(complete(2), complete(3)))


def test_format_matrix_is_seventeen_digit_and_parseable():
    b = build_bundle(path(3))
    text = format_matrix(b.rd)
    parsed = np.loadtxt(text.splitlines())
    assert np.array_equal(parsed, b.rd)
    assert "0.33333333333333331" in format_matrix(np.array([[1.0 / 3.0]]))
