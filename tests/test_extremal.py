"""Exhaustive extremal verification against the predicted maximizers."""

import json

import pytest

from hararyspec import (
    BudgetError,
    build_kite,
    canonical_form,
    complete,
    complete_bipartite,
    complete_multipartite,
    complete_split,
    edgeless,
    enumerate_connected_graphs,
    graph_invariants,
    independence_rho_bound,
    join,
    spectral_radius,
    verify_chromatic_extremal,
    verify_edge_connectivity_extremal,
    verify_independence_extremal,
    verify_vertex_connectivity_extremal,
)
from hararyspec.extremal import _rho_table

from conftest import make_paw


def test_kite_small_cases():
    assert canonical_form(build_kite(4, 1)) == canonical_form(make_paw())
    assert canonical_form(build_kite(4, 2)) == canonical_form(complete_split(2, 2))
    inv = graph_invariants(build_kite(5, 2))
    assert inv.vertex_connectivity == 2
    assert inv.edge_connectivity == 2


def test_kite_connectivity_matches_r():
    for n in range(4, 8):
        for r in range(1, n - 1):
            inv = graph_invariants(build_kite(n, r))
            assert inv.vertex_connectivity == r
            assert inv.edge_connectivity == r


def test_kite_range_validation():
    with pytest.raises(ValueError):
        build_kite(4, 3)
    with pytest.raises(ValueError):
        build_kite(4, 0)


def test_vertex_connectivity_confirmed_cases():
    for n, r, alpha in [(5, 1, 0.0), (5, 3, 0.5), (4, 2, 0.25), (6, 2, 0.75)]:
        report = verify_vertex_connectivity_extremal(n, r, alpha)
        assert report.verdict == "confirmed", report
        assert report.maximizers == (report.predicted,)
        assert report.rho_max == pytest.approx(
            spectral_radius(build_kite(n, r), alpha), abs=1e-9
        )


def test_edge_connectivity_confirmed_cases():
    for n, r, alpha in [(5, 1, 0.0), (5, 2, 0.75), (6, 2, 0.0)]:
        report = verify_edge_connectivity_extremal(n, r, alpha)
        assert report.verdict == "confirmed", report


def test_kite_maximizer_k4_minus_edge():
    report = verify_vertex_connectivity_extremal(4, 2, 0.25)
    assert report.verdict == "confirmed"
    assert report.predicted == canonical_form(complete_split(2, 2)).decode("ascii")


def test_chromatic_confirmed_cases():
    report = verify_chromatic_extremal(6, 3, 0.25)
    assert report.verdict == "confirmed"
    assert report.predicted == canonical_form(complete_multipartite((2, 2, 2))).decode("ascii")
    report = verify_chromatic_extremal(5, 2, 0.0)
    assert report.verdict == "confirmed"
    assert report.predicted == canonical_form(complete_bipartite(2, 3)).decode("ascii")
    assert not report.exploratory


def test_chromatic_exploratory_flag_beyond_guarantee():
    report = verify_chromatic_extremal(6, 3, 0.6)
    assert report.exploratory
    report = verify_chromatic_extremal(6, 3, 7.0 / 16.0)
    assert not report.exploratory


def test_independence_bound_and_attainment():
    bound = independence_rho_bound(4, 2, 0.0)
    assert bound == pytest.approx(2.7655644370746373, abs=1e-12)
    report = verify_independence_extremal(4, 2, 0.0)
    assert report.verdict == "confirmed"
    assert report.rho_max == pytest.approx(bound, abs=1e-9)
    assert report.predicted == canonical_form(complete_split(2, 2)).decode("ascii")


def test_independence_k1_class_is_complete_graph():
    report = verify_independence_extremal(5, 1, 0.0)
    assert report.verdict == "confirmed"
    assert report.rho_max == pytest.approx(4.0, abs=1e-9)
    assert report.maximizers == (canonical_form(complete(5)).decode("ascii"),)


def test_independence_confirmed_at_half():
    report = verify_independence_extremal(6, 3, 0.5)
    assert report.verdict == "confirmed"
    predicted = join(edgeless(3), complete(3))
    assert report.predicted == canonical_form(predicted).decode("ascii")


def test_independence_bound_dominates_class(catalog):
    for entry in catalog.up_to(5, start=2):
        k = graph_invariants(entry.graph).independence_number
        for alpha in (0.0, 0.5):
            assert entry.rho(alpha) <= independence_rho_bound(entry.graph.n, k, alpha) + 1e-9


def test_maximizers_are_edge_maximal_in_their_class():
    # adding any edge to a reported maximizer must leave its class, since
    # the radius strictly grows with every added edge
    kite = build_kite(5, 2)
    for u, v in kite.non_edges():
        assert graph_invariants(kite.with_edge(u, v)).vertex_connectivity != 2
    t6 = complete_multipartite((2, 2, 2))
    for u, v in t6.non_edges():
        assert graph_invariants(t6.with_edge(u, v)).chromatic_number != 3


def test_report_json_schema():
    report = verify_vertex_connectivity_extremal(5, 2, 0.25)
    payload = report.to_json()
    text = json.dumps(payload)
    parsed = json.loads(text)
    assert set(parsed) == {
        "n",
        "constraint",
        "value",
        "alpha",
        "rho_max",
        "maximizers",
        "predicted",
        "verdict",
        "exploratory",
    }
    assert parsed["constraint"] == "vertex-connectivity"
    assert parsed["verdict"] == "confirmed"
    assert isinstance(parsed["maximizers"], list)


def test_parameter_validation():
    with pytest.raises(ValueError):
        verify_vertex_connectivity_extremal(5, 4, 0.0)  # r > n-2
    with pytest.raises(ValueError):
        verify_vertex_connectivity_extremal(5, 2, 1.0)  # alpha = 1
    with pytest.raises(ValueError):
        verify_chromatic_extremal(5, 1, 0.0)
    with pytest.raises(ValueError):
        verify_independence_extremal(5, 5, 0.0)
    with pytest.raises(BudgetError):
        verify_vertex_connectivity_extremal(9, 2, 0.0)


def test_stacked_rho_table_matches_single_solves():
    graphs = enumerate_connected_graphs(6)
    for alpha in (0.0, 0.3, 0.9):
        table = _rho_table(6, alpha)
        assert len(table) == len(graphs)
        for rho, g in zip(table, graphs):
            assert abs(rho - spectral_radius(g, alpha)) <= 1e-12


@pytest.mark.slow
def test_full_sweep_at_eight():
    n = 8
    reports = [verify_vertex_connectivity_extremal(n, r, 0.0) for r in range(1, n - 1)]
    reports += [verify_edge_connectivity_extremal(n, r, 0.0) for r in range(1, n - 1)]
    reports += [verify_chromatic_extremal(n, chi, 0.0) for chi in range(2, n + 1)]
    reports += [verify_independence_extremal(n, k, 0.0) for k in range(1, n)]
    assert len(reports) == 26
    assert [r for r in reports if r.verdict != "confirmed"] == []
