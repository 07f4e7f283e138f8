"""Exhaustive extremal verification against the predicted maximizers."""

import hashlib
import importlib.util
import json
import math
from dataclasses import FrozenInstanceError, fields, replace
from functools import lru_cache
from pathlib import Path
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from hararyspec import (
    BudgetError,
    ExtremalReport,
    Graph,
    build_bundle,
    build_kite,
    canonical_form,
    complete,
    complete_bipartite,
    complete_multipartite,
    complete_split,
    edgeless,
    enumerate_connected_graphs,
    enumeration,
    extremal,
    graph_invariants,
    independence_rho_bound,
    invariants,
    join,
    spectral_radius,
    sym_eigen,
    verify_chromatic_extremal,
    verify_edge_connectivity_extremal,
    verify_independence_extremal,
    verify_vertex_connectivity_extremal,
)
from hararyspec.extremal import ATTAIN_TOL, CHROMATIC_GUARANTEE, TIE_TOL, _contender_radii, _order

from conftest import brute_vertex_connectivity, make_paw

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def _sample_reports():
    """A confirmed report and an exploratory two-way tie."""
    return verify_vertex_connectivity_extremal(5, 2, 0.25), verify_chromatic_extremal(7, 5, 0.9)


def test_report_json_is_every_field_in_field_order():
    names = [f.name for f in fields(ExtremalReport)]
    for report in _sample_reports():
        payload = report.to_json()
        assert list(payload) == names
        for name in names:
            value = getattr(report, name)
            expected = list(value) if name == "maximizers" else value
            assert type(payload[name]) is type(expected)
            assert payload[name] == expected


def test_report_json_maximizers_are_a_fresh_list():
    confirmed, tie = _sample_reports()
    assert tie.verdict == "tie" and len(tie.maximizers) == 2
    for report in (confirmed, tie):
        kept = report.maximizers
        payload = report.to_json()
        payload["maximizers"].append("X")
        payload["maximizers"].reverse()
        assert report.maximizers == kept
        assert report.to_json()["maximizers"] == list(kept)
        assert report.to_json()["maximizers"] is not report.to_json()["maximizers"]


def test_reports_are_slotted_frozen_and_hashable():
    for report in _sample_reports():
        assert not hasattr(report, "__dict__")
        with pytest.raises(FrozenInstanceError):
            report.verdict = "refuted"
        copy = replace(report)
        assert copy == report and copy is not report
        assert hash(copy) == hash(report)
        assert len({report, copy, replace(report, verdict="refuted")}) == 2
        # A name that is no field cannot be set either.  Python 3.11's frozen,
        # slotted dataclass raises TypeError here rather than FrozenInstanceError.
        with pytest.raises((FrozenInstanceError, TypeError)):
            report.note = 1
        assert not hasattr(report, "note")


def test_scanned_rows_follow_the_invariant_columns():
    # _class_maxima reads the first len(_SCANNED) invariant columns, so row i
    # of the table must name field i of GraphInvariants.
    names = [name.replace("-", "_") for name in extremal._SCANNED]
    assert names == [f.name for f in fields(invariants.GraphInvariants)][:len(names)]


def test_parameter_validation():
    with pytest.raises(ValueError, match=r"^need 1 <= r <= n-2, got r=4, n=5$"):
        verify_vertex_connectivity_extremal(5, 4, 0.0)
    with pytest.raises(ValueError, match=r"^need 1 <= r <= n-2, got r=0, n=5$"):
        verify_edge_connectivity_extremal(5, 0, 0.0)
    with pytest.raises(ValueError, match=r"^maximizer prediction needs alpha < 1$"):
        verify_vertex_connectivity_extremal(5, 2, 1.0)
    with pytest.raises(ValueError, match=r"^need 2 <= chi <= n, got chi=1, n=5$"):
        verify_chromatic_extremal(5, 1, 0.0)
    with pytest.raises(ValueError, match=r"^need 1 <= k <= n-1, got k=5, n=5$"):
        verify_independence_extremal(5, 5, 0.0)
    for k in (0, 5):
        with pytest.raises(ValueError, match=rf"^need 1 <= k <= n-1, got k={k}, n=5$"):
            independence_rho_bound(5, k, 0.2)
    with pytest.raises(BudgetError):
        verify_vertex_connectivity_extremal(9, 2, 0.0)
    # The checks run in order: the budget, then alpha, then the range.
    with pytest.raises(BudgetError):
        verify_chromatic_extremal(9, 1, 1.0)
    with pytest.raises(ValueError, match=r"^maximizer prediction needs alpha < 1$"):
        verify_chromatic_extremal(5, 1, 1.0)


RHO_ALPHAS = (0.0, 0.3, 0.9, 0.99)
# Contenders per alpha in RHO_ALPHAS, of 2, 6, 21, 112, 853, 11,117 classes.
CONTENDER_COUNTS = {3: [2, 2, 2, 2], 4: [5, 5, 5, 5], 5: [9, 8, 14, 14], 6: [19, 11, 42, 54],
                    7: [35, 15, 355, 409], 8: [61, 19, 2002, 2913]}


FIELDS = ("vertex_connectivity", "edge_connectivity", "chromatic_number", "independence_number")


def test_contender_radii_match_single_solves():
    # A contender's radius is its single-graph radius; every other graph's
    # radius sits more than the tie tolerance below the maximum of every
    # class holding it, so no scan of the contenders alone can miss it.
    for n in range(2, 8):
        graphs = enumerate_connected_graphs(n)
        invariants = [graph_invariants(g) for g in graphs]
        for alpha in RHO_ALPHAS:
            positions, radii = _contender_radii(n, alpha)
            assert len(positions) == len(radii)
            rho = [spectral_radius(g, alpha) for g in graphs]
            classes = [[(field, getattr(inv, field)) for field in FIELDS] for inv in invariants]
            top = {}
            for r, held in zip(rho, classes):
                for c in held:
                    top[c] = max(top.get(c, r), r)
            for i, radius in zip(positions.tolist(), radii):
                assert abs(radius - rho[i]) <= 1e-12, (n, alpha, i)
            for i in set(range(len(graphs))) - set(positions.tolist()):
                for c in classes[i]:
                    assert rho[i] < top[c] - TIE_TOL, (n, alpha, i, c)
    counts = {n: [len(_contender_radii(n, a)[0]) for a in RHO_ALPHAS] for n in CONTENDER_COUNTS}
    assert counts == CONTENDER_COUNTS


def test_rayleigh_and_collatz_wielandt_bounds_hold_every_radius():
    # r'Ar / r'r <= rho <= max_i (Ar)_i / r_i on every graph, and in every
    # class the member with the largest lower bound is a contender.
    for n in range(2, 8):
        graphs = enumerate_connected_graphs(n)
        bundles = [build_bundle(g) for g in graphs]
        invariants = [graph_invariants(g) for g in graphs]
        for alpha in RHO_ALPHAS + (CHROMATIC_GUARANTEE,):
            rho = np.array([spectral_radius(g, alpha) for g in graphs])
            lower, upper = [], []
            for b in bundles:
                r = b.transmissions
                ar = alpha * r * r + (1.0 - alpha) * (b.rd @ r)
                lower.append(r @ ar / (r @ r))
                upper.append(max(ar / r))
            assert np.all(np.array(lower) <= rho + 1e-12), (n, alpha)
            assert np.all(rho <= np.array(upper) + 1e-12), (n, alpha)
            best = {}
            for i, inv in enumerate(invariants):
                for c in ((field, getattr(inv, field)) for field in FIELDS):
                    if c not in best or lower[i] > lower[best[c]]:
                        best[c] = i
            assert set(best.values()) <= set(_contender_radii(n, alpha)[0].tolist()), (n, alpha)


def _workloads():
    """The benchmark's op generator, loaded from its file."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_cold_order_seven_work_counts(monkeypatch):
    # One subset-table pass for every class of the order, and at the
    # alphas of the benchmark's seed-5 extremal stream few blends per
    # contender solve.
    alphas = sorted({alpha for _, _, alpha in _workloads().extremal_ops(5)})
    assert len(alphas) == 5
    # The contender solves read the cached _order(7); warm it first, so only
    # the explicit cold pass below is counted, in any test order.
    _order(7)
    passes, stacked = [], []
    subset_invariants = invariants._subset_invariants
    monkeypatch.setattr(invariants, "_subset_invariants",
                        lambda graphs: passes.append(len(graphs)) or subset_invariants(graphs))
    monkeypatch.setattr(extremal, "sym_eigen", lambda blend: stacked.append(len(blend)) or sym_eigen(blend))
    _order.__wrapped__(7)
    for alpha in alphas:
        _contender_radii(7, alpha)
    assert passes == [853]
    assert len(stacked) == 5 and max(stacked) <= 40, stacked


BUILD_REPORTS = extremal._reports.__wrapped__
VERIFIERS = {
    "vertex-connectivity": verify_vertex_connectivity_extremal,
    "edge-connectivity": verify_edge_connectivity_extremal,
    "chromatic-number": verify_chromatic_extremal,
    "independence-number": verify_independence_extremal,
}


def _fresh_caches(monkeypatch):
    """Give the enumeration and every extremal cache a fresh ``lru_cache``;
    returns the list that collects the (n, alpha) of each report table built."""
    classes = lru_cache(maxsize=None)(enumeration._connected_classes.__wrapped__)
    monkeypatch.setattr(enumeration, "_connected_classes", classes)
    monkeypatch.setattr(extremal, "_connected_classes", classes)
    for name in ("_order", "_predicted"):
        fresh = lru_cache(maxsize=None)(getattr(extremal, name).__wrapped__)
        monkeypatch.setattr(extremal, name, fresh)
    tables = []
    monkeypatch.setattr(extremal, "_reports", lru_cache(maxsize=None)(
        lambda n, alpha: tables.append((n, alpha)) or BUILD_REPORTS(n, alpha)))
    return tables


def _verify(op):
    constraint, value, alpha = op
    return VERIFIERS[constraint](7, value, alpha)


def _cold_sweep(monkeypatch):
    """The reports of the n = 7 sweep over the benchmark's seed-5 stream,
    run with fresh enumeration and extremal caches, and the (n, alpha) of
    each report table the sweep built."""
    tables = _fresh_caches(monkeypatch)
    ops = _workloads().extremal_ops(5)
    assert len(ops) == 110
    return [_verify(op) for op in ops], tables


def test_cold_sweep_labels_in_stacked_calls(monkeypatch):
    # One stacked labelling per enumerated order (its candidate children)
    # and one for the 17 predicted maximizers, and no other.
    stacks = []
    canonical_masks = enumeration._canonical_masks

    def counted(adjs, n):
        stacks.append(len(adjs))
        return canonical_masks(adjs, n)

    monkeypatch.setattr(enumeration, "_canonical_masks", counted)
    monkeypatch.setattr(extremal, "_canonical_masks", counted)
    reports, _ = _cold_sweep(monkeypatch)
    assert stacks == [1, 2, 6, 28, 142, 1177, 17]
    assert {r.verdict for r in reports if not r.exploratory} <= {"confirmed", "tie"}


def test_cold_sweep_builds_one_report_table_per_alpha(monkeypatch):
    _, tables = _cold_sweep(monkeypatch)
    alphas = sorted({alpha for _, _, alpha in _workloads().extremal_ops(5)})
    assert sorted(tables) == [(7, alpha) for alpha in alphas] and len(tables) == 5


def test_warm_ops_are_report_table_lookups(monkeypatch):
    # After the first op at each alpha, no op reads the per-order arrays,
    # solves contenders or reads the predictions: each one is a lookup.
    ops = _workloads().extremal_ops(5)
    cold, _ = _cold_sweep(monkeypatch)
    _fresh_caches(monkeypatch)
    firsts = {}
    for i, (_, _, alpha) in enumerate(ops):
        firsts.setdefault(alpha, i)
    for i in firsts.values():
        assert _verify(ops[i]) == cold[i]

    def refuse(*args):
        raise AssertionError(f"a warm op rebuilt a cache entry {args}")

    for name in ("_order", "_contender_radii", "_predicted"):
        monkeypatch.setattr(extremal, name, refuse)
    warm = [i for i in range(len(ops)) if i not in firsts.values()]
    assert len(warm) == 105
    assert [_verify(ops[i]) for i in warm] == [cold[i] for i in warm]


def test_negative_zero_alpha_reports_positive_zero_in_any_call_order(monkeypatch):
    # -0.0 and 0.0 are one report-table key, so whichever comes first,
    # every report carries +0.0.
    for first, second in ((-0.0, 0.0), (0.0, -0.0)):
        _fresh_caches(monkeypatch)
        reports = [verify_chromatic_extremal(6, 3, first), verify_chromatic_extremal(6, 3, second)]
        assert [math.copysign(1.0, r.alpha) for r in reports] == [1.0, 1.0], (first, second)
        assert reports[0] == reports[1]


def test_an_empty_class_is_a_value_error(monkeypatch):
    # No order up to the budget has an empty class within a verifier's
    # range; a table without the class reports it as empty.
    monkeypatch.setattr(extremal, "_reports", lambda n, alpha: {})
    with pytest.raises(ValueError, match="^empty class: no connected graph of order 6 has "
                                         "chromatic-number = 3$"):
        verify_chromatic_extremal(6, 3, 0.3)


def test_independence_verdict_checks_the_closed_form_bound(monkeypatch):
    # A confirmed independence report needs its maximum to stay within
    # TIE_TOL above the closed-form bound and to attain it within ATTAIN_TOL.
    rho = verify_independence_extremal(6, 2, 0.3).rho_max
    for bound, verdict in ((rho, "confirmed"), (rho - 0.5 * TIE_TOL, "confirmed"),
                           (rho + 0.5 * ATTAIN_TOL, "confirmed"), (rho - 2 * TIE_TOL, "refuted"),
                           (rho + 2 * ATTAIN_TOL, "refuted")):
        monkeypatch.setattr(extremal, "independence_rho_bound", lambda n, k, a: bound)
        report = BUILD_REPORTS(6, 0.3)["independence-number", 2]
        assert (report.rho_max, report.verdict) == (rho, verdict), bound


def test_cold_sweep_builds_no_graph_per_class(monkeypatch):
    # The scans read the enumeration's arrays: the only Graph objects are
    # the predicted maximizers and the pieces their constructors join,
    # far fewer than the 996 connected classes of orders 1..7.
    built = []
    from_adj = Graph._from_adj.__func__
    monkeypatch.setattr(Graph, "_from_adj",
                        classmethod(lambda cls, n, adj: built.append(n) or from_adj(cls, n, adj)))
    _cold_sweep(monkeypatch)
    assert 0 < len(built) <= 50, len(built)


def test_stack_is_the_per_graph_bundles_bit_for_bit():
    for n in range(1, 8):
        bundles = [build_bundle(g) for g in enumerate_connected_graphs(n)]
        rd, rt, rdr = _order(n)[2:5]
        assert np.array_equal(rd, np.stack([b.rd for b in bundles]))
        assert np.array_equal(rt, np.stack([b.transmissions for b in bundles]))
        assert np.array_equal(rdr, np.stack([b.rd @ b.transmissions for b in bundles]))


def test_contender_radii_refuse_a_residual_above_the_tie_tolerance(monkeypatch):
    def solver_with_residual(residual):
        return lambda matrix: replace(sym_eigen(matrix), residual=residual)

    expected = _contender_radii(5, 0.3)
    monkeypatch.setattr(extremal, "sym_eigen", solver_with_residual(TIE_TOL))
    for got, want in zip(_contender_radii(5, 0.3), expected):
        assert np.array_equal(got, want)
    monkeypatch.setattr(extremal, "sym_eigen", solver_with_residual(2 * TIE_TOL))
    with pytest.raises(RuntimeError, match="exceeds the tie tolerance"):
        _contender_radii(5, 0.3)
    with pytest.raises(RuntimeError, match="exceeds the tie tolerance"):
        verify_vertex_connectivity_extremal(5, 2, 0.3001)  # an alpha no report table holds yet


def test_only_the_order_predictions_and_reports_are_cached():
    # Radii live only while their alpha's reports are built: the report
    # table is the one cache keyed by alpha.
    cached = {name for name, value in vars(extremal).items()
              if hasattr(value, "cache_info") and value.__module__ == extremal.__name__}
    assert cached == {"_order", "_predicted", "_reports"}


def test_report_cache_is_bounded():
    # More alphas than the cache holds: it never keeps more tables than its
    # bound, and an evicted alpha rebuilds an equal report.
    reports = extremal._reports
    bound = reports.cache_parameters()["maxsize"]
    assert bound >= 5  # the alphas of one benchmark stream
    alphas = [0.0125 + 0.05 * i for i in range(bound + 3)]
    reports.cache_clear()
    try:
        first = [verify_chromatic_extremal(5, 3, a) for a in alphas]
        assert reports.cache_info().currsize == bound
        assert reports.cache_info().misses == len(alphas)
        again = [verify_chromatic_extremal(5, 3, a) for a in alphas[:3]]  # evicted, rebuilt
        assert again == first[:3]
        assert reports.cache_info().misses == len(alphas) + 3
        assert reports.cache_info().currsize == bound
    finally:
        reports.cache_clear()


# -- an exhaustive scan that shares no code with the package -------------------

SCAN_ALPHAS = (0.0, 0.3, 7.0 / 16.0, 0.9)


def _chromatic_number(h, maximal_independent):
    """Fewest maximal independent sets covering h: a colouring's classes
    extend to maximal independent sets, and a cover shrinks to a colouring."""
    for k in range(1, len(h) + 1):
        if any(set().union(*sets) == set(h) for sets in combinations(maximal_independent, k)):
            return k


def _radii(graphs):
    """Blend spectral radius of each graph (one order) at each alpha in
    SCAN_ALPHAS, from networkx distances and numpy.linalg.eigvalsh."""
    n = graphs[0].number_of_nodes()
    lengths = [dict(nx.shortest_path_length(h)) for h in graphs]
    dist = np.array([[[d[u][v] for v in range(n)] for u in range(n)] for d in lengths], dtype=float)
    rd = np.divide(1.0, dist, out=np.zeros_like(dist), where=dist > 0)
    diag = np.eye(n) * rd.sum(axis=2)[:, :, None]
    return {a: np.linalg.eigvalsh(a * diag + (1.0 - a) * rd)[:, -1] for a in SCAN_ALPHAS}


def _reference_classes():
    """Per order 2..7: the connected networkx-atlas graphs, each one's four
    invariants (networkx and the conftest brute oracle), and the radii."""
    classes = {}
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() >= 2 and nx.is_connected(h):
            classes.setdefault(h.number_of_nodes(), []).append(h)
    reference = {}
    for n, graphs in classes.items():
        invariants = []
        for h in graphs:
            independent = [set(c) for c in nx.find_cliques(nx.complement(h))]
            invariants.append({
                "vertex_connectivity": brute_vertex_connectivity(Graph(n, h.edges())),
                "edge_connectivity": nx.edge_connectivity(h),
                "chromatic_number": _chromatic_number(h, independent),
                "independence_number": max(map(len, independent)),
            })
        reference[n] = graphs, invariants, _radii(graphs)
    return reference


def _kite(n, r):
    rest = nx.disjoint_union(nx.empty_graph(1), nx.complete_graph(n - r - 1))
    return nx.full_join(nx.complete_graph(r), rest, rename=("a", "b"))


SCANS = (  # verifier, invariant, feasible values at order n, predicted maximizer
    (verify_vertex_connectivity_extremal, "vertex_connectivity", lambda n: range(1, n - 1), _kite),
    (verify_edge_connectivity_extremal, "edge_connectivity", lambda n: range(1, n - 1), _kite),
    (verify_chromatic_extremal, "chromatic_number", lambda n: range(2, n + 1), nx.turan_graph),
    (verify_independence_extremal, "independence_number", lambda n: range(1, n),
     lambda n, k: nx.full_join(nx.empty_graph(k), nx.complete_graph(n - k), rename=("a", "b"))),
)


def test_every_scan_matches_an_independent_reference_scan():
    seen = set()
    for n, (graphs, invariants, radii) in _reference_classes().items():
        for verify, field, values, build in SCANS:
            for value in values(n):
                members = [i for i, inv in enumerate(invariants) if inv[field] == value]
                predicted = build(n, value)
                for a in SCAN_ALPHAS:
                    report = verify(n, value, a)
                    rho = radii[a][members]
                    rho_max = float(rho.max())
                    assert abs(report.rho_max - rho_max) <= 1e-12, report
                    expected = [graphs[i] for i, r in zip(members, rho) if r >= rho_max - TIE_TOL]
                    got = [nx.from_graph6_bytes(text.encode()) for text in report.maximizers]
                    assert len(got) == len(expected), report
                    for g in got:
                        match = [h for h in expected if nx.is_isomorphic(g, h)]
                        assert len(match) == 1, report
                        expected.remove(match[0])
                    claimed = nx.from_graph6_bytes(report.predicted.encode())
                    assert nx.is_isomorphic(claimed, predicted), report
                    if len(got) > 1:
                        verdict = "tie"
                    else:
                        verdict = "confirmed" if nx.is_isomorphic(got[0], predicted) else "refuted"
                    assert report.verdict == verdict, report
                    exploratory = field == "chromatic_number" and a > CHROMATIC_GUARANTEE
                    assert report.exploratory == exploratory, report
                    seen.add((verdict, exploratory))
    # alpha = 0.9 reaches the exploratory chromatic refutations and a tie
    assert {("confirmed", False), ("refuted", True), ("tie", True)} <= seen, seen


def test_full_sweep_at_eight():
    n = 8
    reports = [verify_vertex_connectivity_extremal(n, r, 0.0) for r in range(1, n - 1)]
    reports += [verify_edge_connectivity_extremal(n, r, 0.0) for r in range(1, n - 1)]
    reports += [verify_chromatic_extremal(n, chi, 0.0) for chi in range(2, n + 1)]
    reports += [verify_independence_extremal(n, k, 0.0) for k in range(1, n)]
    assert len(reports) == 26
    assert [r for r in reports if r.verdict != "confirmed"] == []


def test_reports_match_the_pinned_hash():
    # Every report (or its error) of orders 2..8 at six weights, in a fixed order.
    digest = hashlib.sha256()
    verifiers = (verify_vertex_connectivity_extremal, verify_edge_connectivity_extremal,
                 verify_chromatic_extremal, verify_independence_extremal)
    for n in range(2, 9):
        for a in (0, 0.3, 7 / 16, 0.9, 0.123456, 0.99):
            for verify in verifiers:
                for value in range(n + 2):
                    try:
                        text = repr(verify(n, value, a).to_json())
                    except ValueError as exc:
                        text = repr(exc)
                    digest.update(text.encode("utf-8"))
    assert digest.hexdigest() == "0ac3ccf1a0a08697189d258f6cb8550d1da547bba1d329fd8b7f1a3edf9c5a78"


def test_contender_radii_match_the_pinned_hash():
    digest = hashlib.sha256()
    for n in range(2, 9):
        for a in (0, 0.3, 7 / 16, 0.9):
            positions, radii = _contender_radii(n, a)
            digest.update(positions.astype(np.int64).tobytes())
            digest.update(radii.astype(np.float64).tobytes())
    assert digest.hexdigest() == "7814def97bb9529623c0a058aa9ebe161a4675d02368c15cfecebb21af7ef35d"
