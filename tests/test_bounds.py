"""Bound records: sandwich validity, equality cases, applicability flags."""

import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from hararyspec import (
    Graph,
    NotConnectedError,
    bipartite_bound,
    bipartition,
    bound_report,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    is_transmission_regular,
    path,
    rd_alpha,
    rq_relation_bounds,
    spectral_radius,
    star,
    sym_eigen,
)
from hararyspec.bounds import (
    _BOUNDS,
    _ROW_FIELDS,
    _blend_radii,
    _bound_reports,
    _bound_values,
    _record,
)
from hararyspec.eigen import _eigenvalues
from hararyspec.extremal import _order

from conftest import ALPHA_GRID

P3_RHO = 1.6861406616345072
# Weights whose mirrors 1 - w are partly outside the list, with a repeat.
TABLE_ALPHAS = (0.0, 0.25, 0.3, 0.5, 0.9, 1.0, 0.25)
# The weights of the stacked-table checks: both ends, the midpoint and an irregular weight.
STACK_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0, 0.123456)


def _applicable(records):
    return [r for r in records if r.applicable]


def test_harary_lower_equality_on_transmission_regular():
    for alpha in ALPHA_GRID:
        rho = spectral_radius(cycle(4), alpha)
        rec = next(r for r in bound_report(cycle(4), alpha) if r.name == "harary_lower")
        assert rec.value == pytest.approx(2.5, abs=1e-12)
        assert rec.value == pytest.approx(rho, abs=1e-8)


def test_harary_lower_p3():
    rec = next(r for r in bound_report(path(3), 0.0) if r.name == "harary_lower")
    assert rec.value == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert rec.value <= P3_RHO


def test_row_norm_upper_tight_on_complete_graph():
    # At alpha = 1/2 on K_4 the row-norm bound evaluates to exactly rho = 3.
    rec = next(r for r in bound_report(complete(4), 0.5) if r.name == "row_norm_upper")
    assert rec.value == pytest.approx(3.0, abs=1e-12)
    assert spectral_radius(complete(4), 0.5) == pytest.approx(3.0, abs=1e-12)


def test_sandwich_on_catalog(catalog):
    for entry in catalog.up_to(5, start=2):
        for alpha in ALPHA_GRID:
            rho = entry.rho(alpha)
            for rec in _applicable(bound_report(entry.graph, alpha)):
                if rec.kind == "lower":
                    assert rec.value <= rho + 1e-9, (rec, rho)
                else:
                    assert rec.value >= rho - 1e-9, (rec, rho)


def test_rq_relation_sandwich_on_catalog(catalog):
    for entry in catalog.up_to(5, start=2):
        for alpha in ALPHA_GRID:
            rho = entry.rho(alpha)
            for rec in _applicable(rq_relation_bounds(entry.graph, alpha)):
                if rec.kind == "lower":
                    assert rec.value <= rho + 1e-9, (rec, rho)
                else:
                    assert rec.value >= rho - 1e-9, (rec, rho)


def test_rq_blend_identities():
    g = path(3)
    # at alpha = 1/2 both regime bounds collapse onto rho(RQ)/2
    rho_half = spectral_radius(g, 0.5)
    recs = {r.name: r for r in rq_relation_bounds(g, 0.5)}
    for name in ("rq_blend_lower_small_alpha", "rq_blend_upper_small_alpha",
                 "rq_blend_lower_large_alpha", "rq_blend_upper_large_alpha"):
        assert recs[name].applicable
        assert recs[name].value == pytest.approx(rho_half, abs=1e-9)
    # at alpha = 0 the small-alpha upper bound is rho(RD) itself
    recs0 = {r.name: r for r in rq_relation_bounds(g, 0.0)}
    assert recs0["rq_blend_upper_small_alpha"].value == pytest.approx(
        spectral_radius(g, 0.0), abs=1e-9
    )
    assert not recs0["rq_blend_lower_large_alpha"].applicable
    assert "alpha >= 1/2" in recs0["rq_blend_lower_large_alpha"].reason


# Each regime rule, (applies at alpha, reason when not); every other record always applies.
REGIMES = {
    "row_norm_upper": (lambda a: a < 1.0, "blend is diagonal (reducible) at alpha = 1"),
    "rq_blend_lower_small_alpha": (lambda a: a <= 0.5, "regime needs alpha <= 1/2"),
    "rq_blend_upper_small_alpha": (lambda a: a <= 0.5, "regime needs alpha <= 1/2"),
    "rq_blend_lower_large_alpha": (lambda a: a >= 0.5, "regime needs alpha >= 1/2"),
    "rq_blend_upper_large_alpha": (lambda a: a >= 0.5, "regime needs alpha >= 1/2"),
}


@pytest.mark.parametrize("alpha", sorted(set(TABLE_ALPHAS)))
def test_regimes_at_table_weights(alpha):
    g = path(4)
    records = bound_report(g, alpha) + rq_relation_bounds(g, alpha)
    assert len(records) == 13
    for rec in records:
        applies, reason = REGIMES.get(rec.name, (lambda a: True, ""))
        expected = (True, "") if applies(alpha) else (False, reason)
        assert (rec.applicable, rec.reason) == expected, (rec.name, alpha)


def test_rq_sum_relation(catalog):
    for entry in catalog.up_to(5, start=2):
        rho_rq = float(sym_eigen(entry.bundle.rq).values[0])
        for alpha in (0.0, 0.25, 0.4375, 0.5):
            total = entry.rho(alpha) + entry.rho(1.0 - alpha)
            assert total >= rho_rq - 1e-9


def test_scaled_transmission_pair(catalog):
    # lower side alpha*max transmission, and its companion on lambda_min
    for entry in catalog.up_to(5, start=2):
        tr = entry.bundle.transmissions
        for alpha in ALPHA_GRID:
            assert entry.rho(alpha) >= alpha * tr.max() - 1e-9
            assert entry.lambda_min(alpha) <= alpha * tr.min() + 1e-9


def test_weighted_transmission_equality_iff_regular(catalog):
    # equality at alpha >= 1/2 certifies transmission regularity and back
    for entry in catalog.up_to(5, start=2):
        regular = is_transmission_regular(entry.graph)
        for alpha in (0.5, 0.75, 1.0):
            rho = entry.rho(alpha)
            recs = {r.name: r for r in bound_report(entry.graph, alpha)}
            lower = recs["weighted_transmission_lower"].value
            upper = recs["weighted_transmission_upper"].value
            if regular:
                assert abs(lower - rho) <= 1e-8 and abs(upper - rho) <= 1e-8
            if abs(upper - rho) <= 1e-10 and abs(lower - rho) <= 1e-10:
                assert regular


def test_rms_and_ratio_equality_on_regular(catalog):
    for entry in catalog.up_to(5, start=2):
        if not is_transmission_regular(entry.graph):
            continue
        for alpha in ALPHA_GRID:
            rho = entry.rho(alpha)
            recs = {r.name: r for r in bound_report(entry.graph, alpha)}
            assert recs["rms_transmission_lower"].value == pytest.approx(rho, abs=1e-8)
            assert recs["ratio_row_sum_upper"].value == pytest.approx(rho, abs=1e-8)
            assert recs["harary_lower"].value == pytest.approx(rho, abs=1e-8)


def test_bipartite_bound_tight_only_for_complete_bipartite():
    rec = bipartite_bound(complete_bipartite(2, 2), 0.0)
    assert rec.value == pytest.approx(2.5, abs=1e-12)
    assert rec.tight
    rec = bipartite_bound(path(4), 0.0)
    assert rec.value == pytest.approx(2.5, abs=1e-12)
    assert not rec.tight
    assert rec.value > spectral_radius(path(4), 0.0)
    rec = bipartite_bound(star(4), 0.0)
    assert rec.value == pytest.approx((1.0 + math.sqrt(13.0)) / 2.0, abs=1e-12)
    assert rec.tight
    assert rec.value == pytest.approx(spectral_radius(star(4), 0.0), abs=1e-9)
    rec = bipartite_bound(complete_bipartite(5, 7), 0.0)
    assert rec.tight
    assert rec.value == pytest.approx(spectral_radius(complete_bipartite(5, 7), 0.0), abs=1e-9)
    rec = bipartite_bound(path(12), 0.0)
    assert not rec.tight
    assert rec.value > spectral_radius(path(12), 0.0)


def test_bipartite_bound_rejects_odd_cycles():
    with pytest.raises(ValueError, match="not bipartite"):
        bipartite_bound(cycle(5), 0.0)


@pytest.mark.parametrize("g", [Graph(2), disjoint_union(path(2), path(3))])
def test_bipartite_bound_rejects_disconnected_graphs(g):
    # like every other bound: a disconnected graph has no finite distances
    with pytest.raises(NotConnectedError):
        bipartite_bound(g, 0.5)


def test_bipartite_bound_dominates_on_catalog(catalog):
    for entry in catalog.up_to(5, start=2):
        if not bipartition(entry.graph)[0]:
            continue
        for alpha in ALPHA_GRID:
            rec = bipartite_bound(entry.graph, alpha)
            assert rec.value >= entry.rho(alpha) - 1e-9


def test_single_vertex_report_is_flagged():
    records = bound_report(complete(1), 0.5)
    assert records and all(not r.applicable for r in records)


def _radius(m):
    # the values-only driver the blend radii are solved by, so equal bit for bit
    return float(_eigenvalues(m)[0])


def test_blend_radii_match_separate_solves(catalog):
    # B_0 is RD entry for entry and B_1/2 is RQ/2 exactly, so one stacked
    # solve gives every radius bit for bit as a solve of its own matrix does.
    for entry in catalog.up_to(7):
        b = entry.bundle
        radii = _blend_radii(b, TABLE_ALPHAS)
        assert radii[0.0] == _radius(b.rd)
        assert 2.0 * radii[0.5] == _radius(b.rq)
        for a in TABLE_ALPHAS:
            assert radii[a] == _radius(rd_alpha(b, a))
            assert radii[1.0 - a] == _radius(rd_alpha(b, 1.0 - a))


def test_bound_values_match_one_weight_values(catalog):
    for entry in catalog.up_to(7):
        b = entry.bundle
        rd, tr = b.rd[None], b.transmissions[None]  # a stack of one
        table = _bound_values(rd, tr, TABLE_ALPHAS)[0]
        assert table == [_bound_values(rd, tr, [a])[0][0] for a in TABLE_ALPHAS]
        # each weight's values are 8 plain floats, in ``_BOUNDS`` order
        assert all(len(values) == len(_BOUNDS) and all(type(v) is float for v in values)
                   for values in table)
        if b.n == 1:
            continue
        # and each per-vertex bound equals its scalar formula, bit for bit
        n, tr, rd = b.n, b.transmissions, b.rd
        for a, values in zip(TABLE_ALPHAS, table):
            values = dict(zip((name for name, _, _ in _BOUNDS), values))
            row_norm = a * tr + (1.0 - a) * np.sqrt((n - 1.0) * (rd * rd).sum(axis=0))
            weighted = a * tr + (1.0 - a) * (rd @ tr) / tr
            ratio = a * tr + (1.0 - a) * (rd @ np.sqrt(tr)) / np.sqrt(tr)
            assert values["row_norm_upper"] == float(row_norm.max())
            assert values["weighted_transmission_lower"] == float(weighted.min())
            assert values["weighted_transmission_upper"] == float(weighted.max())
            assert values["ratio_row_sum_upper"] == float(ratio.max())
            assert values["scaled_transmission_lower"] == float(a * tr.max())


@pytest.mark.parametrize("n", range(1, 8))
def test_stacked_bound_values_are_their_stacks_of_one(n):
    # every class of order n in one call, against one call per class;
    # repr prints each float exactly, so equal text is equal bits
    _, _, rd, rt, _ = _order(n)
    table = _bound_values(rd, rt, STACK_ALPHAS)
    assert len(table) == len(rd) and all(len(rows) == len(STACK_ALPHAS) for rows in table)
    for i, rows in enumerate(table):
        assert repr(rows) == repr(_bound_values(rd[i:i + 1], rt[i:i + 1], STACK_ALPHAS)[0])


def test_bound_values_of_a_k1_stack():
    # zeros for every graph and weight, without dividing by a zero transmission
    rd, tr = np.zeros((3, 1, 1)), np.zeros((3, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = _bound_values(rd, tr, STACK_ALPHAS)
    assert table == [[[0.0] * 8] * len(STACK_ALPHAS)] * 3
    # each weight's list is its own, so a caller can extend it
    assert len({id(values) for rows in table for values in rows}) == 3 * len(STACK_ALPHAS)
    rows = [asdict(r) for r in bound_report(Graph(1), 0.0)]
    assert len(rows) == 8
    assert all((r["value"], r["applicable"], r["tight"]) == (0.0, False, None) for r in rows)
    assert all(r["reason"] == "single-vertex graph is trivial" for r in rows)


def test_bound_reports_join_the_library_reports(catalog):
    # the CLI's report: each radius and every record as the public calls give them
    for entry in catalog.up_to(6):
        g = entry.graph
        is_bipartite = bipartition(g)[0]
        reports = list(_bound_reports(g, TABLE_ALPHAS))
        assert len(reports) == len(TABLE_ALPHAS)
        for a, (rho, values, layout) in zip(TABLE_ALPHAS, reports):
            expected = bound_report(g, a) + rq_relation_bounds(g, a)
            if is_bipartite:
                expected.append(bipartite_bound(g, a))
            assert all(len(row) == len(_ROW_FIELDS) for row in layout)
            assert list(map(_record, layout, values)) == expected
            assert rho == _radius(rd_alpha(entry.bundle, a))
