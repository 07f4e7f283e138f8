"""Command-line interface: inputs, outputs, schemas and exit codes."""

import json
from functools import lru_cache
from http import HTTPStatus  # an int subclass with its own repr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hararyspec import (
    bipartite_bound,
    bipartition,
    bound_report,
    bounds,
    cli,
    eigen,
    extremal,
    graphs,
    parse_graph6,
    psd,
    rq_relation_bounds,
    to_graph6,
    wheel,
)
from hararyspec.enumeration import enumerate_connected_graphs
from hararyspec.extremal import ExtremalReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def round12(obj):
    """Every float of a payload rounded to 12 significant digits, tuples as
    lists: the rounding the CLI's JSON output promises, written here apart
    from the emitter under test."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    return obj


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e16, 1e-5, 0.1 + 0.2,
                     float("nan"), float("inf"), float("-inf")]),
    st.floats().map(np.float64),
    st.text(),
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_PAYLOADS)
def test_json_emitter_matches_json_dumps(payload):
    assert cli._json(payload) == json.dumps(round12(payload), indent=2, sort_keys=True)


_ANY_FLOAT = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, -5e-324, float("nan"), float("inf"), float("-inf")]),
)
_BOUND_RECORDS = st.fixed_dictionaries({
    "name": st.text(), "kind": st.text(), "applicable": st.booleans(),
    # the command's values are floats; any other scalar is written by ``_json``
    "value": st.one_of(_ANY_FLOAT, st.floats().map(np.float64), st.integers(), st.none()),
    "reason": st.text(), "tight": st.sampled_from([None, True, False]),
})
_BOUNDS_PAYLOADS = st.lists(
    st.fixed_dictionaries({"n": st.integers(), "alpha": _ANY_FLOAT, "rho": _ANY_FLOAT,
                           "records": st.lists(_BOUND_RECORDS, max_size=6)}),
    min_size=1, max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(_BOUNDS_PAYLOADS)
def test_bounds_writer_matches_json_dumps(payload):
    # the record cache persists across examples, so later ones reuse cached heads
    assert cli._bounds_json(payload) == json.dumps(round12(payload), indent=2, sort_keys=True)


def test_bounds_writer_matches_emitter_on_every_small_class(monkeypatch):
    monkeypatch.setattr(cli, "_RECORD_HEADS", {})
    alpha_lists = ([0.0, 0.25, 0.5, 0.75, 1.0, 0.123456], [0.0], [1.0], [0.5, 0.3])
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            for alphas in alpha_lists:
                payload = [{"n": g.n, "alpha": a, "rho": rho, "records": records}
                           for a, (rho, records) in zip(alphas, bounds._bound_reports(g, alphas))]
                assert cli._bounds_json(payload) == cli._json(payload)
    # One head per table row and applicability outcome (9 bound_report rows, 9
    # rq_relation_bounds rows), per tight value of the bipartite row (2), and
    # one per K_1 row (9).
    assert len(cli._RECORD_HEADS) == 29


def _float_by_repr(x):
    """JSON text of ``x`` rounded to 12 significant digits, through the repr
    of the rounded float: the route the emitter's fast path must match."""
    y = float(f"{x:.12g}")
    if y - y == 0.0:
        return float.__repr__(y)
    return "NaN" if y != y else "Infinity" if y > 0 else "-Infinity"


@settings(max_examples=1000, deadline=None)
@given(st.one_of(
    st.floats(allow_subnormal=True),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals and their neighbours
    st.floats(min_value=1e11, max_value=1e17).flatmap(lambda x: st.sampled_from([x, -x])),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 999999999999.5, 1e12, 1e16 - 2, 1e16, 1e-4,
                     9.99999999999949e-5, float("nan"), float("inf"), float("-inf")]),
))
def test_json_float_matches_repr_route(x):
    assert cli._json_float(x) == _float_by_repr(x)


def test_json_emitter_edge_cases():
    payload = {"\u00e9\x00\n\"": [(), [], {}, -0.0, 5e-324, 1e300, float("nan"), float("-inf"),
                                   np.float64(1 / 3), 2**70, -(2**70), HTTPStatus.OK, True, False, None]}
    assert cli._json(payload) == json.dumps(round12(payload), indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._json(np.int64(3))  # json.dumps refuses it too


def test_spectrum_complete_graph_json(capsys):
    code, out, err = run(
        capsys, "spectrum", "--construct", "complete:4", "--alpha", "0", "--format", "json"
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload == [
        {
            "n": 4,
            "alpha": 0.0,
            "eigenvalues": [3.0, -1.0, -1.0, -1.0],
            "harary": 6.0,
            "energy": 6.0,
        }
    ]


def test_spectrum_graph6_input(capsys):
    code, out, _ = run(capsys, "spectrum", "--graph6", "Bg", "--alpha", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["eigenvalues"][0] == pytest.approx(1.68614066163, abs=1e-9)


def test_spectrum_multiple_alphas_table(capsys):
    code, out, _ = run(capsys, "spectrum", "--construct", "cycle:4", "--alpha", "0,0.5,1")
    assert code == 0
    assert out.count("alpha =") == 3
    assert "2.5" in out


def test_spectrum_past_graph6_short_form(capsys):
    # graph6's short form ends at n = 62; the report does not need it.
    code, out, err = run(
        capsys, "spectrum", "--construct", "path:70", "--alpha", "0,0.5", "--format", "json"
    )
    assert code == 0, err
    offsets = np.abs(np.subtract.outer(np.arange(70), np.arange(70))).astype(float)
    rd = np.divide(1.0, offsets, out=np.zeros_like(offsets), where=offsets > 0)
    for report in json.loads(out):
        a = report["alpha"]
        blend = a * np.diag(rd.sum(axis=1)) + (1.0 - a) * rd
        expected = np.linalg.eigvalsh(blend)[::-1]
        assert np.allclose(report["eigenvalues"], expected, rtol=1e-10, atol=1e-10)
    code, out, err = run(capsys, "spectrum", "--construct", "path:70")
    assert code == 0, err
    assert out.splitlines()[0] == "n = 70"
    code, out, _ = run(capsys, "spectrum", "--construct", "path:62")
    assert code == 0
    assert out.splitlines()[0].startswith("n = 62, graph6 = }")


def test_twelve_significant_digits(capsys):
    code, out, _ = run(capsys, "spectrum", "--graph6", "Bg", "--alpha", "0", "--format", "json")
    assert code == 0
    assert "1.68614066163" in out  # 12 significant digits
    assert "1.686140661634" not in out  # not more


def test_bounds_path3(capsys):
    code, out, _ = run(
        capsys, "bounds", "--construct", "path:3", "--alpha", "0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)[0]
    records = {rec["name"]: rec for rec in payload["records"]}
    assert records["harary_lower"]["value"] == pytest.approx(1.66666666667, abs=1e-9)
    assert payload["rho"] == pytest.approx(1.68614066163, abs=1e-9)
    assert "bipartite_upper" in records  # P3 is bipartite


def test_bounds_bipartite_beyond_labelling_budget(capsys):
    # tightness of the bipartite bound needs no canonical labelling
    code, out, err = run(capsys, "bounds", "--construct", "path:12", "--format", "json")
    assert code == 0, err
    records = {rec["name"]: rec for rec in json.loads(out)[0]["records"]}
    assert records["bipartite_upper"]["tight"] is False


def test_psd_wheel5(capsys):
    code, out, _ = run(capsys, "psd", "--construct", "wheel:5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha0"] == pytest.approx(0.3, abs=1e-7)
    assert payload["closed_form"]["alpha0"] == pytest.approx(0.3, abs=1e-12)
    assert payload["closed_form"]["method"] == "wheel"


def test_psd_transmission_regular_closed_form(capsys):
    code, out, _ = run(capsys, "psd", "--construct", "cycle:4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"]["method"] == "transmission_regular"
    assert payload["closed_form"]["alpha0"] == pytest.approx(0.375, abs=1e-10)


def test_bounds_table(capsys):
    code, out, err = run(capsys, "bounds", "--construct", "path:3", "--alpha", "0,1")
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "alpha = 0: rho = 1.68614066163"
    assert lines[1].split() == ["row_norm_upper", "upper", "2"]
    assert "alpha = 1: rho = 2" in lines
    assert lines[-1].split() == ["bipartite_upper", "upper", "2", "[tight]"]
    assert "  [not applicable: blend is diagonal (reducible) at alpha = 1]" in out
    assert len(lines) == 2 * 15  # a rho line and 14 records per alpha


@pytest.mark.parametrize("graph6", ["ExSG", "FiCOG"])  # a graph with triangles, a tree
def test_bounds_json_matches_library_records(capsys, graph6):
    g = parse_graph6(graph6)
    code, out, err = run(capsys, "bounds", "--graph6", graph6, "--alpha", "0,0.5,1", "--format", "json")
    assert code == 0, err
    reports = json.loads(out)
    is_bipartite = bipartition(g)[0]
    assert is_bipartite == (graph6 == "FiCOG")
    for report, a in zip(reports, (0.0, 0.5, 1.0), strict=True):
        records = bound_report(g, a) + rq_relation_bounds(g, a)
        if is_bipartite:
            records.append(bipartite_bound(g, a))
        expected = json.loads(json.dumps(round12([vars(r) for r in records])))
        assert report["alpha"] == a
        assert report["records"] == expected


@pytest.mark.parametrize("spec", ["path:5", "wheel:6", "complete:1"])  # a tree, an odd wheel, K_1
def test_bounds_command_builds_no_record_objects(capsys, monkeypatch, spec):
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda args, payload, table, write: payloads.append(payload))

    def refuse(*args, **kwargs):
        raise AssertionError("the bounds command built a BoundRecord")

    with monkeypatch.context() as patch:
        patch.setattr(bounds, "BoundRecord", refuse)
        code, _, err = run(capsys, "bounds", "--construct", spec, "--alpha", "0,0.3,0.5,1")
    assert code == 0, err
    # the library calls still return BoundRecords, equal to the rows the command printed
    g = cli._parse_construct(spec)[2]
    is_bipartite = bipartition(g)[0]
    for report, a in zip(payloads[0], (0.0, 0.3, 0.5, 1.0), strict=True):
        expected = bound_report(g, a) + rq_relation_bounds(g, a)
        if is_bipartite:
            expected.append(bipartite_bound(g, a))
        assert all(type(r) is bounds.BoundRecord for r in expected)
        assert [vars(r) for r in expected] == report["records"]


def _count_work(monkeypatch):
    """Wrap the BFS and both eigensolver bindings, ``sym_eigen`` and the
    values-only ``_eigenvalues``, in every module that solves for the CLI and
    the bounds (``eigen``, whose ``_blend_values`` they read, and ``psd``);
    return the call counts and the number of matrices solved."""
    counts = {"bfs": 0, "solve": 0, "matrices": 0}
    bfs = graphs.all_pairs_distances

    def counted_bfs(*args, **kwargs):
        counts["bfs"] += 1
        return bfs(*args, **kwargs)

    def counted(solve):
        def counted_solve(matrix, *args, **kwargs):
            counts["solve"] += 1
            counts["matrices"] += len(matrix) if np.ndim(matrix) == 3 else 1
            return solve(matrix, *args, **kwargs)
        return counted_solve

    monkeypatch.setattr(graphs, "all_pairs_distances", counted_bfs)
    for module in (eigen, psd):
        for name in ("sym_eigen", "_eigenvalues"):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
    return counts


@pytest.mark.parametrize(
    "argv, solves, matrices",
    [
        (("spectrum", "--graph6", "ExSG", "--alpha", "0,0.5,1"), 1, 3),  # every alpha in one stack
        # the blends at 0 and 1/2; the blend at 1 is diagonal and not solved
        (("bounds", "--graph6", "ExSG", "--alpha", "0,0.5,1"), 1, 2),
        (("bounds", "--construct", "path:6", "--alpha", "0.25,0.75"), 1, 4),  # plus 0 and 1/2
        (("bounds", "--graph6", "ExSG", "--alpha", "0,0.25,0.5,0.75"), 1, 4),  # not the mirror 1
        (("psd", "--graph6", "FiCOG"), 2, 2),  # the threshold and its residual
        (("psd", "--construct", "cycle:9"), 3, 3),  # plus lambda_min(RD) for the regular closed form
        (("psd", "--construct", "wheel:6"), 2, 2),  # the wheel closed form is a formula
        (("closed-form", "--construct", "wheel:6", "--alpha", "0,0.25,0.5,0.75"), 1, 4),
    ],
)
def test_each_report_does_its_work_once(capsys, monkeypatch, argv, solves, matrices):
    counts = _count_work(monkeypatch)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert counts == {"bfs": 1, "solve": solves, "matrices": matrices}


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
def test_rq_relation_bounds_solves_once(monkeypatch, alpha):
    counts = _count_work(monkeypatch)
    rq_relation_bounds(parse_graph6("ExSG"), alpha)  # rho(RD), rho(RQ) and the mirror
    matrices = len({0.0, 0.5, alpha, 1.0 - alpha} - {1.0})  # the diagonal blend at 1 is not solved
    assert counts == {"bfs": 1, "solve": 1, "matrices": matrices}


def test_second_report_of_a_graph_solves_only_unseen_weights(capsys, monkeypatch):
    counts = _count_work(monkeypatch)
    reports = [
        (("spectrum", "--graph6", "ExSG", "--alpha", "0,0.25"), {"bfs": 1, "solve": 1, "matrices": 2}),
        # 0 and 1/4 are solved, as the mirror 3/4 of 1/4 is not; the blend at 1 is never solved
        (("bounds", "--graph6", "ExSG", "--alpha", "0,0.25,0.5,0.75"),
         {"bfs": 0, "solve": 1, "matrices": 2}),
        (("psd", "--graph6", "ExSG"), {"bfs": 0, "solve": 2, "matrices": 2}),  # its own two solves
        (("spectrum", "--graph6", "ExSG", "--alpha", "0.5,1"), {"bfs": 0, "solve": 1, "matrices": 1}),
    ]
    for argv, expected in reports:
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert counts == expected, argv
        counts.update(bfs=0, solve=0, matrices=0)


def test_input_forms_of_one_graph_share_its_bundle(capsys, monkeypatch, tmp_path):
    edge_list = tmp_path / "wheel.txt"
    edges = wheel(6).edges()
    edge_list.write_text(f"6 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    counts = _count_work(monkeypatch)
    forms = [
        ("spectrum", "--construct", "wheel:6", "--alpha", "0,0.5"),
        ("bounds", "--graph6", to_graph6(wheel(6)), "--alpha", "0,0.5"),
        ("spectrum", "--edge-list", str(edge_list), "--alpha", "0.5,0"),
        ("closed-form", "--construct", "wheel:6", "--alpha", "0,0.5"),
    ]
    for argv in forms:
        code, _, err = run(capsys, *argv)
        assert code == 0, err
    assert counts == {"bfs": 1, "solve": 1, "matrices": 2}


def test_only_residual_checks_reach_the_full_solver(capsys, monkeypatch):
    # Reports and library calls that read eigenvalues alone never run numpy.linalg.eigh ...
    eigh, calls = np.linalg.eigh, []

    def refused(*args, **kwargs):
        raise AssertionError("a values-only report reached numpy.linalg.eigh")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    for argv in [
        ("spectrum", "--construct", "wheel:6", "--alpha", "0,0.25,0.5,1"),
        ("bounds", "--graph6", "ExSG", "--alpha", "0,0.25,0.5,0.75"),
        ("psd", "--graph6", "FiCOG"),
        ("psd", "--construct", "cycle:9"),  # plus lambda_min(RD) for the regular closed form
        ("closed-form", "--construct", "wheel:6", "--alpha", "0,0.5"),
        ("closed-form", "--construct", "multipartite:1,2,3", "--alpha", "0,0.5"),  # quotient solve
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 0, err
    eigen.spectral_radius(wheel(6), 0.25)
    eigen.rd_alpha_energy(wheel(6), 0.25)
    # ... while the extremal radii, whose residual is checked, do.
    monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kwargs: calls.append(1) or eigh(*args, **kwargs))
    monkeypatch.setattr(extremal, "_reports", lru_cache(maxsize=None)(extremal._reports.__wrapped__))
    code, _, err = run(capsys, "verify-extremal", "--n", "5", "--constraint", "chromatic-number",
                       "--value", "3", "--alpha", "0.25")
    assert code == 0, err
    assert calls


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--construct", "wheel:6", "--alpha", "0,0.5"),
        ("bounds", "--construct", "bipartite:2,3", "--alpha", "0,0.5"),
        ("psd", "--construct", "wheel:6"),
        ("closed-form", "--construct", "wheel:6", "--alpha", "0,0.5"),
        ("verify-extremal", "--n", "5", "--constraint", "chromatic-number", "--value", "3",
         "--alpha", "0,0.25"),
    ],
)
def test_json_reports_do_no_table_work(capsys, monkeypatch, argv):
    counts = {"_fmt": 0, "to_graph6": 0}

    def counted(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(cli, name, counted(name))
    code, _, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    assert counts == {"_fmt": 0, "to_graph6": 0}
    code, _, err = run(capsys, *argv, "--format", "table")
    assert code == 0, err
    assert counts["_fmt"] > 0
    assert counts["to_graph6"] == (argv[0] == "spectrum")  # the spectrum table's header


def test_interleaved_calls_match_calls_alone(capsys, tmp_path):
    target = tmp_path / "bounds.txt"
    calls = [
        ("psd", "--graph6", "ExSG", "--format", "json"),
        ("bounds", "--construct", "wheel:6", "--alpha", "0,0.5", "--output", str(target)),
        ("psd", "--construct", "cycle:4", "--tol", "1e-9"),  # a usage error in between
        ("spectrum", "--construct", "cycle:5", "--alpha", "0.25,1"),
    ]

    def outcome(argv):
        code, out, _ = run(capsys, *argv)
        written = target.read_text() if target.exists() else None
        if target.exists():
            target.unlink()
        return code, out, written

    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(outcome(argv))
    assert [code for code, _, _ in alone] == [0, 0, 1, 0]
    assert alone[1][1] == "" and alone[1][2].startswith("alpha = 0: rho = ")
    interleaved = [outcome(argv) for argv in calls + calls[::-1] + calls]
    assert interleaved == alone + alone[::-1] + alone


def test_psd_table(capsys):
    code, out, err = run(capsys, "psd", "--construct", "wheel:5")
    assert code == 0, err
    first, second = out.splitlines()
    assert first.startswith("alpha0 = ") and " (inertia), residual " in first
    assert float(first.split()[2]) == pytest.approx(0.3, abs=1e-12)
    assert second == "closed form (wheel): alpha0 = 0.3"


def test_psd_threshold_is_exact(capsys):  # cycle:4 is transmission regular
    code, out, _ = run(capsys, "psd", "--construct", "cycle:4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "inertia"
    assert payload["alpha0"] == pytest.approx(0.375, abs=1e-12)


def test_psd_single_vertex(capsys):
    code, out, err = run(capsys, "psd", "--graph6", "@", "--format", "json")
    assert code == 0, err
    assert json.loads(out) == {
        "n": 1,
        "alpha0": 0.0,
        "method": "already PSD at 0",
        "residual": 0.0,
        "closed_form": {"alpha0": 0.0, "method": "transmission_regular"},
    }


def test_bounds_single_vertex_records_all_trivial(capsys):
    # K_1 is bipartite; its bipartite record reads 0 like every other
    # record, not the cancellation noise of the general formula.
    trivial = dict(value=0.0, applicable=False, reason="single-vertex graph is trivial", tight=None)
    argv = ("bounds", "--construct", "complete:1", "--alpha")
    code, out, err = run(capsys, *argv, "0,0.3", "--format", "json")
    assert code == 0, err
    for report in json.loads(out):
        assert report["rho"] == 0.0
        assert report["records"][-1] == {"name": "bipartite_upper", "kind": "upper", **trivial}
        bounds_only = [r for r in report["records"] if not r["name"].startswith("rq_")]
        assert len(bounds_only) == 9
        assert all({k: r[k] for k in trivial} == trivial for r in bounds_only)
    code, out, err = run(capsys, *argv, "0.3")
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "alpha = 0.3: rho = 0"
    assert lines[-1] == (
        "  bipartite_upper                  upper                  0"
        "  [not applicable: single-vertex graph is trivial]"
    )
    assert "tight" not in out


def test_closed_form_table(capsys):
    code, out, err = run(capsys, "closed-form", "--construct", "complete:4", "--alpha", "0,0.5")
    assert code == 0, err
    lines = out.splitlines()
    assert lines[:3] == [
        "alpha = 0 [complete]",
        "                   3  (multiplicity 1)",
        "                  -1  (multiplicity 3)",
    ]
    assert lines[3].startswith("  max deviation vs numeric eigensolver: ")
    assert lines[4:7] == [
        "alpha = 0.5 [complete]",
        "                   3  (multiplicity 1)",
        "                   1  (multiplicity 3)",
    ]
    assert len(lines) == 8


def test_closed_form_complete(capsys):
    code, out, _ = run(
        capsys, "closed-form", "--construct", "complete:4", "--alpha", "0,0.5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["eigenvalues"] == [[3.0, 1], [-1.0, 3]]
    assert payload[1]["eigenvalues"] == [[3.0, 1], [1.0, 3]]
    assert payload[0]["max_deviation_vs_numeric"] <= 1e-8


def test_closed_form_needs_construct(capsys):
    code, _, err = run(capsys, "closed-form", "--graph6", "Bg", "--alpha", "0")
    assert code == 1
    assert "construct" in err


def test_verify_extremal_confirmed_exit_zero(capsys):
    code, out, _ = run(
        capsys,
        "verify-extremal",
        "--n", "5",
        "--constraint", "vertex-connectivity",
        "--value", "2",
        "--alpha", "0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["verdict"] == "confirmed"


def test_verify_extremal_table(capsys):
    code, out, err = run(
        capsys,
        "verify-extremal",
        "--n", "6",
        "--constraint", "chromatic-number",
        "--value", "3",
        "--alpha", "0,0.5",
    )
    assert code == 0, err
    first, second = out.splitlines()
    assert first.startswith("n=6 chromatic-number=3 alpha=0: confirmed, rho_max=")
    assert first.endswith(", maximizers=['E]~o'], predicted=E]~o")
    assert second == (
        "n=6 chromatic-number=3 alpha=0.5: confirmed (exploratory), rho_max=4.5, "
        "maximizers=['E]~o'], predicted=E]~o"
    )


@pytest.mark.parametrize("argv", [
    ("verify-extremal", "--n", "5", "--constraint", "vertex-connectivity", "--value", "2"),
    ("spectrum", "--construct", "complete:3"),
    ("bounds", "--construct", "complete:3"),
    ("closed-form", "--construct", "complete:3"),
])
def test_negative_zero_alpha_prints_as_zero(capsys, argv):
    code, out, err = run(capsys, *argv, "--alpha", "-0", "--format", "json")
    assert code == 0, err
    assert [report["alpha"] for report in json.loads(out)] == [0.0]
    assert '"alpha": 0.0' in out and '"alpha": -0.0' not in out


def test_options_a_subcommand_does_not_read_exit_one(capsys):
    # verify-extremal takes no graph input; no subcommand reads --tol
    verify = ("verify-extremal", "--n", "5", "--constraint", "vertex-connectivity", "--value", "2")
    assert run(capsys, *verify, "--graph6", "Bg")[0] == 1
    assert run(capsys, *verify, "--tol", "1e-9")[0] == 1
    assert run(capsys, "spectrum", "--graph6", "Bg", "--tol", "1e-9")[0] == 1
    assert run(capsys, "bounds", "--graph6", "Bg", "--tol", "1e-9")[0] == 1
    assert run(capsys, "psd", "--graph6", "Bg", "--tol", "1e-9")[0] == 1
    assert run(capsys, "closed-form", "--construct", "complete:4", "--tol", "1e-9")[0] == 1


def test_verify_extremal_budget_exit_four(capsys):
    code, _, err = run(
        capsys,
        "verify-extremal",
        "--n", "9",
        "--constraint", "vertex-connectivity",
        "--value", "2",
        "--alpha", "0",
    )
    assert code == 4
    assert "budget" in err


def _fake_report(verdict):
    return ExtremalReport(
        n=5,
        constraint="vertex-connectivity",
        value=2,
        alpha=0.0,
        rho_max=1.0,
        maximizers=("D??",),
        predicted="D??",
        verdict=verdict,
    )


def test_verify_extremal_refuted_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(cli.extremal, "_verify",
                        lambda constraint, n, value, alpha: _fake_report("refuted"))
    code, _, _ = run(
        capsys,
        "verify-extremal",
        "--n", "5",
        "--constraint", "vertex-connectivity",
        "--value", "2",
        "--alpha", "0",
    )
    assert code == 2


def test_verify_extremal_tie_exit_three(capsys, monkeypatch):
    monkeypatch.setattr(cli.extremal, "_verify",
                        lambda constraint, n, value, alpha: _fake_report("tie"))
    code, _, _ = run(
        capsys,
        "verify-extremal",
        "--n", "5",
        "--constraint", "vertex-connectivity",
        "--value", "2",
        "--alpha", "0",
    )
    assert code == 3


def test_usage_errors_exit_one(capsys, tmp_path):
    assert run(capsys, "spectrum")[0] == 1  # no input source
    assert run(capsys, "spectrum", "--construct", "nosuch:3")[0] == 1
    assert run(capsys, "spectrum", "--graph6", "Bg", "--alpha", "2")[0] == 1
    assert run(capsys, "spectrum", "--graph6", "C~~")[0] == 1
    assert run(capsys, "nosuchcommand")[0] == 1
    assert run(capsys, "spectrum", "--graph6", "Bg", "--construct", "path:3")[0] == 1
    assert run(capsys, "spectrum", "--construct", "complete") == (
        1, "", "error: constructor 'complete' takes 1 integer parameter(s), got 0\n")
    assert run(capsys, "closed-form", "--construct", "split:2,1") == (
        1, "", "error: complete split spectrum needs a >= 1 and b >= 2\n")
    empty = tmp_path / "empty.edges"
    empty.write_text("")
    assert run(capsys, "spectrum", "--edge-list", str(empty)) == (1, "", "error: empty edge-list input\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--construct", "cycle:5", "--alpha", "0,0.5"),
        ("bounds", "--graph6", "ExSG", "--form", "json"),
        ("psd", "--construct", "wheel:6"),
        ("closed-form", "--construct", "complete:4"),
        ("verify-extremal", "--n", "4", "--constraint", "chromatic-number", "--value", "2"),
    ],
)
def test_well_formed_argv_is_parsed_once(capsys, monkeypatch, argv):
    # the subcommand's own parser reads it; the root parser parses nothing
    root = cli._build_parser()
    calls = []

    def stub(name):
        def refuse(*args, **kwargs):
            calls.append(name)
            raise SystemExit(2)
        return refuse

    for name in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(root, name, stub(name))
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert calls == []
    # an argv that names no subcommand still goes to the root parser
    assert cli.main(["--format", "json", *argv]) == 1
    assert calls == ["parse_args"]


def test_edge_list_file_input(capsys, tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run(
        capsys, "spectrum", "--edge-list", str(p), "--alpha", "0", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)[0]["harary"] == 2.5


@pytest.mark.parametrize("second", ["1 0", "0 1"])
def test_edge_list_repeated_edge_exits_one(capsys, tmp_path, second):
    # The header announces three edges; a repeat must not run as a 2-edge path.
    p = tmp_path / "g.edges"
    p.write_text(f"3 3\n0 1\n{second}\n1 2\n")
    code, out, err = run(capsys, "spectrum", "--edge-list", str(p))
    assert code == 1
    assert out == ""
    assert f"repeated edge ({second.replace(' ', ', ')})" in err
    p.write_text("3 3\n0 1\n2 1\n0 2\n")  # a triangle: three distinct edges
    code, out, err = run(capsys, "spectrum", "--edge-list", str(p), "--format", "json")
    assert code == 0, err
    assert json.loads(out)[0]["harary"] == 3.0


@pytest.mark.parametrize("text, message", [
    ("3 2\n0 x\n1 2\n", "error: expected edge line 'u v', got '0 x'\n"),
    ("2.5 1\n0 1\n", "error: expected header 'n m', got '2.5 1'\n"),
])
def test_edge_list_malformed_number_names_the_line(capsys, tmp_path, text, message):
    p = tmp_path / "g.edges"
    p.write_text(text)
    assert run(capsys, "spectrum", "--edge-list", str(p)) == (1, "", message)


def test_graph6_file_input(capsys, tmp_path):
    p = tmp_path / "g.g6"
    p.write_text(">>graph6<<C~\n")
    code, out, _ = run(capsys, "spectrum", "--graph6-file", str(p), "--alpha", "0.5", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["eigenvalues"] == [3.0, 1.0, 1.0, 1.0]


@pytest.mark.parametrize("text, count", [("Bg\nC~\n", 2), ("\n\n", 0)])
def test_graph6_file_must_hold_one_graph(capsys, tmp_path, text, count):
    p = tmp_path / "g.g6"
    p.write_text(text)
    code, out, err = run(capsys, "spectrum", "--graph6-file", str(p))
    assert code == 1
    assert out == ""
    assert f"holds {count} graph6 lines" in err


def test_output_to_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "spectrum",
        "--construct", "complete:4",
        "--alpha", "0",
        "--format", "json",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["n"] == 4


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
