"""Command-line interface: inputs, outputs, schemas and exit codes."""

import json

import pytest

from hararyspec import cli
from hararyspec.extremal import ExtremalReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_psd_table(capsys):
    code, out, err = run(capsys, "psd", "--construct", "wheel:5")
    assert code == 0, err
    first, second = out.splitlines()
    assert first.startswith("alpha0 = 0.300000000") and "(bisection), residual " in first
    assert second == "closed form (wheel): alpha0 = 0.3"


def test_psd_tolerance_option(capsys):
    code, out, _ = run(capsys, "psd", "--construct", "cycle:4", "--tol", "1e-6", "--format", "json")
    assert code == 0
    assert json.loads(out)["alpha0"] == pytest.approx(0.375, abs=1e-6)
    assert run(capsys, "psd", "--construct", "cycle:4", "--tol", "1e-13")[0] == 1


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


def test_options_a_subcommand_does_not_read_exit_one(capsys):
    # verify-extremal takes no graph input; only psd reads --tol
    verify = ("verify-extremal", "--n", "5", "--constraint", "vertex-connectivity", "--value", "2")
    assert run(capsys, *verify, "--graph6", "Bg")[0] == 1
    assert run(capsys, *verify, "--tol", "1e-9")[0] == 1
    assert run(capsys, "spectrum", "--graph6", "Bg", "--tol", "1e-9")[0] == 1
    assert run(capsys, "bounds", "--graph6", "Bg", "--tol", "1e-9")[0] == 1
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
    monkeypatch.setitem(cli._VERIFIERS, "vertex-connectivity", lambda n, v, a: _fake_report("refuted"))
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
    monkeypatch.setitem(cli._VERIFIERS, "vertex-connectivity", lambda n, v, a: _fake_report("tie"))
    code, _, _ = run(
        capsys,
        "verify-extremal",
        "--n", "5",
        "--constraint", "vertex-connectivity",
        "--value", "2",
        "--alpha", "0",
    )
    assert code == 3


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "spectrum")[0] == 1  # no input source
    assert run(capsys, "spectrum", "--construct", "nosuch:3")[0] == 1
    assert run(capsys, "spectrum", "--graph6", "Bg", "--alpha", "2")[0] == 1
    assert run(capsys, "spectrum", "--graph6", "C~~")[0] == 1
    assert run(capsys, "nosuchcommand")[0] == 1
    assert run(capsys, "spectrum", "--graph6", "Bg", "--construct", "path:3")[0] == 1


def test_edge_list_file_input(capsys, tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run(
        capsys, "spectrum", "--edge-list", str(p), "--alpha", "0", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)[0]["harary"] == 2.5


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
