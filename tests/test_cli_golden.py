"""CLI output contract: stdout, stderr and exit code of fixed invocations, byte for byte.

``tests/data/cli_golden.json`` maps each invocation below to its exit
code, its stderr text and the sha256 of its stdout (the full reports
would not fit a small data file).  The expectations are recorded output,
not recomputed values, so any change to a report's bytes fails here.
After a deliberate change to the output contract, rewrite the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and record the change in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from pathlib import Path

import pytest

from hararyspec import cli

DATA = Path(__file__).with_name("data") / "cli_golden.json"
COLUMNS = "80"  # argparse wraps its usage text to the terminal width

CONSTRUCTS = (
    "complete:5", "path:6", "cycle:7", "star:5", "wheel:6", "bipartite:2,3",
    "split:2,3", "turan:7,3", "kite:5,2", "multipartite:1,2,3", "complete:1",
)
# Six graphs of the graph-reports benchmark stream (seed 3), n = 11 to 24.
GRAPH6 = (
    "KKkGI{G?QOI@",
    "WFGAG_O?LQ?Ed?CAAKQcHO??@OC?@?@@Gd?Au@AO@`AD?D@",
    "Mie@dQ@ce?FGh_cI?",
    "PKCwos_dODGP\\?_zeCC?kpKO",
    "P??G?GA?CEc??_W?a??O??AG",
    "J}IW{^uMsn?",
)
FORMATS = ("json", "table")
# Weight lists that leave RD (alpha 0) and RQ/2 (alpha 1/2) out of the request,
# or repeat a weight.
EXTRA_ALPHAS = ("0.9", "0.25,0.25")
USAGE = (
    (),
    ("nothing",),
    ("psd",),
    ("psd", "--construct", "cycle:4", "--tol", "1e-9"),
    ("spectrum", "--graph6", "C~", "--format", "csv"),
    ("spectrum", "--graph6", "C~", "--construct", "path:3"),
    ("spectrum", "--graph6", ">>graph6<<C~\n", "--format", "json"),
    ("spectrum", "--graph6", "~??~"),
    ("spectrum", "--graph6", "B" + chr(20)),
    ("spectrum", "--graph6", "D"),
    ("spectrum", "--graph6", ">>graph6<<C~~"),
    ("spectrum", "--graph6", "B@"),
    ("spectrum", "--graph6", "?"),
    ("spectrum", "--graph6", "Bw"),
    ("spectrum", "--construct", "edgeless:3"),
    ("spectrum", "--construct", "bogus:3"),
    ("spectrum", "--construct", "path:3,4"),
    ("spectrum", "--construct", "cycle:2"),
    ("spectrum", "--graph6", "Bg", "--alpha", "1.5"),
    ("bounds", "--graph6", "Bg", "--alpha", ","),
    ("closed-form", "--graph6", "C~"),
    ("closed-form", "--construct", "path:4"),
    ("verify-extremal", "--n", "9", "--constraint", "chromatic-number", "--value", "3"),
    ("verify-extremal", "--n", "5", "--constraint", "girth", "--value", "3"),
    # argv shapes that leave the subcommand's parse with leftovers or send it to the root parser
    ("spectrum", "--construct", "path:3", "--bogus"),
    ("bounds", "--construct", "path:3", "extra"),
    ("spectrum", "--construct", "path:3", "--form", "json"),
    ("spectrum", "-h"),
    ("--format", "json", "spectrum", "--construct", "path:3"),
    ("-h",),
)


def _cases():
    for spec in CONSTRUCTS:
        for command in ("spectrum", "bounds", "psd", "closed-form"):
            for fmt in FORMATS:
                yield (command, "--construct", spec, "--alpha", "0,0.3,0.5,1", "--format", fmt)
    for text in GRAPH6:
        for command in ("spectrum", "bounds", "psd"):
            for fmt in FORMATS:
                yield (command, "--graph6", text, "--alpha", "0,0.25,0.5,0.75", "--format", fmt)
    for alphas in EXTRA_ALPHAS:
        for source in (("--construct", "complete:1"), ("--construct", "bipartite:2,3"),
                       ("--graph6", GRAPH6[0])):
            for command in ("spectrum", "bounds"):
                for fmt in FORMATS:
                    yield (command, *source, "--alpha", alphas, "--format", fmt)
    for constraint, value in (("vertex-connectivity", 2), ("edge-connectivity", 1),
                              ("chromatic-number", 3), ("independence-number", 2)):
        for fmt in FORMATS:
            yield ("verify-extremal", "--n", "5", "--constraint", constraint, "--value", str(value),
                   "--alpha", "0,0.25,0.8", "--format", fmt)
    yield from USAGE


CASES = list(_cases())


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr": err.getvalue(),
    }


def _key(argv):
    return json.dumps(argv)


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_bytes_match_golden(golden, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert _outcome(argv) == golden[_key(argv)]


def test_warm_reports_match_golden(golden, monkeypatch):
    # one process, graphs' bundles and solved blends cached across reports
    monkeypatch.setenv("COLUMNS", COLUMNS)
    reports = [argv for argv in CASES if argv and argv[0] in ("spectrum", "bounds", "psd", "closed-form")]
    order = reports * 2
    random.Random(27).shuffle(order)
    for argv in order:
        assert _outcome(argv) == golden[_key(argv)], argv


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    DATA.parent.mkdir(exist_ok=True)
    records = {_key(argv): _outcome(argv) for argv in CASES}
    DATA.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
