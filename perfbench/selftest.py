"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Runs every workload end to end on tiny inputs, untraced and traced, and
checks that every oracle accepts a real output and rejects the same
output deliberately corrupted (an eigenvalue shifted by 1e-6, a flipped
verdict, and so on). Prints one line per check and exits 0 when all
pass.
"""

from __future__ import annotations

import copy
import json
import math
import sys
import time

import oracles
import run
import tracing
import workloads

SEED = 7
FAILURES = []

IDLE_LAYERS = {
    "extremal-cold": ["psd.alpha0_bisection"],
    "graph-reports": ["enumeration.enumerate_connected_graphs", "invariants.graph_invariants"],
}


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def end_to_end():
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            metrics, units, checker, _ = run.measure(workload, SEED, 0, trace, tiny=True)
            want = tracing.per_layer_names() if trace else run.END_TO_END_UNITS
            label = f"{workload} trace {trace}"
            expect(set(metrics) == set(want) and units == want, f"{label}: reports every metric")
            expect(all(math.isfinite(v) for v in metrics.values()), f"{label}: metrics are finite")
            expect(not checker.wrong, f"{label}: every output passes its oracle {checker.wrong[:3]}")
            if workload == "graph-reports":
                # The n = 12 tree hits the canonical-labelling budget in bounds.
                expect(
                    any("bounds exit 4 on bipartite" in kind for kind in checker.failures),
                    f"{label}: the bipartite budget failure is counted",
                )
            else:
                expect(checker.failed == 0, f"{label}: no op fails")
            if trace:
                idle = IDLE_LAYERS[workload]
                expect(
                    all(metrics[f"{layer}.calls"] == 0 for layer in idle),
                    f"{label}: idle layers {idle} record no calls",
                )


def _pass(workload):
    ops = workloads.make_ops(workload, SEED, tiny=True)
    result = run.spawn(workload, SEED, "untraced", True, time.perf_counter() + 120)
    return ops, result


def rejects(what, check, good, corruptions):
    """``check`` finds no problem in ``good`` and some in every corrupted copy."""
    expect(not check(good), f"{what}: real output accepted")
    for label, corrupt in corruptions:
        bad = copy.deepcopy(good)
        corrupt(bad)
        expect(bool(check(bad)), f"{what}: {label} rejected")


def _shift(key, delta, index=0):
    def corrupt(out):
        out[index][key] += delta
    return corrupt


def _lower_bound_above_rho(out):
    rec = next(r for r in out[0]["records"] if r["kind"] == "lower" and r["applicable"])
    rec["value"] = out[0]["rho"] + 1e-6


def _flip_tight(out):
    rec = next(r for r in out[0]["records"] if r["name"] == "bipartite_upper")
    rec["tight"] = not rec["tight"]


def _drop_bipartite(out):
    out[0]["records"] = [r for r in out[0]["records"] if r["name"] != "bipartite_upper"]


def _shift_eigenvalue(out):
    out[1]["eigenvalues"][-1] += 1e-6


def corrupted_cli():
    ops, result = _pass("graph-reports")
    # A bipartite graph whose bounds op succeeds (the n = 10 tree), so the
    # bipartite record and its tight flag are there to corrupt.
    i = next(
        k
        for k, op in enumerate(ops)
        if op[0] == "bounds" and result["ops"][k]["rc"] == 0 and oracles.GraphFacts(op[1]).bipartite
    )
    _, text, alphas = ops[i]
    facts, alpha_values = oracles.GraphFacts(text), [float(a) for a in alphas.split(",")]
    rejects(
        "bounds",
        lambda out: oracles.check_bounds(json.dumps(out), facts, alpha_values),
        json.loads(result["ops"][i]["out"]),
        [
            ("rho + 1e-6", _shift("rho", 1e-6)),
            ("lower bound above rho", _lower_bound_above_rho),
            ("flipped tight flag", _flip_tight),
            ("missing bipartite record", _drop_bipartite),
        ],
    )

    # ops come in (spectrum, bounds, psd) triples per graph; use the first graph.
    (_, text, alphas), spectrum, psd = ops[0], result["ops"][0], result["ops"][2]
    facts, alpha_values = oracles.GraphFacts(text), [float(a) for a in alphas.split(",")]
    rejects(
        "spectrum",
        lambda out: oracles.check_spectrum(json.dumps(out), facts, alpha_values),
        json.loads(spectrum["out"]),
        [("eigenvalue + 1e-6", _shift_eigenvalue), ("energy + 1e-6", _shift("energy", 1e-6, 2))],
    )
    rejects(
        "psd",
        lambda out: oracles.check_psd(json.dumps(out[0]), facts),
        [json.loads(psd["out"])],
        [("alpha0 + 1e-6", _shift("alpha0", 1e-6)), ("alpha0 - 1e-6", _shift("alpha0", -1e-6))],
    )


def corrupted_sweep():
    ops, result = _pass("extremal-cold")
    facts = oracles.SweepFacts(workloads.extremal_order(tiny=True), ops)
    rejects(
        "class counts",
        lambda out: oracles.check_class_counts(out[0], facts),
        [result["class_counts"]],
        [("last count + 1", _shift(-1, 1))],
    )
    (constraint, value, alpha), report = ops[-1], result["ops"][-1]["report"]
    other = next(r["report"] for r in result["ops"] if r["report"]["predicted"] != report["predicted"])

    def wrong_maximizer(out):
        out[0].update(maximizers=other["maximizers"], predicted=other["maximizers"][0])

    rejects(
        "verify",
        lambda out: oracles.check_verify(out[0], facts, constraint, value, alpha),
        [report],
        [
            ("flipped verdict", lambda out: out[0].update(verdict="refuted")),
            ("rho_max + 1e-6", _shift("rho_max", 1e-6)),
            ("wrong maximizer", wrong_maximizer),
        ],
    )


def main():
    end_to_end()
    corrupted_cli()
    corrupted_sweep()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
