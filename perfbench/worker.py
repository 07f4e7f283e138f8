"""One benchmark pass in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand. The worker imports
the package from ``src/``, generates its ops from the seed, prints
``ready`` (the parent's set-up clock stops there), then runs in one of
these modes and writes one JSON object to stdout:

* ``setup``: stop after ``ready``;
* ``untraced``: the timed phase, with no tracing;
* ``traced``: the same timed phase with a span per op; for the CLI
  workloads each op is followed by its replay as the minimal
  public-layer calls that produce its output, each in its own span (the
  replay time is left out of ``wall_s``);
* ``replay``: (extremal-cold) the sweep replayed layer by layer in a
  fresh interpreter, so enumeration and the catalogue start cold.

Outputs are returned raw; the parent checks them against the oracles.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (sibling module; the script directory is on sys.path)
from tracing import Tracer  # noqa: E402

from hararyspec import cli, extremal  # noqa: E402
from hararyspec.bounds import bipartite_bound, bound_report, rq_relation_bounds  # noqa: E402
from hararyspec.eigen import sym_eigen  # noqa: E402
from hararyspec.enumeration import canonical_form, enumerate_connected_graphs  # noqa: E402
from hararyspec.errors import BudgetError, Graph6Error, NotConnectedError  # noqa: E402
from hararyspec.graph6 import parse_graph6  # noqa: E402
from hararyspec.graphs import (  # noqa: E402
    all_pairs_distances,
    complete,
    edgeless,
    join,
    reciprocal_transmissions,
    turan,
)
from hararyspec.invariants import bipartition, graph_invariants  # noqa: E402
from hararyspec.matrices import build_bundle, rd_alpha  # noqa: E402
from hararyspec.psd import alpha0_bisection, alpha0_transmission_regular  # noqa: E402

VERIFIERS = {
    "vertex-connectivity": extremal.verify_vertex_connectivity_extremal,
    "edge-connectivity": extremal.verify_edge_connectivity_extremal,
    "chromatic-number": extremal.verify_chromatic_extremal,
    "independence-number": extremal.verify_independence_extremal,
}
PSD_TOL = 1e-9  # the CLI default, which the ops use


def peak_rss_mb():
    """Peak resident memory of this process since it started.

    ``ru_maxrss`` survives ``exec``, so in a worker forked from a larger
    parent it reports the parent's size; ``VmHWM`` belongs to the new
    image alone.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- timed phases -------------------------------------------------------------


def run_verify_ops(n, ops, tracer):
    results = []
    for i, (constraint, value, alpha) in enumerate(ops):
        start = time.perf_counter()
        try:
            report, error = VERIFIERS[constraint](n, value, alpha).to_json(), None
        except Exception as exc:  # a failed op is counted, the sweep goes on
            report, error = None, repr(exc)
        end = time.perf_counter()
        if tracer is not None:
            tracer.record("extremal.verify", start, end, op=i, failed=error is not None)
        results.append({"lat": end - start, "report": report, "error": error})
    return results


def run_cli_ops(ops, tracer):
    results = []
    for i, (command, text, alphas) in enumerate(ops):
        argv = [command, "--graph6", text, "--alpha", alphas, "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                main_start = time.perf_counter()
                rc = cli.main(argv)
                main_end = time.perf_counter()
            error = None
        except Exception as exc:  # a failed op is counted, the stream goes on
            main_end = time.perf_counter()
            rc, error = None, repr(exc)
        end = time.perf_counter()
        if tracer is not None:
            root = tracer.record("op", start, end, op=i)
            tracer.record("cli.main", main_start, main_end, op=i, parent=root, failed=rc != 0)
            # Replayed right away, at the same machine speed as the CLI call.
            replay_cli_op(tracer, i, command, text, alphas)
        results.append(
            {"lat": end - start, "rc": rc, "out": out.getvalue(), "err": err.getvalue(), "error": error}
        )
    return results


# -- replays --------------------------------------------------------------------


def _eigen_note(spectrum):
    return {"residual": float(spectrum.residual), "n": int(spectrum.values.shape[0])}


def _blend_eigen(tr, bundle, alpha, op, parent):
    m = tr.call("matrices.rd_alpha", rd_alpha, bundle, alpha, op=op, parent=parent)
    return tr.call("eigen.sym_eigen", sym_eigen, m, op=op, parent=parent, note=_eigen_note)


def _bundle(tr, g, op, parent):
    # build_bundle runs the BFS itself; the probe times that layer alone
    # and is left out of the replay total.
    tr.call("graphs.all_pairs_distances", all_pairs_distances, g, op=op, parent=parent, probe=True)
    return tr.call("matrices.build_bundle", build_bundle, g, op=op, parent=parent)


def replay_cli_op(tr, op, command, text, alphas):
    """The public-layer calls one CLI op needs, without the CLI's repeats:
    one bundle per graph, one eigensolve per alpha, one bipartition."""
    start = time.perf_counter()
    root = tr.record("replay", start, start, op=op)
    alpha_values = [float(a) for a in alphas.split(",")]
    try:
        g = tr.call("graph6.parse_graph6", parse_graph6, text, op=op, parent=root)
        if command == "spectrum":
            bundle = _bundle(tr, g, op, root)
            for a in alpha_values:
                _blend_eigen(tr, bundle, a, op, root)
        elif command == "bounds":
            bundle = _bundle(tr, g, op, root)
            is_bipartite = tr.call("invariants.bipartition", bipartition, g, op=op, parent=root)[0]
            for a in alpha_values:
                _blend_eigen(tr, bundle, a, op, root)
                tr.call("bounds.bound_report", bound_report, g, a, op=op, parent=root)
                tr.call("bounds.rq_relation_bounds", rq_relation_bounds, g, a, op=op, parent=root)
                if is_bipartite:
                    tr.call("bounds.bipartite_bound", bipartite_bound, g, a, op=op, parent=root)
        else:
            tr.call("psd.alpha0_bisection", alpha0_bisection, g, PSD_TOL, op=op, parent=root)
            trans = tr.call(
                "graphs.reciprocal_transmissions", reciprocal_transmissions, g, op=op, parent=root
            )
            if trans.max() - trans.min() <= 1e-8:
                tr.call(
                    "psd.alpha0_transmission_regular",
                    alpha0_transmission_regular,
                    g,
                    op=op,
                    parent=root,
                )
        failed = False
    except (BudgetError, Graph6Error, NotConnectedError, ValueError):  # the CLI exits non-zero
        failed = True
    span = tr.spans[root - 1]
    span["end"] = time.perf_counter()
    span["failed"] = failed


def _predicted(n, constraint, value):
    if constraint in ("vertex-connectivity", "edge-connectivity"):
        return extremal.build_kite(n, value)
    if constraint == "chromatic-number":
        return turan(n, value)
    return join(edgeless(value), complete(n - value))


def replay_sweep(tr, n, ops):
    """The extremal sweep as public-layer calls: enumerate the classes,
    catalogue them (canonical form and invariants), one radius per class
    per alpha, and the predicted graph's canonical form per op."""
    start = time.perf_counter()
    root = tr.record("replay", start, start)
    classes = tr.call(
        "enumeration.enumerate_connected_graphs",
        enumerate_connected_graphs,
        n,
        parent=root,
        note=lambda cs: {"classes": len(cs)},
    )
    for g in classes:
        tr.call("enumeration.canonical_form", canonical_form, g, parent=root)
        tr.call("invariants.graph_invariants", graph_invariants, g, parent=root)
    for alpha in dict.fromkeys(alpha for _, _, alpha in ops):
        for g in classes:
            bundle = _bundle(tr, g, None, root)
            _blend_eigen(tr, bundle, alpha, None, root)
    for i, (constraint, value, _) in enumerate(ops):
        predicted = _predicted(n, constraint, value)
        tr.call("enumeration.canonical_form", canonical_form, predicted, op=i, parent=root)
    tr.spans[root - 1]["end"] = time.perf_counter()


# -- entry point ------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced", "replay"), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    ops = workloads.make_ops(args.workload, args.seed, args.tiny)
    print("ready", flush=True)
    result = {"digest": workloads.ops_digest(ops)}
    if args.mode == "setup":
        print(json.dumps(result), flush=True)
        return 0

    n = workloads.extremal_order(args.tiny)
    tracer = Tracer() if args.mode in ("traced", "replay") else None
    if args.mode == "replay":
        if args.workload != "extremal-cold":
            parser.error("replay mode is for extremal-cold; CLI workloads replay in traced mode")
        replay_sweep(tracer, n, ops)
    else:
        start = time.perf_counter()
        if args.workload == "extremal-cold":
            results = run_verify_ops(n, ops, tracer)
        else:
            results = run_cli_ops(ops, tracer)
        replayed = 0.0
        if tracer is not None:
            replayed = sum(sp["end"] - sp["start"] for sp in tracer.spans if sp["name"] == "replay")
        result["wall_s"] = time.perf_counter() - start - replayed
        result["peak_rss_mb"] = peak_rss_mb()
        result["ops"] = results
        if args.workload == "extremal-cold":
            result["class_counts"] = [len(enumerate_connected_graphs(k)) for k in range(1, n + 1)]
    if tracer is not None:
        result["spans"] = tracer.spans
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
