"""hararyspec benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
Every pass runs in a fresh worker interpreter (``worker.py``), so the
package's caches start empty as they do for every CLI invocation, and
its set-up (interpreter start, import, input generation) is timed from
outside. Every op's output is checked here against the oracles in
``oracles.py``, which share no code with the package.

``--trace 0`` runs untraced passes for about ``--seconds`` (at least
three passes) and reports the end-to-end metrics: ``setup_s`` (median over
at least seven set-ups), ``wall_s`` (the fastest pass), ``op_p50_ms`` and
``op_p90_ms`` (over the ops of a pass, each op's latency being its
fastest time over the passes), ``ok_frac`` (ops that completed and
passed their oracle, over ops attempted; 1 - failed_frac) and
``peak_rss_mb`` (median worker peak RSS). Times are best-of-passes
because a shared host's speed moves in bursts of seconds to minutes; the
fastest of a few passes moves least with them.

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics aggregated from the spans (see ``tracing.py``), plus
the tracing overhead. Spans are written to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
same numbers for people, with the environment. Exit status is 0 when
the benchmark ran (``correct`` says whether the outputs were right), and
non-zero without a result when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

# One BLAS thread in every process: load comes from one worker at a time.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

MIN_PASSES = 3
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# -- environment ------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": f"OPENBLAS_NUM_THREADS={BLAS_THREADS}",
        "load": "one worker process at a time, closed loop (next op after the previous returns)",
    }


# -- workers ----------------------------------------------------------------------


def spawn(workload, seed, mode, tiny, deadline):
    """Run one worker; return its result with ``setup_s`` (spawn to ready)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        # The kill timer bounds the blocking reads below.
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if time.perf_counter() >= deadline:
        raise BenchError(f"{mode} worker did not finish in time")
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"{mode} worker failed with exit status {proc.returncode}")
    result = json.loads(out)
    result["setup_s"] = setup_s
    result["pass_s"] = time.perf_counter() - start
    return result


# -- checking ---------------------------------------------------------------------


class Checker:
    """Oracle facts for one workload's ops, and the tally of checked ops."""

    def __init__(self, workload, ops, tiny):
        self.workload = workload
        self.ops = ops
        if workload == "extremal-cold":
            self.sweep = oracles.SweepFacts(workloads.extremal_order(tiny), ops)
        else:
            self.graphs = {text: oracles.GraphFacts(text) for _, text, _ in ops}
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # outputs that failed an oracle: these make the run incorrect
        self.failures = Counter()  # failed ops by kind

    def check(self, result):
        if result["digest"] != workloads.ops_digest(self.ops):
            raise BenchError("worker generated different inputs from the same seed")
        if self.workload == "extremal-cold":
            self.wrong += oracles.check_class_counts(result["class_counts"], self.sweep)
        for op, res in zip(self.ops, result["ops"], strict=True):
            self.attempted += 1
            kind, problems = self._check_op(op, res)
            if kind is not None:
                self.failed += 1
                self.failures[kind] += 1
            self.wrong += problems

    def _check_op(self, op, res):
        if res["error"] is not None:
            return f"{op[0]} raised {res['error'].split('(')[0]}", []
        if self.workload == "extremal-cold":
            constraint, value, alpha = op
            problems = oracles.check_verify(res["report"], self.sweep, constraint, value, alpha)
        else:
            command, text, alphas = op
            facts = self.graphs[text]
            if res["rc"] != 0:
                bipartite = "bipartite" if facts.bipartite else "non-bipartite"
                return f"{command} exit {res['rc']} on {bipartite} n={facts.n}", []
            problems = oracles.check_cli_op(command, res["out"], facts, alphas)
        problems = [f"{op[:2]}: {p}" for p in problems]
        return ("wrong output" if problems else None), problems


# -- metrics ----------------------------------------------------------------------


def percentile_ms(latencies, k):
    """k-th decile cut point of the latencies, in ms."""
    return statistics.quantiles(latencies, n=10, method="inclusive")[k - 1] * 1e3


def end_to_end(passes, setups, checker):
    # Each op's latency is its fastest time over the passes, and the
    # percentiles are taken over ops: a burst of host noise then slows
    # one sample of an op rather than the op's latency.
    latencies = [
        min(samples) for samples in zip(*([op["lat"] for op in p["ops"]] for p in passes))
    ]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": min(p["wall_s"] for p in passes),
        "op_p50_ms": percentile_ms(latencies, 5),
        "op_p90_ms": percentile_ms(latencies, 9),
        "ok_frac": (checker.attempted - checker.failed) / checker.attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }, {
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "setups": len(setups),
        "ops_per_pass": len(latencies),
    }


def another_pass(passes, elapsed, seconds):
    """At least MIN_PASSES, so every op has that many samples to take the
    fastest of, even where a pass is longer than ``seconds / MIN_PASSES``;
    then another pass while it should end, on average, by ``seconds``,
    and never one that could overrun the run limit."""
    if len(passes) < MIN_PASSES:
        return True
    last = passes[-1]["pass_s"]
    return elapsed + last / 2 < seconds and elapsed + 2 * last < RUN_LIMIT_S


def measure(workload, seed, seconds, trace, tiny=False):
    """Run the workload; return (metrics, units, checker, details)."""
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    ops = workloads.make_ops(workload, seed, tiny)
    checker = Checker(workload, ops, tiny)
    if not trace:
        passes = []
        while another_pass(passes, time.perf_counter() - started, seconds):
            passes.append(spawn(workload, seed, "untraced", tiny, deadline))
            checker.check(passes[-1])
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, "setup", tiny, deadline)["setup_s"])
        metrics, details = end_to_end(passes, setups, checker)
        units = END_TO_END_UNITS
    else:
        untraced = spawn(workload, seed, "untraced", tiny, deadline)
        checker.check(untraced)
        traced = spawn(workload, seed, "traced", tiny, deadline)
        checker.check(traced)
        groups = {"traced": traced["spans"]}
        if workload == "extremal-cold":
            groups["replay"] = spawn(workload, seed, "replay", tiny, deadline)["spans"]
        spans = tracing.merge_spans(groups)
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
        tracing.write_spans(span_file, spans)
        metrics = tracing.layer_metrics(spans, traced["wall_s"], untraced["wall_s"])
        units = tracing.per_layer_names()
        details = {
            "spans": len(spans),
            "span_file": os.path.relpath(span_file, ROOT),
            "untraced_wall_s": untraced["wall_s"],
            "traced_wall_s": traced["wall_s"],
        }
    return metrics, units, checker, details


def report(workload, seed, trace, metrics, units, checker, details):
    env = environment(workload, seed)
    print(f"hararyspec benchmark: workload {workload}, seed {seed}, trace {trace}")
    for key, value in env.items():
        print(f"  {key}: {value}")
    for key, value in details.items():
        print(f"  {key}: {value}")
    failed_frac = checker.failed / checker.attempted
    print(f"  ops: {checker.attempted} attempted, {checker.failed} failed")
    for kind, count in sorted(checker.failures.items()):
        print(f"    {count} x {kind}")
    for problem in checker.wrong[:20]:
        print(f"  WRONG: {problem}")
    # failed_frac is printed but not reported: it is 0 on most workloads,
    # and ok_frac = 1 - failed_frac carries the same number.
    for name, value in dict(metrics, failed_frac=failed_frac).items():
        print(f"  {name:<44} {value:>16.6g} {units.get(name, 'ratio')}")
    result = {
        "correct": not checker.wrong,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(dict(result, environment=env, details=details, failed_frac=failed_frac,
                       failures=dict(checker.failures), wrong=checker.wrong), handle, indent=2)
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description="hararyspec benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hararyspec", "__init__.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'hararyspec')}", file=sys.stderr)
        return 2
    try:
        measured = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, args.trace, *measured)
    return 0


if __name__ == "__main__":
    sys.exit(main())
