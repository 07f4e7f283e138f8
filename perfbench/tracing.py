"""In-memory spans recorded by the benchmark around its own calls into the
package, and the per-layer metrics aggregated from them.

A span is one dict: ``id``, ``name``, ``start``, ``end`` (perf_counter
seconds), ``parent`` (span id or None), ``op`` (op index or None),
``failed``, plus optional notes such as ``residual``. Nothing inside the
package is instrumented: every span wraps a call made from this
directory, so a layer's numbers count only the calls the benchmark
itself makes (not, say, the eigensolves inside ``alpha0_bisection``).
"""

from __future__ import annotations

import json
import time


class Tracer:
    """Collects spans in memory; ``write_spans`` dumps them as JSON lines."""

    def __init__(self):
        self.spans = []

    def record(self, name, start, end, op=None, parent=None, failed=False, **notes):
        span = {
            "id": len(self.spans) + 1,
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "op": op,
            "failed": failed,
        }
        span.update(notes)
        self.spans.append(span)
        return span["id"]

    def call(self, name, fn, *args, op=None, parent=None, note=None, **notes):
        """Run ``fn(*args)`` inside a span and return its result.

        ``note(result)`` may add fields to the span. An exception marks
        the span failed and propagates.
        """
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.record(name, start, time.perf_counter(), op, parent, True, **notes)
            raise
        end = time.perf_counter()
        if note is not None:
            notes.update(note(result))
        self.record(name, start, end, op, parent, False, **notes)
        return result


def merge_spans(groups):
    """Concatenate span lists from several processes, renumbering ids so
    they stay unique; ``groups`` maps a process tag to its spans."""
    merged = []
    for tag, spans in groups.items():
        offset = len(merged)
        for span in spans:
            span = dict(span, id=span["id"] + offset, process=tag)
            if span["parent"] is not None:
                span["parent"] += offset
            merged.append(span)
    return merged


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


# Per-layer metrics as (span name, stat). ``calls`` counts
# spans, ``busy_s`` sums their durations, ``failed`` counts the ones that
# raised, ``residual_max`` is the largest Jacobi residual reported.
LAYER_STATS = (
    ("graph6.parse_graph6", "calls"),
    ("graph6.parse_graph6", "busy_s"),
    ("graphs.all_pairs_distances", "calls"),
    ("graphs.all_pairs_distances", "busy_s"),
    ("matrices.build_bundle", "calls"),
    ("matrices.build_bundle", "busy_s"),
    ("matrices.rd_alpha", "calls"),
    ("matrices.rd_alpha", "busy_s"),
    ("eigen.sym_eigen", "calls"),
    ("eigen.sym_eigen", "busy_s"),
    ("eigen.sym_eigen", "residual_max"),
    ("bounds.bound_report", "calls"),
    ("bounds.bound_report", "busy_s"),
    ("bounds.rq_relation_bounds", "calls"),
    ("bounds.rq_relation_bounds", "busy_s"),
    ("bounds.bipartite_bound", "calls"),
    ("bounds.bipartite_bound", "busy_s"),
    ("bounds.bipartite_bound", "failed"),
    ("psd.alpha0_bisection", "calls"),
    ("psd.alpha0_bisection", "busy_s"),
    ("enumeration.enumerate_connected_graphs", "calls"),
    ("enumeration.enumerate_connected_graphs", "busy_s"),
    ("enumeration.canonical_form", "calls"),
    ("enumeration.canonical_form", "busy_s"),
    ("invariants.graph_invariants", "calls"),
    ("invariants.graph_invariants", "busy_s"),
    ("extremal.verify", "calls"),
    ("extremal.verify", "busy_s"),
    ("cli.main", "calls"),
    ("cli.main", "busy_s"),
)

STAT_UNITS = {"calls": "count", "busy_s": "s", "failed": "count", "residual_max": "norm"}

# Metrics that are not a single layer's stat.
EXTRA_METRICS = {
    "enumeration.classes": "count",
    "cli.overhead_frac": "ratio",
    "trace.overhead_s": "s",
}


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = {f"{layer}.{stat}": STAT_UNITS[stat] for layer, stat in LAYER_STATS}
    names.update(EXTRA_METRICS)
    return names


def layer_metrics(spans, traced_wall_s, untraced_wall_s):
    """Aggregate spans into the per-layer metrics.

    ``cli.overhead_frac`` is 1 - (replayed layer time) / (cli.main time):
    the share of CLI time that the minimal public-layer replay of the
    same ops does not need. Probe spans (a layer timed on its own although
    a later call repeats it internally) are left out of the replay time.
    """
    values = {}
    for layer, stat in LAYER_STATS:
        mine = [s for s in spans if s["name"] == layer]
        if stat == "calls":
            value = len(mine)
        elif stat == "busy_s":
            value = sum(s["end"] - s["start"] for s in mine)
        elif stat == "failed":
            value = sum(1 for s in mine if s["failed"])
        else:
            value = max((s.get("residual", 0.0) for s in mine), default=0.0)
        values[f"{layer}.{stat}"] = value
    values["enumeration.classes"] = sum(
        s.get("classes", 0) for s in spans if s["name"] == "enumeration.enumerate_connected_graphs"
    )
    replay_roots = {s["id"] for s in spans if s["name"] == "replay"}
    replayed = sum(
        s["end"] - s["start"]
        for s in spans
        if s["parent"] in replay_roots and not s.get("probe", False)
    )
    cli_time = values["cli.main.busy_s"]
    values["cli.overhead_frac"] = 1.0 - replayed / cli_time if cli_time > 0 else 0.0
    values["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return values
