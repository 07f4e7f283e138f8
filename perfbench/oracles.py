"""Checks of the package's outputs that share no code with it.

Graphs are decoded with networkx, distances come from networkx BFS,
and every spectrum from ``numpy.linalg.eigvalsh``; nothing here imports
``hararyspec``. Each ``check_*`` returns a list of problems, empty when
the output is right.
"""

from __future__ import annotations

import json
from collections import Counter

import networkx as nx
import numpy as np

EIG_TOL = 1e-8  # spectra against eigvalsh
RHO_TOL = 1e-9  # radii, bound sandwich, alpha0 certificate
PSD_TOL = 1e-9  # the CLI's default bisection tolerance


class GraphFacts:
    """Everything the oracles need about one input graph."""

    def __init__(self, text):
        g = nx.from_graph6_bytes(text.encode("ascii"))
        n = g.number_of_nodes()
        d = np.zeros((n, n))
        for u, lengths in nx.all_pairs_shortest_path_length(g):
            for v, dist in lengths.items():
                d[u, v] = dist
        self.n = n
        self.rd = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
        self.tr = self.rd.sum(axis=1)
        self.edges = g.number_of_edges()
        self.bipartite = nx.is_bipartite(g)
        self.parts = None
        if self.bipartite:
            top, bottom = nx.bipartite.sets(g)
            self.parts = (len(top), len(bottom))

    def blend(self, alpha):
        return alpha * np.diag(self.tr) + (1.0 - alpha) * self.rd

    def eigenvalues(self, alpha):
        """Blend eigenvalues in descending order."""
        return np.linalg.eigvalsh(self.blend(alpha))[::-1]


def _json_reports(out):
    try:
        return json.loads(out), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


def _check_alphas(reports, facts, alphas):
    if not isinstance(reports, list) or len(reports) != len(alphas):
        return [f"expected {len(alphas)} reports, got {reports!r:.80}"]
    problems = []
    for rep, a in zip(reports, alphas):
        if rep.get("n") != facts.n or abs(rep.get("alpha", -1.0) - a) > 1e-12:
            problems.append(f"report header n={rep.get('n')} alpha={rep.get('alpha')} != {facts.n}, {a}")
    return problems


def check_spectrum(out, facts, alphas):
    reports, problems = _json_reports(out)
    if problems:
        return problems
    problems = _check_alphas(reports, facts, alphas)
    if problems:
        return problems
    harary = facts.tr.sum() / 2.0
    for rep, a in zip(reports, alphas):
        want = facts.eigenvalues(a)
        got = np.asarray(rep["eigenvalues"], dtype=float)
        if got.shape != want.shape or np.abs(got - want).max() > EIG_TOL:
            problems.append(f"alpha={a}: eigenvalues differ from eigvalsh by more than {EIG_TOL}")
        if abs(rep["harary"] - harary) > RHO_TOL * max(1.0, harary):
            problems.append(f"alpha={a}: harary {rep['harary']} != {harary}")
        energy = np.abs(want - 2.0 * a * harary / facts.n).sum()
        if abs(rep["energy"] - energy) > EIG_TOL * facts.n:
            problems.append(f"alpha={a}: energy {rep['energy']} != {energy}")
    return problems


def check_bounds(out, facts, alphas):
    """rho matches eigvalsh; every applicable bound sandwiches rho; the
    bipartite record is present exactly on bipartite graphs and is tight
    exactly when the graph has a*b edges."""
    reports, problems = _json_reports(out)
    if problems:
        return problems
    problems = _check_alphas(reports, facts, alphas)
    if problems:
        return problems
    for rep, a in zip(reports, alphas):
        rho = facts.eigenvalues(a)[0]
        if abs(rep["rho"] - rho) > RHO_TOL:
            problems.append(f"alpha={a}: rho {rep['rho']} != eigvalsh {rho}")
        bipartite_records = [r for r in rep["records"] if r["name"] == "bipartite_upper"]
        if len(bipartite_records) != (1 if facts.bipartite else 0):
            problems.append(
                f"alpha={a}: {len(bipartite_records)} bipartite records, bipartite={facts.bipartite}"
            )
        for rec in rep["records"]:
            if rec["applicable"]:
                if rec["kind"] == "lower" and rec["value"] > rho + RHO_TOL:
                    problems.append(f"alpha={a}: lower bound {rec['name']}={rec['value']} > rho {rho}")
                if rec["kind"] == "upper" and rec["value"] < rho - RHO_TOL:
                    problems.append(f"alpha={a}: upper bound {rec['name']}={rec['value']} < rho {rho}")
            if rec["name"] == "bipartite_upper" and facts.bipartite:
                tight = facts.edges == facts.parts[0] * facts.parts[1]
                if rec["tight"] is not tight:
                    problems.append(f"alpha={a}: tight={rec['tight']} but a*b==m is {tight}")
    return problems


def lambda_min(facts, alpha):
    return np.linalg.eigvalsh(facts.blend(alpha))[0]


def check_psd(out, facts):
    """alpha0 is certified by eigvalsh: PSD at alpha0 and not PSD at
    alpha0 - 2*tol."""
    payload, problems = _json_reports(out)
    if problems:
        return problems
    if payload.get("n") != facts.n:
        return [f"n={payload.get('n')} != {facts.n}"]
    alpha0 = payload["alpha0"]
    if not 0.0 < alpha0 <= 0.5:
        return [f"alpha0={alpha0} outside (0, 1/2]"]
    if lambda_min(facts, alpha0) < -RHO_TOL:
        problems.append(f"blend not PSD at alpha0={alpha0}: lambda_min {lambda_min(facts, alpha0):.3e}")
    if lambda_min(facts, alpha0 - 2.0 * PSD_TOL) >= 0.0:
        problems.append(f"blend already PSD at alpha0 - 2*tol; alpha0={alpha0} is not the threshold")
    regular = facts.tr.max() - facts.tr.min() <= 1e-8
    if regular != ("closed_form" in payload):
        problems.append(f"closed_form present={'closed_form' in payload} but transmission regular={regular}")
    return problems


def check_cli_op(command, out, facts, alphas):
    alpha_values = [float(a) for a in alphas.split(",")]
    if command == "spectrum":
        return check_spectrum(out, facts, alpha_values)
    if command == "bounds":
        return check_bounds(out, facts, alpha_values)
    return check_psd(out, facts)


# -- extremal sweep -------------------------------------------------------------


def atlas_class_counts(max_n):
    """Connected classes per order 1..max_n, from the networkx atlas."""
    counts = Counter(
        g.number_of_nodes()
        for g in nx.graph_atlas_g()
        if g.number_of_nodes() >= 1 and nx.is_connected(g)
    )
    return [counts[k] for k in range(1, max_n + 1)]


def predicted_graph(n, constraint, value):
    """The predicted maximizer, built with networkx."""
    if constraint in ("vertex-connectivity", "edge-connectivity"):
        # K_r joined to K_1 + K_{n-r-1}: K_n without the edges from
        # vertex r to the second clique.
        g = nx.complete_graph(n)
        g.remove_edges_from((value, v) for v in range(value + 1, n))
        return g
    if constraint == "chromatic-number":
        return nx.turan_graph(n, value)
    # k independent vertices joined to K_{n-k}.
    return nx.complete_multipartite_graph(value, *([1] * (n - value)))


def _independence_number(g):
    return max(len(c) for c in nx.find_cliques(nx.complement(g)))


INVARIANTS = {
    "vertex-connectivity": nx.node_connectivity,
    "edge-connectivity": nx.edge_connectivity,
    "independence-number": _independence_number,
}


class SweepFacts:
    """Expected class counts and, per (constraint, value), the predicted
    maximizer."""

    def __init__(self, n, ops):
        self.n = n
        self.class_counts = atlas_class_counts(n)
        self.predicted = {}
        for constraint, value, _ in ops:
            if (constraint, value) not in self.predicted:
                g = predicted_graph(n, constraint, value)
                invariant = INVARIANTS.get(constraint)
                if invariant is not None and invariant(g) != value:
                    raise RuntimeError(f"oracle graph for {constraint}={value} is wrong")
                self.predicted[(constraint, value)] = g


def check_verify(report, facts, constraint, value, alpha):
    """Verdict confirmed, the single maximizer is isomorphic to the
    networkx-built prediction, and rho_max is its eigvalsh radius."""
    if report is None:
        return ["no report"]
    problems = []
    if (report["n"], report["constraint"], report["value"]) != (facts.n, constraint, value):
        problems.append(f"report is for {report['n']}/{report['constraint']}/{report['value']}")
    if abs(report["alpha"] - alpha) > 1e-12:
        problems.append(f"report alpha {report['alpha']} != {alpha}")
    if report["verdict"] != "confirmed":
        problems.append(f"verdict {report['verdict']}")
    if len(report["maximizers"]) != 1 or report["maximizers"][0] != report["predicted"]:
        problems.append(f"maximizers {report['maximizers']} != [predicted {report['predicted']}]")
        return problems
    g = nx.from_graph6_bytes(report["maximizers"][0].encode("ascii"))
    if not nx.is_isomorphic(g, facts.predicted[(constraint, value)]):
        problems.append("maximizer is not the predicted graph")
    rho = GraphFacts(report["maximizers"][0]).eigenvalues(alpha)[0]
    if abs(report["rho_max"] - rho) > RHO_TOL:
        problems.append(f"rho_max {report['rho_max']} != eigvalsh {rho}")
    return problems


def check_class_counts(counts, facts):
    if counts != facts.class_counts:
        return [f"class counts {counts} != atlas {facts.class_counts}"]
    return []
