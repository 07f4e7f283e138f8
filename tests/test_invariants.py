"""Exact invariants against plain subset-enumeration oracles."""

import hashlib
import random
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hararyspec import (
    Graph,
    bipartition,
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected_graphs,
    graph_invariants,
    path,
    star,
    wheel,
)
from hararyspec import invariants
from hararyspec.extremal import _order
from hararyspec.graph6 import _pack_graph6
from hararyspec.invariants import GraphInvariants, _subset_invariants

from conftest import (
    brute_chromatic_number,
    brute_edge_connectivity,
    brute_independence_number,
    brute_vertex_connectivity,
    make_paw,
    nx_graph,
    random_edges,
)

# Chromatic numbers of the connected classes per order.  The chi <= 2
# counts, 1, 1, 1, 3, 5, 17, 44, 182, are the connected bipartite graphs
# (OEIS A005142).
CHROMATIC_HISTOGRAMS = {
    1: {1: 1},
    2: {2: 1},
    3: {2: 1, 3: 1},
    4: {2: 3, 3: 2, 4: 1},
    5: {2: 5, 3: 12, 4: 3, 5: 1},
    6: {2: 17, 3: 64, 4: 26, 5: 4, 6: 1},
    7: {2: 44, 3: 475, 4: 282, 5: 46, 6: 5, 7: 1},
    8: {2: 182, 3: 5036, 4: 5009, 5: 809, 6: 74, 7: 6, 8: 1},
}

# sha256 of the newline-joined lines "graph6 kappa lambda chi alpha
# delta", one per class in enumeration order.
CATALOG_SHA256 = {
    1: "394fbf87e161b554140189ec6f1913606e4d8f386a6fbf8c7bf9687b86b58660",
    2: "88d48699a6f10d4544f322f02c878d3c2e734a4e11514a7cecec6dc3685620b5",
    3: "d5f464e4ce926470afe1ad27ebb4b5de701e72ad2d4b6c6edb654f9f29495e71",
    4: "9ead1c390a01e3f2b1d0d07f4d991179c98be4265fb5e9330e33b2d1607479d9",
    5: "255fd064b876eaacccf568e8570cef6a73c911311f3342965f426f03b25f86d4",
    6: "ffb9af6b0b638a2e7598fa36dc8e18e5d43170143fe836df408c65ea90108f81",
    7: "dbb9e35cc9ff331d323e186ec94fe3341aaf192867e5fe106f7f6a967f7c066d",
    8: "a3b36f24bef54888804a624f98f74e2682cd309213b069fd64c74942c0eecb40",
}


def test_complete_graph_invariants():
    inv = graph_invariants(complete(4))
    assert inv.vertex_connectivity == 3
    assert inv.edge_connectivity == 3
    assert inv.chromatic_number == 4
    assert inv.independence_number == 1
    assert inv.min_degree == 3


def test_cycle5_invariants():
    inv = graph_invariants(cycle(5))
    assert (inv.vertex_connectivity, inv.edge_connectivity) == (2, 2)
    assert inv.chromatic_number == 3
    assert inv.independence_number == 2


def test_paw_invariants():
    inv = graph_invariants(make_paw())
    assert (inv.vertex_connectivity, inv.edge_connectivity) == (1, 1)
    assert inv.chromatic_number == 3
    assert inv.independence_number == 2


@pytest.mark.parametrize(
    "g",
    [path(2), path(4), star(5), cycle(6), wheel(5), complete(5), complete_bipartite(2, 3)],
    ids=["P2", "P4", "K15", "C6", "W5", "K5", "K23"],
)
def test_named_graphs_match_oracles(g):
    inv = graph_invariants(g)
    assert inv.vertex_connectivity == brute_vertex_connectivity(g)
    assert inv.edge_connectivity == brute_edge_connectivity(g)
    assert inv.chromatic_number == brute_chromatic_number(g)
    assert inv.independence_number == brute_independence_number(g)


def test_catalog_matches_oracles_up_to_n5(catalog):
    for entry in catalog.up_to(5):
        g = entry.graph
        inv = graph_invariants(g)
        assert inv.vertex_connectivity == brute_vertex_connectivity(g)
        assert inv.edge_connectivity == brute_edge_connectivity(g)
        assert inv.chromatic_number == brute_chromatic_number(g)
        assert inv.independence_number == brute_independence_number(g)


def test_chromatic_number_matches_oracle_on_random_graphs():
    # Off the connected catalogue: edgeless and disconnected graphs too.
    rng = random.Random(7)
    graphs = [Graph(n) for n in range(1, 8)]
    for _ in range(200):
        n = rng.randint(1, 7)
        graphs.append(Graph(n, random_edges(rng, n, connected=rng.random() < 0.3)))
    assert sum(not g.is_connected() for g in graphs) > 50
    for g in graphs:
        assert graph_invariants(g).chromatic_number == brute_chromatic_number(g), g.edges()


def test_vertex_connectivity_matches_oracle_on_every_class_and_random_graphs():
    graphs = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 9)
        graphs.append(Graph(n, random_edges(rng, n, connected=rng.random() < 0.7)))
    for g in graphs:
        assert graph_invariants(g).vertex_connectivity == brute_vertex_connectivity(g), g.edges()


def test_edge_connectivity_matches_networkx_on_every_class_and_random_graphs():
    graphs = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]
    # kappa <= lambda <= delta (Whitney), so kappa < lambda or lambda < delta
    # needs kappa < delta; _order holds each class's graph_invariants, one
    # column per field, kappa first and delta last.
    rows = _order(8)[1]
    eight = [g for g, (kappa, *_, delta) in zip(enumerate_connected_graphs(8), rows) if kappa < delta]
    assert len(eight) == 557
    rng = random.Random(8)
    randoms = []
    for _ in range(300):
        n = rng.randint(1, 10)
        randoms.append(Graph(n, random_edges(rng, n, connected=rng.random() < 0.5)))
    assert sum(not g.is_connected() for g in randoms) > 50
    for g in graphs + eight + randoms:
        expected = nx.edge_connectivity(nx_graph(g.n, g.edges()))
        assert graph_invariants(g).edge_connectivity == expected, g.edges()


def test_connectivity_chain_on_catalog(catalog):
    for entry in catalog.up_to(6, start=2):
        inv = graph_invariants(entry.graph)
        assert inv.vertex_connectivity <= inv.edge_connectivity <= inv.min_degree
        assert 1 <= inv.chromatic_number <= entry.graph.n
        assert 1 <= inv.independence_number <= entry.graph.n - 1


def test_bipartition_sizes():
    assert bipartition(complete_bipartite(2, 4)) == (True, (2, 4))
    assert bipartition(path(5)) == (True, (2, 3))
    assert bipartition(cycle(5)) == (False, None)
    assert bipartition(complete(3)) == (False, None)


def test_bipartition_matches_networkx_and_layer_parity():
    rng = random.Random(9)
    bipartite_seen = non_bipartite_seen = disconnected_bipartite = 0
    for _ in range(600):
        n = rng.randint(1, 20)
        edges = random_edges(rng, n)
        h = nx_graph(n, edges)
        flag, sizes = bipartition(Graph(n, edges))
        assert flag == nx.is_bipartite(h)
        if not flag:
            assert sizes is None
            non_bipartite_seen += 1
            continue
        # Side 0: vertices at even distance from their component's lowest vertex.
        even = 0
        for comp in nx.connected_components(h):
            dist = nx.single_source_shortest_path_length(h, min(comp))
            even += sum(1 for d in dist.values() if d % 2 == 0)
        assert sizes == (min(even, n - even), max(even, n - even))
        bipartite_seen += 1
        disconnected_bipartite += not nx.is_connected(h)
    assert bipartite_seen > 100 and non_bipartite_seen > 100 and disconnected_bipartite > 50


def _networkx_subset_invariants(g):
    """(vertex connectivity, edge connectivity, independence number,
    clique number, degrees) from networkx flows and maximal cliques of
    the complement and of the graph."""
    h = nx_graph(g.n, g.edges())
    independence = max(map(len, nx.find_cliques(nx.complement(h))))
    clique = max(len(c) for c in nx.find_cliques(h))
    degrees = [d for _, d in sorted(h.degree())]
    if g.n == 1:
        return 0, 0, independence, clique, degrees
    return nx.node_connectivity(h), nx.edge_connectivity(h), independence, clique, degrees


def _columns(graphs):
    """The per-graph (kappa, lambda, alpha, omega, degrees) rows of one
    stacked call."""
    adj = np.array([g.adj_bits for g in graphs], dtype=np.uint16)
    return list(zip(*(column.tolist() for column in _subset_invariants(adj))))


def test_subset_invariants_match_networkx_on_every_class():
    for n in range(1, 8):
        graphs = enumerate_connected_graphs(n)
        assert _columns(graphs) == [_networkx_subset_invariants(g) for g in graphs], n


@st.composite
def any_graphs(draw):
    """Any graph on 1..10 vertices.  Every pair across a drawn split point
    is left out, so most draws with a split are disconnected."""
    n = draw(st.integers(1, 10))
    split = draw(st.integers(0, n - 1))
    pairs = [(u, v) for v in range(n) for u in range(v) if not u < split <= v]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, kept in zip(pairs, keep) if kept])


@settings(max_examples=300, deadline=None)
@given(any_graphs())
@example(Graph(1))
@example(complete(2))
@example(Graph(2))
def test_subset_invariants_match_networkx_on_any_graph(g):
    expected = _networkx_subset_invariants(g)
    assert _columns([g]) == [expected]
    inv = graph_invariants(g)
    assert (inv.vertex_connectivity, inv.edge_connectivity, inv.independence_number) == expected[:3]


def test_stacked_subset_invariants_are_the_single_graph_calls():
    rng = random.Random(13)
    stacks = [enumerate_connected_graphs(n) for n in range(1, 8)]
    stacks.append([Graph(9, random_edges(rng, 9, connected=rng.random() < 0.5)) for _ in range(60)])
    for graphs in stacks:
        assert _columns(graphs) == [_columns([g])[0] for g in graphs]
    for n in range(1, 8):
        rows = _order(n)[1].tolist()
        assert [GraphInvariants(*row) for row in rows] == [graph_invariants(g) for g in stacks[n - 1]]


@pytest.mark.parametrize("n", range(1, 9))
def test_catalog_invariants_are_pinned(n):
    masks, rows = _order(n)[:2]
    assert Counter(rows[:, 2].tolist()) == CHROMATIC_HISTOGRAMS[n]
    text = "\n".join(
        " ".join(map(str, [_pack_graph6(n, mask), *row]))
        for mask, row in zip(masks.tolist(), rows.tolist())
    )
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == CATALOG_SHA256[n]


def test_chunked_subset_tables_match_one_pass(monkeypatch):
    # Every catalogue up to n = 8 fits one chunk; split into chunks of a
    # few graphs each, or of one graph, the columns are the same.  Random
    # n = 9 and n = 10 stacks, with a last chunk shorter than the rest,
    # likewise.
    rng = random.Random(17)
    stacks = [enumerate_connected_graphs(n) for n in range(1, 9)]
    stacks += [[Graph(n, random_edges(rng, n, connected=rng.random() < 0.5)) for _ in range(37)]
               for n in (9, 10)]
    chunks = []
    subset_tables = invariants._subset_tables
    monkeypatch.setattr(invariants, "_subset_tables",
                        lambda graphs: chunks.append(len(graphs)) or subset_tables(graphs))
    whole = [_columns(graphs) for graphs in stacks]
    assert chunks == [len(graphs) for graphs in stacks]
    # 2^12 cells: 2^(12 - n) graphs a chunk, so the n = 9 and n = 10
    # stacks split 8+8+8+8+5 and 4+...+4+1; one cell: one graph a chunk
    for cells, tail in ((1 << 12, [8] * 4 + [5] + [4] * 9 + [1]), (1, [1] * 74)):
        monkeypatch.setattr(invariants, "_TABLE_CELLS", cells)
        chunks.clear()
        assert [_columns(graphs) for graphs in stacks] == whole, cells
        assert chunks[-len(tail):] == tail, cells
