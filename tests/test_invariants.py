"""Exact invariants against plain subset-enumeration oracles."""

import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hararyspec import (
    BudgetError,
    Graph,
    bipartition,
    chromatic_number,
    complete,
    complete_bipartite,
    cycle,
    edge_connectivity,
    enumerate_connected_graphs,
    graph_invariants,
    independence_number,
    path,
    star,
    vertex_connectivity,
    wheel,
)
from hararyspec.extremal import _catalog
from hararyspec.invariants import _subset_invariants

from conftest import (
    brute_chromatic_number,
    brute_edge_connectivity,
    brute_independence_number,
    brute_vertex_connectivity,
    make_paw,
    nx_graph,
    random_edges,
)


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
    assert vertex_connectivity(g) == brute_vertex_connectivity(g)
    assert edge_connectivity(g) == brute_edge_connectivity(g)
    assert chromatic_number(g) == brute_chromatic_number(g)
    assert independence_number(g) == brute_independence_number(g)


def test_catalog_matches_oracles_up_to_n5(catalog):
    for entry in catalog.up_to(5):
        g = entry.graph
        assert vertex_connectivity(g) == brute_vertex_connectivity(g)
        assert edge_connectivity(g) == brute_edge_connectivity(g)
        assert chromatic_number(g) == brute_chromatic_number(g)
        assert independence_number(g) == brute_independence_number(g)


def test_chromatic_number_matches_oracle_on_random_graphs():
    # Off the connected catalogue: edgeless and disconnected graphs too.
    rng = random.Random(7)
    graphs = [Graph(n) for n in range(1, 8)]
    for _ in range(200):
        n = rng.randint(1, 7)
        graphs.append(Graph(n, random_edges(rng, n, connected=rng.random() < 0.3)))
    assert sum(not g.is_connected() for g in graphs) > 50
    for g in graphs:
        assert chromatic_number(g) == brute_chromatic_number(g), g.edges()


def test_vertex_connectivity_matches_oracle_on_every_class_and_random_graphs():
    graphs = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 9)
        graphs.append(Graph(n, random_edges(rng, n, connected=rng.random() < 0.7)))
    for g in graphs:
        assert vertex_connectivity(g) == brute_vertex_connectivity(g), g.edges()


def test_edge_connectivity_matches_networkx_on_every_class_and_random_graphs():
    graphs = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]
    # kappa <= lambda <= delta (Whitney), so kappa < lambda or lambda < delta
    # needs kappa < delta; the catalogue holds each class's graph_invariants.
    eight = [g for g, _, inv in _catalog(8) if inv.vertex_connectivity < inv.min_degree]
    assert len(eight) == 557
    rng = random.Random(8)
    randoms = []
    for _ in range(300):
        n = rng.randint(1, 10)
        randoms.append(Graph(n, random_edges(rng, n, connected=rng.random() < 0.5)))
    assert sum(not g.is_connected() for g in randoms) > 50
    for g in graphs + eight + randoms:
        expected = nx.edge_connectivity(nx_graph(g.n, g.edges()))
        assert edge_connectivity(g) == expected, g.edges()
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
    """(vertex connectivity, edge connectivity, independence number) from
    networkx flows and the clique number of the complement."""
    h = nx_graph(g.n, g.edges())
    independence = max(map(len, nx.find_cliques(nx.complement(h))))
    if g.n == 1:
        return 0, 0, independence
    return nx.node_connectivity(h), nx.edge_connectivity(h), independence


def _columns(graphs):
    """The per-graph (kappa, lambda, alpha) rows of one stacked call."""
    return list(zip(*(column.tolist() for column in _subset_invariants(graphs))))


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
    assert (vertex_connectivity(g), edge_connectivity(g), independence_number(g)) == expected


def test_stacked_subset_invariants_are_the_single_graph_calls():
    rng = random.Random(13)
    stacks = [enumerate_connected_graphs(n) for n in range(1, 8)]
    stacks.append([Graph(9, random_edges(rng, 9, connected=rng.random() < 0.5)) for _ in range(60)])
    for graphs in stacks:
        assert _columns(graphs) == [_columns([g])[0] for g in graphs]
    for n in range(1, 8):
        assert [inv for _, _, inv in _catalog(n)] == [graph_invariants(g) for g in stacks[n - 1]]


def test_budget_error_over_ten_vertices():
    with pytest.raises(BudgetError, match="budget exceeded"):
        graph_invariants(path(11))
