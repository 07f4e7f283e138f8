"""Graph type, constructors, distances and transmission quantities."""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hararyspec import (
    Graph,
    NotConnectedError,
    all_pairs_distances,
    complete,
    complete_bipartite,
    complete_multipartite,
    complete_split,
    cycle,
    disjoint_union,
    edgeless,
    harary_index,
    is_transmission_regular,
    join,
    path,
    pendant_counts,
    reciprocal_transmissions,
    star,
    turan,
    wheel,
)
from hararyspec.enumeration import canonical_form
from hararyspec.graphs import _distance_stack

from conftest import (
    join_edges,
    make_paw,
    multipartite_edges,
    nx_graph,
    random_edges,
    union_edges,
)


def test_graph_rejects_self_loops_and_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
        path(3).with_edge(1, 1)


def test_adjacency_is_symmetric_without_loops():
    g = make_paw()
    a = g.adjacency()
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert g.degrees() == (2, 2, 3, 1)


def test_with_edge_returns_new_graph():
    g = path(3)
    h = g.with_edge(0, 2)
    assert not g.has_edge(0, 2)
    assert h.has_edge(0, 2)
    assert h.edge_count == g.edge_count + 1
    with pytest.raises(ValueError):
        g.with_edge(0, 1)


def test_permuted_relabels_edges():
    g = path(3)
    h = g.permuted([2, 0, 1])  # 0->2, 1->0, 2->1
    assert sorted(h.edges()) == [(0, 1), (0, 2)]


def test_constructors_sizes_and_edges():
    assert complete(5).edge_count == 10
    assert edgeless(4).edge_count == 0
    assert path(1).edge_count == 0
    assert cycle(5).edge_count == 5
    assert star(5).degrees() == (4, 1, 1, 1, 1)
    assert complete_bipartite(2, 3).edge_count == 6
    assert complete_split(2, 3).edge_count == 1 + 6
    assert disjoint_union(complete(2), complete(3)).edge_count == 4
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        wheel(3)
    with pytest.raises(ValueError):
        turan(3, 4)


def test_wheel_is_hub_joined_to_cycle():
    assert canonical_form(wheel(5)) == canonical_form(join(complete(1), cycle(4)))


def test_turan_balanced_parts():
    assert canonical_form(turan(4, 2)) == canonical_form(complete_bipartite(2, 2))
    assert canonical_form(turan(7, 3)) == canonical_form(complete_multipartite((3, 2, 2)))


def test_join_and_union_match_edge_list_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n1, n2 = rng.randint(1, 40), rng.randint(1, 40)
        e1, e2 = random_edges(rng, n1), random_edges(rng, n2)
        g1, g2 = Graph(n1, e1), Graph(n2, e2)
        assert join(g1, g2).n == disjoint_union(g1, g2).n == n1 + n2
        assert join(g1, g2).edges() == join_edges(n1, e1, n2, e2)
        assert disjoint_union(g1, g2).edges() == union_edges(n1, e1, e2)


def test_multipartite_constructors_match_edge_list_oracle():
    for a in range(1, 7):
        for b in range(1, 7):
            assert complete_bipartite(a, b).edges() == multipartite_edges((a, b))
            assert join(edgeless(a), edgeless(b)).edges() == multipartite_edges((a, b))
            split = sorted((u, v) for v in range(a + b) for u in range(min(v, a)))
            assert complete_split(a, b).edges() == split
    for parts in [(1,), (4,), (1, 1), (3, 1, 2), (2, 2, 2), (1, 4, 1, 3), (1,) * 7]:
        assert complete_multipartite(parts).edges() == multipartite_edges(parts)
    for n in range(1, 13):
        for r in range(1, n + 1):
            sizes = [n // r + (i < n % r) for i in range(r)]
            assert turan(n, r).edges() == multipartite_edges(sizes)
    for n in range(4, 13):
        rim = [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)]
        assert wheel(n).edges() == sorted([(0, i) for i in range(1, n)] + rim)


def test_multipartite_constructors_keep_their_guards():
    with pytest.raises(ValueError, match="both parts must be nonempty"):
        complete_bipartite(0, 3)
    with pytest.raises(ValueError, match="needs a >= 1 and b >= 1"):
        complete_split(2, 0)
    with pytest.raises(ValueError, match="part sizes must be positive"):
        complete_multipartite((2, 0, 1))
    with pytest.raises(ValueError, match="part sizes must be positive"):
        complete_multipartite(())


def test_distances_match_networkx_past_64_bits():
    rng = random.Random(3)
    for n in list(range(1, 21)) + [63, 64, 65, 66, 70, 70]:
        edges = random_edges(rng, n, connected=True)
        d = all_pairs_distances(Graph(n, edges))
        expected = np.zeros((n, n), dtype=np.int64)
        for s, row in nx.all_pairs_shortest_path_length(nx_graph(n, edges)):
            for v, dist in row.items():
                expected[s, v] = dist
        assert d.dtype == np.int64
        assert np.array_equal(d, expected)


def test_disconnected_distances_raise_past_64_bits():
    rng = random.Random(4)
    for n1, n2 in [(1, 1), (3, 5), (30, 40), (64, 1), (1, 69)]:
        g = disjoint_union(
            Graph(n1, random_edges(rng, n1, connected=True)),
            Graph(n2, random_edges(rng, n2, connected=True)),
        )
        with pytest.raises(NotConnectedError, match="not connected"):
            all_pairs_distances(g)


def _nx_distances(g):
    d = np.zeros((g.n, g.n), dtype=np.int64)
    for s, row in nx.all_pairs_shortest_path_length(nx_graph(g.n, g.edges())):
        for v, dist in row.items():
            d[s, v] = dist
    return d


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 70), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_one_stacked_distance_call_is_the_per_graph_results(n, k, seed):
    # a mixed batch: trees, sparse and dense graphs of one order
    rng = random.Random(seed)
    graphs = [Graph(n, random_edges(rng, n, connected=True)) for _ in range(k)]
    d = _distance_stack([g.adj_bits for g in graphs], n)
    assert d.dtype == np.int64 and d.shape == (k, n, n)
    for g, dg in zip(graphs, d):
        assert np.array_equal(dg, all_pairs_distances(g))
        assert np.array_equal(dg, _nx_distances(g))
    if n > 1:
        # one member loses every edge at its last vertex
        i = rng.randrange(k)
        edges = [e for e in graphs[i].edges() if n - 1 not in e]
        graphs[i] = Graph(n, edges)
        with pytest.raises(NotConnectedError, match="not connected"):
            _distance_stack([g.adj_bits for g in graphs], n)


def test_is_connected_matches_networkx():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(1, 20)
        edges = random_edges(rng, n)
        assert Graph(n, edges).is_connected() == nx.is_connected(nx_graph(n, edges))
    for n in (65, 70):
        edges = random_edges(rng, n, connected=True)
        assert Graph(n, edges).is_connected()
        assert not Graph(n, [e for e in edges if n - 1 not in e]).is_connected()


def test_distances_complete_graph_all_ones():
    d = all_pairs_distances(complete(4))
    assert np.all(d[~np.eye(4, dtype=bool)] == 1)
    assert np.all(np.diag(d) == 0)


def test_distances_path_and_cycle():
    d = all_pairs_distances(path(3))
    assert d[0, 2] == 2 and d[0, 1] == 1 and d[1, 2] == 1
    d = all_pairs_distances(cycle(4))
    assert d[0, 2] == 2 and d[1, 3] == 2
    assert d[0, 1] == d[1, 2] == d[2, 3] == d[0, 3] == 1


def test_distances_reject_disconnected():
    with pytest.raises(NotConnectedError, match="not connected"):
        all_pairs_distances(disjoint_union(complete(2), complete(2)))


def test_distance_matrix_properties_on_catalog(catalog):
    for entry in catalog.up_to(7):
        d = all_pairs_distances(entry.graph)
        n = entry.graph.n
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        off = d[~np.eye(n, dtype=bool)]
        assert off.size == 0 or off.min() >= 1
        # d_ij == 1 exactly on edges
        for u in range(n):
            for v in range(u + 1, n):
                assert (d[u, v] == 1) == entry.graph.has_edge(u, v)
        # triangle inequality
        for k in range(n):
            assert np.all(d <= d[:, [k]] + d[[k], :])


def test_reciprocal_transmissions_examples():
    assert np.allclose(reciprocal_transmissions(path(3)), [1.5, 2.0, 1.5])
    assert np.allclose(reciprocal_transmissions(cycle(4)), [2.5] * 4)
    for n in (2, 5, 7):
        assert np.allclose(reciprocal_transmissions(complete(n)), [n - 1.0] * n)


def test_harary_index_examples():
    assert harary_index(path(3)) == pytest.approx(2.5)
    assert harary_index(complete(4)) == pytest.approx(6.0)
    assert harary_index(cycle(4)) == pytest.approx(5.0)


def test_transmission_regularity():
    assert is_transmission_regular(cycle(4))
    assert is_transmission_regular(complete(6))
    assert not is_transmission_regular(path(3))
    assert not is_transmission_regular(complete_bipartite(2, 4))


def test_pendant_counts():
    assert pendant_counts(path(4)) == (2, 2)
    assert pendant_counts(star(5)) == (4, 1)
    assert pendant_counts(make_paw()) == (1, 1)
    assert pendant_counts(cycle(5)) == (0, 0)
