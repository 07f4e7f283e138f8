"""Canonical forms and isomorphism-free enumeration."""

import hashlib
from collections import Counter
from functools import cache

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hararyspec import (
    BudgetError,
    Graph,
    build_kite,
    canonical_form,
    complete,
    complete_bipartite,
    complete_split,
    cycle,
    edgeless,
    enumerate_connected_graphs,
    graph_invariants,
    join,
    parse_graph6,
    path,
    star,
    to_graph6,
    turan,
    verify_vertex_connectivity_extremal,
)
from hararyspec import enumeration, graphs, invariants
from hararyspec.enumeration import (_canonical_masks, _children, _connected_classes, _cut_table,
                                     _deletable, _equitable, _leaf_masks, _twin_classes)
from hararyspec.graph6 import _edge_mask, _pack_graph6
from hararyspec.graphs import _twins, triangle_pairs

from conftest import (
    brute_canonical_mask,
    connected_class_count_bruteforce,
    graph6_of_mask,
    make_petersen,
    reference_last_is_deletable,
    reference_refine,
    reference_twins,
)

# Connected graph classes by order (matches the brute-force oracle below).
KNOWN_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

# sha256 of the newline-joined graph6 of every representative, in
# enumeration order: pins the certificates and the order together.
REPRESENTATIVES_SHA256 = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    3: "2c1256ffd0617e16898c604363be63a1bf9bd24d83d6227d4b2adb3360248bd3",
    4: "bf158ea8c37a3ec7a9b1386892d1a29fd3bf86878fb29262e467775aba813399",
    5: "6a0dbeb5edd9aed3b095849220154af41f8a71f58737f31b044aa59000b6a46f",
    6: "693b31d3b32879cf6167ca424126bd2d83f8a1cc98027c81cf1b9009754d53cb",
    7: "253959a164cbe0eaa6f9a2297930cb20b7a0968d524b58a9f58e12853a17ec46",
    8: "40378f23447965a6ae16315f0e6dc313779a0b4cafe5d730f5f8664b6116555f",
}

# sha256 of the newline-joined graph6 certificates of every labelled
# child (an extension that passes both prunings), in generation order,
# as the one-graph-at-a-time recursive search computed them.
CHILD_CERTIFICATES_SHA256 = {
    2: "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    3: "2c1256ffd0617e16898c604363be63a1bf9bd24d83d6227d4b2adb3360248bd3",
    4: "bf158ea8c37a3ec7a9b1386892d1a29fd3bf86878fb29262e467775aba813399",
    5: "e6f2c586174d39a5c9b75fb621dafdcc9ecf2ddb2e8f24a8df823da519f251c4",
    6: "ee9edad155121151173afb0010ddce1c11954b3b07cd325c2c41145398e55e06",
    7: "8d8d71d14484cb001766009160d3134e269a7b6613806d6532c6e0ec79e16b8d",
    8: "d4a4bd1994b55635c063b4e7a96101a4d3cb5990f37be8cc967373c095b4643b",
}
CHILD_COUNTS = {2: 1, 3: 2, 4: 6, 5: 28, 6: 142, 7: 1177, 8: 14452}


def test_relabeled_paths_share_canonical_form():
    assert canonical_form(path(3)) == canonical_form(Graph(3, [(1, 0), (0, 2)]))


def test_different_graphs_have_different_forms():
    assert canonical_form(path(3)) != canonical_form(complete(3))
    assert canonical_form(star(4)) != canonical_form(path(4))


def test_canonical_form_invariant_under_random_permutations():
    rng = np.random.default_rng(11)
    triangle_and_square = {(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6)}
    graphs = [
        path(5),
        cycle(6),
        star(6),
        complete_bipartite(2, 3),
        make_petersen(),
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4), (2, 5)]),
        # complement of a triangle plus a 4-cycle: 4-regular but not
        # vertex-transitive, so refinement leaves a cell that is not an
        # orbit, and pruning anything but twins makes the form label-dependent
        Graph(7, [e for e in complete(7).edges() if e not in triangle_and_square]),
    ]
    for g in graphs:
        reference = canonical_form(g)
        for _ in range(50):
            perm = list(rng.permutation(g.n))
            assert canonical_form(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])) == reference


def _twin_heavy_families(n):
    yield complete(n)
    yield star(n)
    for a in range(1, n):
        yield complete_bipartite(a, n - a)
        yield complete_split(a, n - a)
        yield join(edgeless(a), complete(n - a))
    for r in range(2, n + 1):
        yield turan(n, r)
    for r in range(1, n - 1):
        yield build_kite(n, r)


@pytest.mark.parametrize("n", range(2, 8))
def test_twin_pruned_form_matches_all_permutations(n):
    # These graphs are mostly cells of twins, where the pruning skips the
    # most branches; on them the certificate is also the minimum over all
    # n! orderings, which the oracle finds without refinement or pruning.
    for g in _twin_heavy_families(n):
        assert canonical_form(g) == graph6_of_mask(n, brute_canonical_mask(g)), g


@st.composite
def blown_up_graphs(draw):
    """A random small graph with each vertex blown up into a clique or an
    independent set, so every blob is a class of twins."""
    sizes = draw(
        st.lists(st.integers(1, 4), min_size=2, max_size=5).filter(lambda s: 5 <= sum(s) <= 10)
    )
    k = len(sizes)
    base = [(i, j) for j in range(k) for i in range(j) if draw(st.booleans())]
    cliques = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    offsets = np.cumsum([0] + sizes).tolist()
    blobs = [range(offsets[i], offsets[i + 1]) for i in range(k)]
    edges = [(u, v) for i in range(k) if cliques[i] for u in blobs[i] for v in blobs[i] if u < v]
    edges += [(u, v) for i, j in base for u in blobs[i] for v in blobs[j]]
    n = offsets[-1]
    perm = draw(st.permutations(range(n)))
    return Graph(n, edges), perm


@settings(max_examples=80, deadline=None)
@given(blown_up_graphs())
def test_canonical_form_invariant_on_planted_twins(case):
    g, perm = case
    assert canonical_form(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])) == canonical_form(g)


@cache
def _class_forms(n):
    masks = _canonical_masks([g.adj_bits for g in enumerate_connected_graphs(n)], n)
    return {_pack_graph6(n, mask).encode("ascii") for mask in masks}


def test_classes_match_networkx_atlas():
    atlas = {n: set() for n in range(1, 8)}
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() >= 1 and nx.is_connected(h):
            g = Graph(h.number_of_nodes(), h.edges())
            atlas[g.n].add(canonical_form(g))
    for n, forms in atlas.items():
        assert forms == _class_forms(n), n


@st.composite
def small_connected_graphs(draw):
    """A random spanning tree plus a random edge subset, n <= 8: one
    boolean per pair, so the pairs of the highest vertices are drawn as
    freely as the lowest."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = {pair for pair, kept in zip(pairs, keep) if kept}
    edges |= {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    return Graph(n, edges)


@settings(max_examples=300, deadline=None)
@given(small_connected_graphs())
def test_every_connected_graph_is_enumerated(g):
    # The atlas stops at n = 7; this reaches the order-8 classes too.
    assert canonical_form(g) in _class_forms(g.n)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_class_counts_match_bruteforce_oracle(n):
    assert len(enumerate_connected_graphs(n)) == connected_class_count_bruteforce(n)


def test_known_counts_up_to_seven():
    for n, count in KNOWN_COUNTS.items():
        assert len(enumerate_connected_graphs(n)) == count


def test_enumeration_is_deterministic_and_canonical():
    first = enumerate_connected_graphs(5)
    second = enumerate_connected_graphs(5)
    assert list(first) == list(second)
    forms = [canonical_form(g) for g in first]
    assert len(set(forms)) == len(forms)
    for g in first:
        assert g.is_connected()
        assert to_graph6(g).encode("ascii") == canonical_form(g)  # representatives are canonically labelled


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: enumerate_connected_graphs(9), "enumeration limited to n <= 8, got n=9"),
        (lambda: canonical_form(path(11)), "canonical labelling limited to n <= 10, got n=11"),
        (lambda: graph_invariants(path(11)), "exact invariants limited to n <= 10, got n=11"),
        (lambda: verify_vertex_connectivity_extremal(9, 2, 0.0),
         "extremal search limited to n <= 8, got n=9"),
    ],
    ids=["enumeration", "canonical-labelling", "invariants", "extremal"],
)
def test_budget_message_one_past_each_limit(call, message):
    with pytest.raises(BudgetError) as caught:
        call()
    assert str(caught.value) == f"budget exceeded: {message}"


@pytest.mark.parametrize("n", [0, -1])
def test_orders_below_one_are_value_errors(n):
    # no graph has fewer than one vertex; the budget is for real searches
    with pytest.raises(ValueError, match="need n >= 1") as caught:
        enumerate_connected_graphs(n)
    assert not isinstance(caught.value, BudgetError)


def test_count_at_eight():
    assert len(enumerate_connected_graphs(8)) == 11117


@pytest.mark.parametrize("n", range(1, 9))
def test_representatives_are_pinned(n):
    text = "\n".join(to_graph6(g) for g in enumerate_connected_graphs(n))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == REPRESENTATIVES_SHA256[n]


@pytest.mark.parametrize("n", range(2, 9))
def test_child_certificates_are_pinned(n):
    masks = _canonical_masks(_children(n), n)
    assert len(masks) == CHILD_COUNTS[n]
    text = "\n".join(_pack_graph6(n, mask) for mask in masks)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == CHILD_CERTIFICATES_SHA256[n]


@st.composite
def graph_stacks(draw):
    """Random graphs on one order n <= 10, some sparse, some dense, some
    with planted twin classes, followed by random relabellings of some of
    them; returns (n, rows, copies) where row len(base) + i relabels row
    copies[i]."""
    n = draw(st.integers(1, 10))
    rng = draw(st.randoms(use_true_random=False))
    base = []
    for _ in range(draw(st.integers(1, 5))):
        p = draw(st.sampled_from([0.15, 0.5, 0.85]))
        adj = [0] * n
        for u, v in triangle_pairs(n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        # plant twins in half the graphs: a vertex may copy the
        # neighbourhood of a lower one
        plant = rng.random() < 0.5
        for v in range(1, n):
            if plant and rng.random() < 0.5:
                u = rng.randrange(v)
                same = adj[u] & ~(1 << v)
                if rng.random() < 0.5:
                    same |= 1 << u  # adjacent twins
                for w in range(n):
                    adj[w] = adj[w] & ~(1 << v) | (same >> w & 1) << v
                adj[v] = same
        base.append(adj)
    copies = draw(st.lists(st.integers(0, len(base) - 1), max_size=4))
    rows = list(base)
    for i in copies:
        perm = draw(st.permutations(range(n)))
        g = Graph(n, [(perm[u], perm[v]) for u, v in Graph._from_adj(n, base[i]).edges()])
        rows.append(list(g.adj_bits))
    return n, rows, copies


@settings(max_examples=100, deadline=None)
@given(graph_stacks())
def test_stacked_labelling_matches_one_graph_calls(case):
    n, rows, copies = case
    masks = _canonical_masks(rows, n)
    assert masks == [_canonical_masks([row], n)[0] for row in rows]
    for i, original in enumerate(copies):
        assert masks[len(rows) - len(copies) + i] == masks[original]


@st.composite
def small_graphs(draw):
    """Any graph on 1..10 vertices, connected or not."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, kept in zip(pairs, keep) if kept])


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_certificate_is_its_own_certificate(g):
    certificate = canonical_form(g)
    assert canonical_form(parse_graph6(certificate.decode("ascii"))) == certificate
    assert parse_graph6(to_graph6(g)) == g


def _stacked_refine(adj, cells):
    """The stacked refinement pass on one partition, given and returned
    as a list of cell bitmasks."""
    n = len(adj)
    index = [next(i for i, cell in enumerate(cells) if cell >> v & 1) for v in range(n)]
    refined = _equitable(np.array([adj], dtype=np.uint16), np.array([index], dtype=np.int8))[0]
    return [sum(1 << v for v in range(n) if refined[v] == c) for c in range(refined.max() + 1)]


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.booleans(), st.data())
def test_packed_refinement_keys_match_tuple_keys(g, dense, data):
    # Complements make dense graphs, whose large counts would spill over a
    # field too narrow.  The cells of a random ordered starting partition
    # hold the vertices of one label each, ordered by label.
    n = g.n
    adj = [((1 << n) - 1) ^ a ^ 1 << v for v, a in enumerate(g.adj_bits)] if dense else g.adj_bits
    top = data.draw(st.integers(0, n - 1))
    labels = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    cells = [sum(1 << v for v in range(n) if labels[v] == c) for c in sorted(set(labels))]
    assert _stacked_refine(adj, cells) == reference_refine(adj, cells)


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.booleans(), st.data())
def test_leaf_mask_matches_the_edge_mask_codec(g, dense, data):
    n = g.n
    adj = [((1 << n) - 1) ^ a ^ 1 << v for v, a in enumerate(g.adj_bits)] if dense else g.adj_bits
    order = data.draw(st.permutations(range(n)))
    cells = [order.index(v) for v in range(n)]  # the vertex order[i] sits in cell i
    leaf = _leaf_masks(np.array([adj], dtype=np.uint16), np.array([cells], dtype=np.int8))
    relabelled = Graph(n, [(cells[u], cells[v]) for u, v in Graph._from_adj(n, adj).edges()])
    assert leaf.tolist() == [_edge_mask(relabelled.adj_bits)]


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_twin_grouping_matches_pairwise_comparison(g):
    expected = reference_twins(g.adj_bits)
    assert _twins(g.adj_bits) == expected
    classes = _twin_classes(np.array([g.adj_bits], dtype=np.uint16))[0]
    assert classes.tolist() == [twins | 1 << v for v, twins in enumerate(expected)]


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.booleans(), st.data())
def test_stacked_refinement_of_an_individualised_partition(g, dense, data):
    # The partitions the search refines: an equitable one with a vertex v
    # of an open cell individualised in front of the rest of its cell.
    n = g.n
    adj = [((1 << n) - 1) ^ a ^ 1 << v for v, a in enumerate(g.adj_bits)] if dense else g.adj_bits
    equitable = reference_refine(adj, [(1 << n) - 1])
    open_cells = [i for i, cell in enumerate(equitable) if cell & (cell - 1)]
    if not open_cells:
        return
    idx = data.draw(st.sampled_from(open_cells))
    cell = equitable[idx]
    v = data.draw(st.sampled_from([u for u in range(n) if cell >> u & 1]))
    cells = equitable[:idx] + [1 << v, cell ^ 1 << v] + equitable[idx + 1 :]
    assert _stacked_refine(adj, cells) == reference_refine(adj, cells)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_components_without_each_vertex_match_networkx(g):
    # the stacked cut table of one graph: per u and vertex bitmask S,
    # whether S meets every component of g - u
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    table = _cut_table(np.array([g.adj_bits], dtype=np.uint16))[0]
    subsets = np.arange(1 << g.n)
    for u in range(g.n):
        expected = np.ones(1 << g.n, dtype=bool)
        for comp in nx.connected_components(nx.restricted_view(h, [u], [])):
            expected &= subsets & sum(1 << v for v in comp) != 0
        assert np.array_equal(table[u], expected), (g, u)


def test_incremental_deletion_keys_match_the_direct_test():
    # every parent class up to order 6 with every new neighbourhood, a
    # superset of the twin-prefix candidates the enumeration tries, in one
    # stacked call per order
    for n in range(1, 7):
        full = (1 << (n + 1)) - 1
        adj = _connected_classes(n)[1]
        parent = np.repeat(np.arange(len(adj)), full >> 1)
        nbrs = np.tile(np.arange(1, 1 << n, dtype=np.uint16), len(adj))
        got = _deletable(adj, parent, nbrs).tolist()
        for p, s, deletable in zip(parent.tolist(), nbrs.tolist(), got):
            child = [a | (s >> u & 1) << n for u, a in enumerate(adj[p].tolist())] + [s]
            assert deletable == reference_last_is_deletable(child, full), (n, p, s)


def test_order_seven_enumeration_work_counts(monkeypatch):
    # The deletion tests and labellings of the order-7 step, with order 6
    # cached: every candidate is tested in one stacked call and every
    # child labelled in one more.  Making each step cheaper must leave
    # these counts as they are; a change that prunes more lowers them on
    # purpose.  The cut tests read the parents' stacked cut table, so no
    # breadth-first search runs on a child.
    enumeration._connected_classes(6)
    tested, stacks, searches = [], [], Counter()
    canonical_masks, deletable = enumeration._canonical_masks, enumeration._deletable
    monkeypatch.setattr(enumeration, "_canonical_masks",
                        lambda adjs, n: stacks.append(len(adjs)) or canonical_masks(adjs, n))
    monkeypatch.setattr(enumeration, "_deletable", lambda adj, parent, nbrs:
                        tested.append(len(nbrs)) or deletable(adj, parent, nbrs))
    for module in (graphs, invariants):
        fn = module._reach
        monkeypatch.setattr(module, "_reach", lambda *args, fn=fn, module=module:
                            searches.update([module.__name__]) or fn(*args))
    enumeration._connected_classes.__wrapped__(7)
    assert stacks == [1177]
    assert tested == [4818]
    assert not searches


@pytest.mark.parametrize("n", range(1, 7))
def test_candidates_are_the_twin_prefix_sets(monkeypatch, n):
    # every (parent, S) handed to the deletion test, against the brute-force
    # set: each nonempty S in which every vertex comes with all its lower twins
    tested = []
    deletable = enumeration._deletable
    monkeypatch.setattr(enumeration, "_deletable", lambda adj, parent, nbrs:
                        tested.extend(zip(parent.tolist(), nbrs.tolist())) or deletable(adj, parent, nbrs))
    parents = _connected_classes(n)[1]
    enumeration._extensions(parents)
    expected = []
    for p, row in enumerate(parents.tolist()):
        lower = [twins & (1 << v) - 1 for v, twins in enumerate(reference_twins(row))]
        expected += [(p, s) for s in range(1, 1 << n)
                     if all(lower[v] & ~s == 0 for v in range(n) if s >> v & 1)]
    assert sorted(tested) == expected


def test_candidate_blocks_leave_the_children_unchanged(monkeypatch):
    # the parents of an order go in blocks of at most ``_CANDIDATES``
    # candidates; up to order 8 that is one block, so shrink it to split
    # every order, down to one parent a block
    whole = [_children(n) for n in range(2, 9)]
    for size in (1 << 10, 1):
        monkeypatch.setattr(enumeration, "_CANDIDATES", size)
        for n, rows in enumerate(whole, start=2):
            assert np.array_equal(_children(n), rows), (size, n)
