"""graph6 and edge-list formats against an independent reference encoder."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hararyspec import (
    Graph,
    Graph6Error,
    complete,
    load_graph6,
    parse_edge_list,
    parse_graph6,
    path,
    to_graph6,
)
from hararyspec.enumeration import enumerate_connected_graphs


def reference_encode(n, edges):
    """Independent graph6 encoder written straight from the format description:
    byte n+63, then upper-triangle bits in column order (0,1),(0,2),(1,2),...
    packed big-endian six at a time with zero padding."""
    edge_set = {tuple(sorted(e)) for e in edges}
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in edge_set else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        out.append(chr(63 + int("".join(map(str, bits[k : k + 6])) or "0", 2)))
    return "".join(out)


def test_known_strings():
    k4 = parse_graph6("C~")
    assert k4.n == 4 and k4.edge_count == 6
    p3 = parse_graph6("Bg")
    assert p3.n == 3 and sorted(p3.edges()) == [(0, 1), (1, 2)]
    single = parse_graph6("@")
    assert single.n == 1 and single.edge_count == 0


def test_encode_matches_reference_on_named_graphs():
    for g in (complete(4), path(3), Graph(1), complete(1), path(5)):
        assert to_graph6(g) == reference_encode(g.n, g.edges())


def test_encode_matches_reference_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 31))
        edges = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < 0.4]
        g = Graph(n, edges)
        text = to_graph6(g)
        assert text == reference_encode(n, edges)
        assert parse_graph6(text) == g


def test_round_trip_enumerated_graphs():
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            text = to_graph6(g)
            assert parse_graph6(text) == g
            assert to_graph6(parse_graph6(text)) == text


def test_header_accepted_and_stripped():
    assert parse_graph6(">>graph6<<C~") == parse_graph6("C~")
    assert parse_graph6("C~\n") == parse_graph6("C~")


def test_long_form_rejected():
    with pytest.raises(Graph6Error, match="long-form"):
        parse_graph6("~??~" + "?" * 10)


def test_out_of_range_byte_names_offset():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("B" + chr(20))
    assert err.value.offset == 1
    with pytest.raises(Graph6Error) as err:
        parse_graph6(chr(10) + "g")
    assert err.value.offset == 0


def test_invalid_length_and_trailing_garbage():
    with pytest.raises(Graph6Error, match="invalid length"):
        parse_graph6("D")  # n=5 needs ceil(10/6)=2 data bytes
    with pytest.raises(Graph6Error) as err:
        parse_graph6("C~~")
    assert "trailing garbage" in str(err.value)
    assert err.value.offset == 2


def test_nonzero_padding_rejected():
    # n=3 has 3 pair bits; the low 3 bits of the single data byte are padding.
    with pytest.raises(Graph6Error, match="padding"):
        parse_graph6("B" + chr(63 + 0b000001))


def test_header_offsets_account_for_header():
    with pytest.raises(Graph6Error) as err:
        parse_graph6(">>graph6<<C~~")
    assert err.value.offset == len(">>graph6<<") + 2


def test_empty_and_zero_vertex_inputs():
    with pytest.raises(Graph6Error, match="empty"):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("?")  # n = 0


def test_load_graph6_file(tmp_path):
    p = tmp_path / "graphs.g6"
    p.write_text(">>graph6<<C~\nBg\n\n@\n")
    graphs = load_graph6(p)
    assert [g.n for g in graphs] == [4, 3, 1]


def test_edge_list_round_trip():
    g = parse_edge_list("4 4\n0 1\n1 2\n2 3\n3 0\n")
    assert g == Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_edge_list_errors():
    with pytest.raises(ValueError, match="header"):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(ValueError, match="announces"):
        parse_edge_list("3 2\n0 1\n")


@pytest.mark.parametrize("text, line", [
    ("3 2\n0 x\n1 2\n", "edge line 'u v', got '0 x'"),
    ("3 1\n0 1 2\n", "edge line 'u v', got '0 1 2'"),
    ("3 1\n0 1.0\n", "edge line 'u v', got '0 1.0'"),
    ("2.5 1\n0 1\n", "header 'n m', got '2.5 1'"),
    ("n 1\n0 1\n", "header 'n m', got 'n 1'"),
])
def test_edge_list_malformed_number_quotes_the_line(text, line):
    with pytest.raises(ValueError) as info:
        parse_edge_list(text)
    assert str(info.value) == f"expected {line}"


@pytest.mark.parametrize("text, pair", [("3 3\n0 1\n1 0\n1 2\n", "(1, 0)"),
                                        ("3 3\n0 1\n1 2\n0 1\n", "(0, 1)")])
def test_edge_list_rejects_repeated_edge(text, pair):
    with pytest.raises(ValueError, match=f"repeated edge {pair}".replace("(", r"\(").replace(")", r"\)")):
        parse_edge_list(text)


def test_edge_list_distinct_edges_in_either_orientation():
    assert parse_edge_list("3 3\n1 0\n2 1\n0 2\n") == complete(3)


def test_parse_matches_networkx_on_random_graphs():
    rng = np.random.default_rng(62)
    orders = [1, 2, 62, 62] + [int(n) for n in rng.integers(1, 63, size=120)]
    for n in orders:
        h = nx.gnp_random_graph(n, float(rng.uniform(0.0, 1.0)), seed=int(rng.integers(2**31)))
        text = nx.to_graph6_bytes(h, header=False).decode("ascii").rstrip("\n")
        decoded = nx.from_graph6_bytes(text.encode("ascii"))
        g = parse_graph6(text)
        assert g.n == decoded.number_of_nodes() == n
        assert set(g.edges()) == {(min(u, v), max(u, v)) for u, v in decoded.edges()}


@st.composite
def graphs(draw):
    """Any graph on 1..62 vertices (the short graph6 form), not only connected ones."""
    n = draw(st.integers(1, 62))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    return Graph(n, edges)


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_round_trip_random_graphs(g):
    text = to_graph6(g)
    assert text == reference_encode(g.n, g.edges())
    assert parse_graph6(text) == g
    assert parse_graph6(">>graph6<<" + text + "\n") == g


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=130))))
def test_parse_arbitrary_text_raises_only_graph6_error(text):
    try:
        g = parse_graph6(text)
    except Graph6Error:
        return
    assert to_graph6(g) == text.rstrip("\r\n").removeprefix(">>graph6<<")
