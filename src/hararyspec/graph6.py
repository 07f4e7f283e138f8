"""graph6 and edge-list text formats.

The edge mask of a graph holds one bit per pair i < j in column-major order
(0,1),(0,2),(1,2),(0,3),..., first pair most significant; graph6 writes it
zero-padded, six bits per byte.  ``_edge_mask`` encodes, ``_mask_graph``
decodes and ``_pack_graph6`` writes text, one graph at a time; labelling
codes whole stacks of masks (``enumeration._leaf_masks`` and ``_mask_rows``).

Only the short graph6 form (n <= 62) is supported; the long form starts
with '~' and is rejected with an explicit error.  Parse errors always
name the byte offset of the first offending byte in the original input.
"""

from __future__ import annotations

from .errors import Graph6Error
from .graphs import Graph

__all__ = [
    "parse_graph6",
    "to_graph6",
    "load_graph6",
    "parse_edge_list",
]

GRAPH6_HEADER = ">>graph6<<"
_MAX_SHORT_N = 62


def _edge_mask(adj, order):
    """Edge mask of ``adj`` relabelled so that vertex ``order[i]`` becomes i."""
    mask = 0
    for j in range(1, len(order)):
        row = adj[order[j]]
        for i in range(j):
            mask = mask << 1 | row >> order[i] & 1
    return mask


def _mask_graph(n, mask):
    """The graph on n vertices with edge mask ``mask``."""
    adj = [0] * n
    m = n * (n - 1) // 2
    for j in range(1, n):
        # column j holds the pairs (0, j), ..., (j - 1, j), highest bit first
        m -= j
        col = mask >> m & ((1 << j) - 1)
        while col:
            low = col & -col
            i = j - low.bit_length()
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            col ^= low
    return Graph._from_adj(n, adj)


def _pack_graph6(n, mask):
    """Short-form graph6 text (no header) of the n-vertex edge mask ``mask``."""
    m = n * (n - 1) // 2
    need = (m + 5) // 6
    mask <<= 6 * need - m
    return chr(63 + n) + "".join(chr(63 + (mask >> 6 * k & 63)) for k in range(need - 1, -1, -1))


def parse_graph6(text):
    """Decode one short-form graph6 line (optionally prefixed by the header)."""
    s = text.rstrip("\r\n")
    base = 0
    if s.startswith(GRAPH6_HEADER):
        base = len(GRAPH6_HEADER)
        s = s[base:]
    if not s:
        raise Graph6Error("empty graph6 string", base)
    c0 = ord(s[0])
    if c0 == 126:
        raise Graph6Error("long-form graph6 (n > 62) not supported", base)
    if not 63 <= c0 <= 126:
        raise Graph6Error(f"byte {c0} outside graph6 range 63..126", base)
    n = c0 - 63
    if n == 0:
        raise Graph6Error("graph6 encodes the empty graph; graphs here need n >= 1", base)
    m = n * (n - 1) // 2
    need = (m + 5) // 6
    body = s[1:]
    if len(body) < need:
        raise Graph6Error(
            f"invalid length: expected {need} data bytes for n={n}, got {len(body)}",
            base + 1 + len(body),
        )
    if len(body) > need:
        raise Graph6Error("trailing garbage after graph6 data", base + 1 + need)
    # The body read as one big-endian integer: the edge mask followed by
    # the padding.
    word = 0
    for k, ch in enumerate(body):
        val = ord(ch)
        if not 63 <= val <= 126:
            raise Graph6Error(f"byte {val} outside graph6 range 63..126", base + 1 + k)
        word = word << 6 | (val - 63)
    pad = 6 * need - m
    if word & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", base + need)
    return _mask_graph(n, word >> pad)


def to_graph6(g):
    """Encode a graph as a short-form graph6 string (no header)."""
    n = g.n
    if n > _MAX_SHORT_N:
        raise ValueError(f"graph6 short form limited to n <= {_MAX_SHORT_N}, got n={n}")
    return _pack_graph6(n, _edge_mask(g.adj_bits, range(n)))


def load_graph6(path):
    """Read a graph6 file: one graph per non-empty line."""
    graphs = []
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            line = line.strip()
            if line:
                graphs.append(parse_graph6(line))
    return graphs


def _int_pair(line, what):
    """The two integers on ``line``; any other line is reported as not ``what``."""
    try:
        first, second = map(int, line.split())
    except ValueError:
        raise ValueError(f"expected {what}, got {line!r}") from None
    return first, second


def parse_edge_list(text):
    """Parse the plain edge-list format: a header line "n m" then m lines "u v"."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    n, m = _int_pair(lines[0], "header 'n m'")
    if len(lines) - 1 != m:
        raise ValueError(f"header announces {m} edges but {len(lines) - 1} lines follow")
    edges = {}  # an insertion-ordered set
    for ln in lines[1:]:
        edge = _int_pair(ln, "edge line 'u v'")
        if edge in edges or edge[::-1] in edges:
            raise ValueError(f"repeated edge {edge} in edge list")
        edges[edge] = None
    return Graph(n, edges)
