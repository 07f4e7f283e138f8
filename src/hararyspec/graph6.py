"""graph6 and edge-list text formats.

Only the short graph6 form (n <= 62) is supported; the long form starts
with '~' and is rejected with an explicit error.  Parse errors always
name the byte offset of the first offending byte in the original input.
"""

from __future__ import annotations

from .errors import Graph6Error
from .graphs import Graph, triangle_pairs

__all__ = [
    "GRAPH6_HEADER",
    "parse_graph6",
    "to_graph6",
    "load_graph6",
    "parse_edge_list",
    "format_edge_list",
]

GRAPH6_HEADER = ">>graph6<<"
_MAX_SHORT_N = 62


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
    # The body read as one big-endian integer: pair bit t of the
    # column-major order sits at position m - 1 - t, after the padding.
    word = 0
    for k, ch in enumerate(body):
        val = ord(ch)
        if not 63 <= val <= 126:
            raise Graph6Error(f"byte {val} outside graph6 range 63..126", base + 1 + k)
        word = word << 6 | (val - 63)
    pad = 6 * need - m
    if word & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", base + need)
    word >>= pad
    adj = [0] * n
    for j in range(1, n):
        # column j holds the pairs (0, j), ..., (j - 1, j), highest bit first
        m -= j
        col = word >> m & ((1 << j) - 1)
        while col:
            low = col & -col
            i = j - low.bit_length()
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            col ^= low
    return Graph._from_adj(n, adj)


def to_graph6(g):
    """Encode a graph as a short-form graph6 string (no header)."""
    n = g.n
    if n > _MAX_SHORT_N:
        raise ValueError(f"graph6 short form limited to n <= {_MAX_SHORT_N}, got n={n}")
    bits = [1 if g.has_edge(i, j) else 0 for i, j in triangle_pairs(n)]
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        chars.append(chr(63 + val))
    return "".join(chars)


def load_graph6(path):
    """Read a graph6 file: one graph per non-empty line."""
    graphs = []
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            line = line.strip()
            if line:
                graphs.append(parse_graph6(line))
    return graphs


def parse_edge_list(text):
    """Parse the plain edge-list format: a header line "n m" then m lines "u v"."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"expected header 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header announces {m} edges but {len(lines) - 1} lines follow")
    edges = {}  # an insertion-ordered set
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"expected edge line 'u v', got {ln!r}")
        edge = (int(parts[0]), int(parts[1]))
        if edge in edges or edge[::-1] in edges:
            raise ValueError(f"repeated edge {edge} in edge list")
        edges[edge] = None
    return Graph(n, edges)


def format_edge_list(g):
    """Serialize a graph in the edge-list format."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
