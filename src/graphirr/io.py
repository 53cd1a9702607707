"""Text formats for graphs: a small edge-list format and graph6.

Edge-list format: first line ``n <vertex-count>``, then one ``u v`` line per
edge with 0-based indices.  Duplicate edges collapse; self-loops are rejected.

graph6 (n <= 62 only): header byte 63+n, then the upper triangle in column
order (0,1),(0,2),(1,2),(0,3),... packed big-endian into 6-bit groups, each
group emitted as one byte offset by 63 and zero-padded at the end.
"""

from __future__ import annotations

import sys

from .graphs import Graph, pair_order

__all__ = ["FormatError", "parse_edgelist", "emit_edgelist", "parse_graph6", "emit_graph6"]

GRAPH6_HEADER = ">>graph6<<"
GRAPH6_MAX_N = 62


class FormatError(ValueError):
    """Raised when graph text cannot be decoded or encoded."""


def parse_edgelist(text: str) -> Graph:
    """Parse the edge-list format into a Graph."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise FormatError(f"line {lineno}: expected header 'n <count>', got {line!r}")
            try:
                n = int(tokens[1])
            except ValueError:
                raise FormatError(f"line {lineno}: vertex count {tokens[1]!r} is not an integer") from None
            if not 1 <= n <= sys.maxsize:
                raise FormatError(f"line {lineno}: vertex count {n} is outside 1..{sys.maxsize}")
            continue
        if len(tokens) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer vertex in {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {lineno}: vertex out of range 0..{n - 1} in {line!r}")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v))
    if n is None:
        raise FormatError("empty input: missing 'n <count>' header")
    return Graph(n, edges)


def emit_edgelist(g: Graph) -> str:
    """Serialize g in the edge-list format."""
    lines = [f"n {g.n}"]
    lines.extend(f"{i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 string (optionally prefixed with '>>graph6<<')."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].lstrip()
    if not s:
        raise FormatError("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise FormatError("graph6 string contains non-ASCII characters") from None
    for pos, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise FormatError(f"byte {byte} at position {pos} outside graph6 range [63, 126]")
    if data[0] == 126:
        raise FormatError(f"multi-byte vertex counts (n > {GRAPH6_MAX_N}) are not supported")
    n = data[0] - 63
    if n < 1:
        raise FormatError("graph6 vertex count must be >= 1")
    npairs = n * (n - 1) // 2
    expected = (npairs + 5) // 6
    if len(data) - 1 != expected:
        raise FormatError(
            f"graph6 bit field for n={n} needs {expected} bytes, got {len(data) - 1}"
        )
    mask = 0
    for k in range(npairs):
        byte = data[1 + k // 6] - 63
        bit = (byte >> (5 - k % 6)) & 1  # bits are packed big-endian within each group
        if bit:
            mask |= 1 << k
    return Graph.from_pair_mask(n, mask)


def emit_graph6(g: Graph) -> str:
    """Serialize g as a graph6 string."""
    if g.n > GRAPH6_MAX_N:
        raise FormatError(f"graph6 output supports n <= {GRAPH6_MAX_N}, got n={g.n}")
    out = [chr(63 + g.n)]
    group = 0
    width = 0
    for i, j in pair_order(g.n):
        group = (group << 1) | int(g.has_edge(i, j))
        width += 1
        if width == 6:
            out.append(chr(63 + group))
            group = 0
            width = 0
    if width:
        out.append(chr(63 + (group << (6 - width))))
    return "".join(out)
