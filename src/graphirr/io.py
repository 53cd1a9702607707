"""Text formats for graphs: a small edge-list format and graph6.

Edge-list format: first line ``n <vertex-count>``, then one ``u v`` line per
edge with 0-based indices.  Duplicate edges collapse; self-loops are rejected.

graph6 (n <= 62 only): header byte 63+n, then the upper triangle in column
order (0,1),(0,2),(1,2),(0,3),... packed big-endian into 6-bit groups, each
group emitted as one byte offset by 63 and zero-padded at the end.  That
column order is pair_order(n), so a graph's bitmask over it, pair k in bit k,
is the payload: the encoder writes a mask's 6-bit groups in plain Python,
each through a table of bit-reversed values.  The decoder reads the mask
back in plain Python: the payload reversed, each byte turned into the
base64 character of its bit-reversed group, and decoded by binascii as one
big-endian number.  The graph it returns holds that mask for its whole
life, and decodes its neighbour masks beside it at the first neighbour read.
"""

from __future__ import annotations

import binascii
import sys

from .graphs import Graph

__all__ = ["FormatError", "parse_edgelist", "emit_edgelist", "parse_graph6", "emit_graph6"]

GRAPH6_HEADER = ">>graph6<<"
GRAPH6_MAX_N = 62
_GRAPH6_BYTES = bytes(range(63, 127))
# group g of a pair mask holds pair 6g + k in bit k, its graph6 character (minus 63) in bit 5 - k
_REVERSED = [int(f"{value:06b}"[::-1], 2) for value in range(64)]
_GRAPH6_GROUPS = tuple(chr(63 + value) for value in _REVERSED)
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GROUPS_BASE64 = bytes.maketrans(_GRAPH6_BYTES, bytes(_BASE64[value] for value in _REVERSED))


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
    if data.translate(None, _GRAPH6_BYTES):
        pos = next(i for i, byte in enumerate(data) if byte not in _GRAPH6_BYTES)
        raise FormatError(f"byte {data[pos]} at position {pos} outside graph6 range [63, 126]")
    if data[0] == 126:
        raise FormatError(f"multi-byte vertex counts (n > {GRAPH6_MAX_N}) are not supported")
    n = data[0] - 63
    if n < 1:
        raise FormatError("graph6 vertex count must be >= 1")
    expected = (n * (n - 1) // 2 + 5) // 6
    if len(data) - 1 != expected:
        raise FormatError(
            f"graph6 bit field for n={n} needs {expected} bytes, got {len(data) - 1}"
        )
    # the last group first, each as the base64 digit of its value, led by
    # zero digits to a whole number of 4-digit quanta
    digits = data[:0:-1].translate(_GROUPS_BASE64)
    pairs = int.from_bytes(binascii.a2b_base64(b"A" * (-expected % 4) + digits), "big")
    return Graph.from_pair_mask(n, pairs & ((1 << n * (n - 1) // 2) - 1))  # padding bits cleared


def emit_graph6(g: Graph) -> str:
    """Serialize g as a graph6 string."""
    if g.n > GRAPH6_MAX_N:
        raise FormatError(f"graph6 output supports n <= {GRAPH6_MAX_N}, got n={g.n}")
    # vertex j's neighbours i < j are pairs C(j,2) + i of pair_order(n)
    mask = sum(lower << j * (j - 1) // 2 for j, lower in enumerate(g._lower()))
    return _emit_graph6_mask(g.n, mask)


def _emit_graph6_mask(n: int, mask: int) -> str:
    """The graph6 string of the graph on n <= GRAPH6_MAX_N vertices whose
    bitmask over pair_order(n) is ``mask``, a 6-bit group at a time."""
    groups = (n * (n - 1) // 2 + 5) // 6
    return chr(63 + n) + "".join([_GRAPH6_GROUPS[mask >> shift & 63] for shift in range(0, 6 * groups, 6)])
