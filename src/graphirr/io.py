"""Text formats for graphs: a small edge-list format and graph6.

Edge-list format: first line ``n <vertex-count>``, then one ``u v`` line per
edge with 0-based indices.  Duplicate edges collapse; self-loops are rejected.

graph6 (n <= 62 only): header byte 63+n, then the upper triangle in column
order (0,1),(0,2),(1,2),(0,3),... packed big-endian into 6-bit groups, each
group emitted as one byte offset by 63 and zero-padded at the end.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

from .graphs import Graph, adjacency_stack

__all__ = ["FormatError", "parse_edgelist", "emit_edgelist", "parse_graph6", "emit_graph6"]

GRAPH6_HEADER = ">>graph6<<"
GRAPH6_MAX_N = 62
_GRAPH6_BYTES = bytes(range(63, 127))


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
    bits = np.unpackbits(np.frombuffer(data, np.uint8) - 63)
    rows = np.packbits(bits[_gather_table(n)], axis=1, bitorder="little")
    return Graph._from_masks(n, rows.view("<u8")[:, 0].tolist())


@functools.cache
def _gather_table(n: int) -> np.ndarray:
    """(n, 64) positions in a graph6 string's unpacked bits, header included:
    entry (v, u) is pair {u, v}'s bit, so row v packs into v's neighbour mask.
    Pair k is unpacked bit 2 + k % 6 of byte 1 + k // 6.  Entries with u = v or
    u >= n are 0, the header's top bit, clear because the header minus 63 is n."""
    v, u = np.indices((n, 64))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    k = hi * (hi - 1) // 2 + lo
    table = np.where((u != v) & (u < n), 8 + 8 * (k // 6) + 2 + k % 6, 0)
    table.flags.writeable = False
    return table


def emit_graph6(g: Graph) -> str:
    """Serialize g as a graph6 string."""
    if g.n > GRAPH6_MAX_N:
        raise FormatError(f"graph6 output supports n <= {GRAPH6_MAX_N}, got n={g.n}")
    adjacency = adjacency_stack([g], np.empty((1, g.n, g.n), np.uint8))
    # row j's columns i < j, read row by row, are the pairs in pair order
    return _emit_graph6_rows(g.n, adjacency[:, np.tri(g.n, k=-1, dtype=bool)])[0]


def _emit_graph6_rows(n: int, bits: np.ndarray) -> list[str]:
    """The graph6 strings of graphs on n <= GRAPH6_MAX_N vertices, one per row of
    ``bits``: (B, C(n,2)) 0/1 uint8 flags over pair_order(n), each row packed
    into 6-bit groups as the module docstring lays out."""
    rows, pairs = bits.shape
    groups = -(-pairs // 6)
    padded = np.zeros((rows, 6 * groups), np.uint8)  # zero-pad the last 6-bit group
    padded[:, :pairs] = bits
    # each 6-bit group, big-endian, into the low bits of its byte
    text = np.full((rows, 1 + groups), 63 + n, np.uint8)
    text[:, 1:] = (np.packbits(padded.reshape(rows, groups, 6), axis=2)[:, :, 0] >> 2) + 63
    return text.view(f"S{1 + groups}").ravel().astype(str).tolist()
