"""Text formats for graphs: a small edge-list format and graph6.

Edge-list format: first line ``n <vertex-count>``, then one ``u v`` line per
edge with 0-based indices.  Duplicate edges collapse; self-loops are rejected.

graph6 (n <= 62 only): header byte 63+n, then the upper triangle in column
order (0,1),(0,2),(1,2),(0,3),... packed big-endian into 6-bit groups, each
group emitted as one byte offset by 63 and zero-padded at the end.  That
column order is pair_order(n), so a graph's bitmask over it, pair k in bit k,
is the payload: the encoder writes a mask's 6-bit groups in plain Python,
each through a table of bit-reversed values.  The decoder gathers a whole
string's bits with numpy, which it imports when first called.
"""

from __future__ import annotations

import functools
import sys
from typing import TYPE_CHECKING

from .graphs import Graph

if TYPE_CHECKING:
    import numpy as np

__all__ = ["FormatError", "parse_edgelist", "emit_edgelist", "parse_graph6", "emit_graph6"]

GRAPH6_HEADER = ">>graph6<<"
GRAPH6_MAX_N = 62
_GRAPH6_BYTES = bytes(range(63, 127))
# the graph6 character of each 6-bit group of a pair mask: the group's bit k
# (pair 6g + k) becomes bit 5 - k of the character's code, which is offset by 63
_GRAPH6_GROUPS = tuple(chr(63 + int(f"{value:06b}"[::-1], 2)) for value in range(64))


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
    import numpy as np
    bits = np.unpackbits(np.frombuffer(data, np.uint8) - 63)
    rows = np.packbits(bits[_gather_table(n)], axis=1, bitorder="little")
    return Graph._from_masks(n, rows.view("<u8")[:, 0].tolist())


@functools.cache
def _gather_table(n: int) -> np.ndarray:
    """(n, 64) positions in a graph6 string's unpacked bits, header included:
    entry (v, u) is pair {u, v}'s bit, so row v packs into v's neighbour mask.
    Pair k is unpacked bit 2 + k % 6 of byte 1 + k // 6.  Entries with u = v or
    u >= n are 0, the header's top bit, clear because the header minus 63 is n."""
    import numpy as np
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
    # vertex j's neighbours i < j are pairs C(j,2) + i of pair_order(n)
    mask = sum((g.neighbor_mask(j) & ((1 << j) - 1)) << j * (j - 1) // 2 for j in range(g.n))
    return _emit_graph6_mask(g.n, mask)


def _emit_graph6_mask(n: int, mask: int) -> str:
    """The graph6 string of the graph on n <= GRAPH6_MAX_N vertices whose
    bitmask over pair_order(n) is ``mask``, a 6-bit group at a time."""
    groups = (n * (n - 1) // 2 + 5) // 6
    return chr(63 + n) + "".join([_GRAPH6_GROUPS[mask >> shift & 63] for shift in range(0, 6 * groups, 6)])
