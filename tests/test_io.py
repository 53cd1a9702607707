"""graph6 and edge-list parsing and emission."""

import random
import sys

import numpy as np
import pytest

from graphirr import (
    FormatError,
    Graph,
    emit_edgelist,
    emit_graph6,
    pair_order,
    parse_edgelist,
    parse_graph6,
)
from graphirr import graphs
from graphirr.generators import complete, gnp, path, star
from graphirr.io import GRAPH6_MAX_N, _emit_graph6_mask


def test_parse_graph6_known_strings():
    k3 = parse_graph6("Bw")
    assert k3.n == 3 and k3.m == 3
    p3 = parse_graph6("Bg")
    assert p3.n == 3 and sorted(p3.degrees()) == [1, 1, 2]
    assert p3.has_edge(0, 1) and p3.has_edge(1, 2)
    k1 = parse_graph6("@")
    assert k1.n == 1 and k1.m == 0


def test_emit_graph6_known_strings():
    assert emit_graph6(complete(3)) == "Bw"
    assert emit_graph6(Graph(3, [(0, 1), (1, 2)])) == "Bg"
    assert emit_graph6(complete(1)) == "@"


def test_graph6_round_trip_exhaustive_small():
    for n in (1, 2, 3, 4):
        npairs = n * (n - 1) // 2
        for mask in range(1 << npairs):
            g = Graph.from_pair_mask(n, mask)
            assert parse_graph6(emit_graph6(g)) == g


def test_graph6_header_prefix_stripped():
    assert parse_graph6(">>graph6<<Bw") == complete(3)


def test_graph6_bad_bytes():
    with pytest.raises(FormatError):
        parse_graph6("")
    with pytest.raises(FormatError, match="outside graph6 range"):
        parse_graph6("B!")  # byte below 63, kept by str.strip
    with pytest.raises(FormatError):
        parse_graph6("BÈ")  # non-ASCII
    with pytest.raises(FormatError):
        parse_graph6("~??")  # multi-byte vertex count unsupported


@pytest.mark.parametrize("text, message", [
    ("", "empty graph6 string"),
    (">>graph6<<", "empty graph6 string"),
    ("GÈ????", "graph6 string contains non-ASCII characters"),
    ("G?!(??", "byte 33 at position 2 outside graph6 range [63, 126]"),  # the first of two
    ("~??", "multi-byte vertex counts (n > 62) are not supported"),
    ("?", "graph6 vertex count must be >= 1"),
    ("G????", "graph6 bit field for n=8 needs 5 bytes, got 4"),
    ("G??????", "graph6 bit field for n=8 needs 5 bytes, got 6"),
])
def test_graph6_error_messages(text, message):
    with pytest.raises(FormatError) as caught:
        parse_graph6(text)
    assert str(caught.value) == message


def test_graph6_every_one_edge_graph_decodes_to_its_edge():
    # pair k is bit 5 - k % 6 of payload byte k // 6: each string sets one pair
    # bit, written here without the encoder, at every order graph6 takes
    for n in range(2, GRAPH6_MAX_N + 1):
        groups = (n * (n - 1) // 2 + 5) // 6
        for k, (i, j) in enumerate(pair_order(n)):
            payload = bytearray(b"?" * groups)
            payload[k // 6] += 32 >> k % 6
            g = parse_graph6(chr(63 + n) + payload.decode())
            assert g.m == 1 and g.has_edge(i, j) and g.has_edge(j, i), (n, i, j)


def test_graph6_set_padding_bits_leave_a_graph_edgeless():
    for n in range(2, GRAPH6_MAX_N + 1):
        pairs = n * (n - 1) // 2
        if pairs % 6:
            payload = "?" * (pairs // 6) + chr(63 + (1 << (6 - pairs % 6)) - 1)
            assert parse_graph6(chr(63 + n) + payload) == Graph(n), n


def test_graph6_decoder_matches_a_bit_by_bit_oracle():
    # random payloads, padding bits included, at every order graph6 takes: pair
    # k is bit 5 - k % 6 of payload byte k // 6, read here without the decoder
    rng = random.Random(24)
    lines, expected = [], []
    for n in range(1, GRAPH6_MAX_N + 1):
        pairs = pair_order(n)
        for _ in range(4):
            payload = bytes(rng.randrange(64) for _ in range((len(pairs) + 5) // 6))
            lines.append(chr(63 + n) + bytes(63 + byte for byte in payload).decode())
            expected.append(Graph(n, (pair for k, pair in enumerate(pairs)
                                      if payload[k // 6] >> 5 - k % 6 & 1)))
    for line, h in zip(lines, expected):
        g = parse_graph6(line)
        assert g._pairs is not None and g.degrees() == h.degrees() and g.m == h.m, line
        assert g == h and hash(g) == hash(h), line  # both read the lower masks off the pair mask
        assert g._pairs is not None and g.edges() == h.edges(), line
        assert g._neighbours() == h._adj and g._pairs is not None, line  # decoded beside the mask
        assert g.degrees() == h.degrees(), line
    # a block's adjacency stack, built off the pair masks, is the edge-built
    # graphs' to the byte, and leaves every graph held as its pair mask
    for n in range(1, GRAPH6_MAX_N + 1):
        block = [parse_graph6(line) for line in lines if line[0] == chr(63 + n)]
        oracle = [h for line, h in zip(lines, expected) if line[0] == chr(63 + n)]
        assert graphs.adjacency_stack(block).tobytes() == graphs.adjacency_stack(oracle).tobytes(), n
        assert all(g._pairs is not None for g in block), n


def test_graph6_length_must_be_exact():
    with pytest.raises(FormatError):
        parse_graph6("B")  # missing adjacency byte
    with pytest.raises(FormatError):
        parse_graph6("Bww")  # trailing byte


def test_graph6_padding_bits_lenient():
    # 'w' and '~' share the three adjacency bits for n=3, differ in padding
    assert parse_graph6("B~") == parse_graph6("Bw")


def test_emit_graph6_matches_networkx_for_every_order():
    nx = pytest.importorskip("networkx")
    for n in range(1, 63):
        g = gnp(n, 0.3, seed=n)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        assert emit_graph6(g) == nx.to_graph6_bytes(h, header=False).decode().strip(), n


def networkx_graph6(nx, n, mask):
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(pair for k, pair in enumerate(pair_order(n)) if mask >> k & 1)
    return nx.to_graph6_bytes(h, header=False).decode().strip()


def test_graph6_mask_encoder_matches_networkx():
    # every mask up to n = 5, and seeded samples at n = 6..8; at n = 8 the 28
    # pair bits leave two pad bits in the last 6-bit group
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(2019)
    for n in range(1, 9):
        pairs = n * (n - 1) // 2
        masks = list(range(1 << pairs)) if n <= 5 else rng.integers(0, 1 << pairs, 500).tolist()
        assert [_emit_graph6_mask(n, mask) for mask in masks] == [
            networkx_graph6(nx, n, mask) for mask in masks], n


def test_emit_graph6_rejects_large_n():
    with pytest.raises(ValueError):
        emit_graph6(Graph(63, []))
    assert parse_graph6(emit_graph6(Graph(62, [(0, 61)]))).has_edge(0, 61)


def test_parse_edgelist_basic():
    g = parse_edgelist("n 4\n0 1\n1 2\n2 3\n")
    assert g == path(4)


def test_parse_edgelist_skips_blanks_and_collapses_duplicates():
    g = parse_edgelist("\n n 3 \n\n0 1\n1 0\n\n")
    assert g.n == 3 and g.m == 1


def test_edgelist_round_trip():
    for g in (path(5), star(6), complete(4), Graph(3, [])):
        assert parse_edgelist(emit_edgelist(g)) == g


def test_emit_edgelist_format():
    assert emit_edgelist(Graph(3, [(0, 2)])) == "n 3\n0 2\n"


def test_parse_edgelist_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 1"):
        parse_edgelist("3\n0 1\n")  # header must start with the n keyword
    with pytest.raises(FormatError, match="line 2"):
        parse_edgelist("n 3\n0 x\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_edgelist("n 3\n0 1\n1 1\n")  # self-loop
    with pytest.raises(FormatError, match="line 2"):
        parse_edgelist("n 3\n0 3\n")  # vertex out of range
    with pytest.raises(FormatError, match="line 2"):
        parse_edgelist("n 3\n0 1 2\n")  # malformed edge line


def test_parse_edgelist_rejects_counts_too_large_to_hold():
    # the count overflows a list size, so it must be refused as text, not built
    with pytest.raises(FormatError, match="line 2: vertex count 9999999999999999999999 is outside 1.."):
        parse_edgelist("\nn 9999999999999999999999\n0 1\n")
    with pytest.raises(FormatError, match="line 1"):
        parse_edgelist(f"n {sys.maxsize + 1}\n")


def test_parse_edgelist_rejects_bad_headers():
    with pytest.raises(FormatError):
        parse_edgelist("")
    with pytest.raises(FormatError):
        parse_edgelist("n 0\n")
    with pytest.raises(FormatError):
        parse_edgelist("n -2\n")
    with pytest.raises(FormatError):
        parse_edgelist("n two\n")
