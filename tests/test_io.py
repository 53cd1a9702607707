"""graph6 and edge-list parsing and emission."""

import sys

import pytest

from graphirr import (
    FormatError,
    Graph,
    emit_edgelist,
    emit_graph6,
    parse_edgelist,
    parse_graph6,
)
from graphirr.generators import complete, path, star


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
    with pytest.raises(FormatError):
        parse_graph6("B\x1e")  # byte below 63
    with pytest.raises(FormatError):
        parse_graph6("BÈ")  # non-ASCII
    with pytest.raises(FormatError):
        parse_graph6("~??")  # multi-byte vertex count unsupported


def test_graph6_length_must_be_exact():
    with pytest.raises(FormatError):
        parse_graph6("B")  # missing adjacency byte
    with pytest.raises(FormatError):
        parse_graph6("Bww")  # trailing byte


def test_graph6_padding_bits_lenient():
    # 'w' and '~' share the three adjacency bits for n=3, differ in padding
    assert parse_graph6("B~") == parse_graph6("Bw")


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
