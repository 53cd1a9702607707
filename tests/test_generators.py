"""Named graph families and the seeded random generator."""

import math

import pytest

from graphirr import FAMILIES, degree_sequence, family, is_connected, n0
from graphirr.generators import (
    antiregular,
    complete,
    complete_minus_edge,
    complete_split,
    cycle,
    gnp,
    path,
    star,
)


def test_antiregular_degree_sets():
    for n in range(2, 9):
        g = antiregular(n)
        assert is_connected(g)
        degrees = sorted(g.degrees())
        assert len(set(degrees)) == n - 1
        assert n0(degree_sequence(g)) == 1


def test_antiregular_6_row_facts():
    g = antiregular(6)
    assert sorted(g.degrees(), reverse=True) == [5, 4, 3, 3, 2, 1]
    assert g.m == 9


def test_antiregular_rejects_single_vertex():
    with pytest.raises(ValueError):
        antiregular(1)


def test_path_cycle_complete_star():
    assert path(1).m == 0 and path(1).n == 1
    assert path(5).m == 4 and sorted(path(5).degrees()) == [1, 1, 2, 2, 2]
    assert cycle(3).m == 3 and cycle(3) == complete(3)
    assert set(cycle(6).degrees()) == {2}
    assert complete(5).m == 10
    assert star(6).degrees() == (5, 1, 1, 1, 1, 1)
    assert star(2) == complete(2)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        star(1)


def test_complete_split():
    g = complete_split(6, 2)
    assert sorted(g.degrees(), reverse=True) == [5, 5, 2, 2, 2, 2]
    assert g.m == 1 + 2 * 4
    assert complete_split(4, 3) == complete(4)
    assert complete_split(6, 1) == star(6)
    with pytest.raises(ValueError):
        complete_split(6, 0)
    with pytest.raises(ValueError):
        complete_split(6, 6)


def test_complete_minus_edge():
    g = complete_minus_edge(6)
    assert g.m == math.comb(6, 2) - 1
    assert sorted(g.degrees(), reverse=True) == [5, 5, 5, 5, 4, 4]
    assert complete_minus_edge(2).m == 0


def test_gnp_determinism_and_extremes():
    assert gnp(10, 0.5, seed=42) == gnp(10, 0.5, seed=42)
    assert gnp(10, 0.5, seed=42) != gnp(10, 0.5, seed=43)
    assert gnp(8, 0.0, seed=7).m == 0
    assert gnp(8, 1.0, seed=7) == complete(8)


def test_gnp_validation():
    with pytest.raises(ValueError):
        gnp(5, -0.1, seed=1)
    with pytest.raises(ValueError):
        gnp(5, 1.1, seed=1)
    with pytest.raises(ValueError):
        gnp(5, 0.5, seed=-1)
    with pytest.raises(ValueError):
        gnp(5, 0.5, seed=1 << 64)
    with pytest.raises(ValueError):
        gnp(0, 0.5, seed=1)


def test_gnp_edge_rate_is_plausible():
    g = gnp(40, 0.3, seed=123)
    pairs = math.comb(40, 2)
    # crude 5-sigma band around p * C(n,2)
    expected = 0.3 * pairs
    spread = 5 * math.sqrt(pairs * 0.3 * 0.7)
    assert abs(g.m - expected) < spread


def test_family_dispatcher():
    assert family("antiregular", 6) == antiregular(6)
    assert family("path", 4) == path(4)
    assert family("complete_split", 6, k=2) == complete_split(6, 2)
    assert family("gnp", 8, p=0.5, seed=3) == gnp(8, 0.5, seed=3)
    assert FAMILIES == ("antiregular", "path", "cycle", "complete", "star",
                        "complete_split", "complete_minus_edge", "gnp")


def test_family_dispatcher_validation():
    with pytest.raises(ValueError, match=r"^unknown family 'mystery'; expected one of \("):
        family("mystery", 5)
    with pytest.raises(ValueError, match=r"^complete_split needs k \(clique size\)$"):
        family("complete_split", 6)
    with pytest.raises(ValueError, match="^gnp needs p and seed$"):
        family("gnp", 6, p=0.5)
    with pytest.raises(ValueError, match="^gnp needs p and seed$"):
        family("gnp", 6, seed=1)
    with pytest.raises(ValueError, match="^family 'path' takes no k/p/seed parameters$"):
        family("path", 6, k=2)
