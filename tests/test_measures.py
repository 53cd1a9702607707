"""Degree-based measures against hand-computed and brute-force oracles."""

import itertools
import math
import statistics
import sys
from fractions import Fraction

import numpy as np
import pytest

import reference_measures
from graphirr import (
    Graph,
    albertson,
    compute_all,
    degree_deviation,
    degree_sequence,
    degree_set_size,
    discrepancy,
    format_value,
    gini,
    gini_sequence,
    ira,
    irb,
    irr_t,
    n0,
    nk_spectrum,
    round_half_away,
    sigma,
    variance,
)
from graphirr import measures
from graphirr.generators import complete, complete_minus_edge, cycle, gnp, path, star
from graphirr.io import emit_graph6, parse_graph6
from graphirr.spectral import Lambda1Batch


def gini_double_sum(values):
    """Textbook mean-absolute-difference Gini, independent of the package formula."""
    n = len(values)
    mean = sum(values) / n
    return sum(abs(a - b) for a in values for b in values) / (2 * n * n * mean)


def test_star_k15_row():
    g = star(6)
    d = degree_sequence(g)
    assert nk_spectrum(d).counts == {0: 10, 4: 5}
    assert irr_t(d) == 20
    assert n0(d) == 10
    assert ira(d) == 0.5
    assert irb(d) == pytest.approx(1 / 3, abs=1e-15)
    assert gini(d) == pytest.approx(1 / 3, abs=1e-15)
    assert variance(d) == pytest.approx(20 / 9, abs=1e-12)
    assert discrepancy(d) == pytest.approx(10 / 9, abs=1e-12)
    assert degree_deviation(d) == pytest.approx(20 / 3, abs=1e-12)
    assert albertson(g) == 20
    assert sigma(g) == 80
    assert degree_set_size(d) == 2


def test_path4_row():
    g = path(4)
    d = degree_sequence(g)
    assert irr_t(d) == 4
    assert n0(d) == 2
    assert ira(d) == 2.0
    assert irb(d) == pytest.approx(2 / 3, abs=1e-15)
    assert albertson(g) == 2
    assert sigma(g) == 2
    assert gini(d) == pytest.approx(1 / 6, abs=1e-15)


def test_regular_graphs_have_zero_irregularity():
    for g in (complete(4), cycle(5), complete(2)):
        d = degree_sequence(g)
        assert irr_t(d) == 0
        assert gini(d) == 0.0
        assert ira(d) == 0.0
        assert irb(d) == 0.0
        assert n0(d) == math.comb(g.n, 2)
        assert albertson(g) == 0
        assert sigma(g) == 0


def test_degree_counts_zero_degree_vertices():
    # isolated vertices form an equal-degree class too
    g = Graph(4, [(0, 1)])
    assert n0(degree_sequence(g)) == 1 + 1  # the two degree-1 and the two degree-0


def test_measures_accept_plain_iterables():
    assert irr_t([1, 2, 2, 1]) == 4
    assert n0((3, 1, 1, 1)) == 3
    assert ira([2, 2, 2]) == 0.0
    assert irr_t(np.array([3, 1])) == 2  # numpy integers are integers


def test_measures_reject_non_integer_degrees():
    # these were truncated or parsed, so they returned 2, 1 and 2
    with pytest.raises(ValueError, match="integers"):
        irr_t([2.9, 2.1, 1])
    with pytest.raises(ValueError, match="integers"):
        n0([2.9, 2.1, 1])
    with pytest.raises(ValueError, match="integers"):
        irr_t(["3", "1"])


def test_nk_spectrum_properties():
    d = degree_sequence(star(6))
    spec = nk_spectrum(d)
    assert spec.total_pairs == math.comb(6, 2)
    assert spec.weighted_sum == irr_t(d)
    assert 0 not in [c for c in spec.counts.values()]  # zero counts omitted
    with pytest.raises(ValueError):
        nk_spectrum([5])


def test_gini_requires_edges():
    with pytest.raises(ValueError):
        gini([0, 0, 0])


def test_n0_requires_two_vertices():
    with pytest.raises(ValueError):
        n0([3])


def test_gini_matches_double_sum_oracle():
    for seed in range(30):
        g = gnp(8, 0.4, seed=seed)
        if g.m == 0:
            continue
        d = degree_sequence(g)
        assert gini(d) == pytest.approx(gini_double_sum(list(d)), abs=1e-12)


def test_gini_sequence_incomes():
    assert gini_sequence([3, 1]) == pytest.approx(0.25, abs=1e-15)
    assert gini_sequence([1, 1, 1]) == 0.0
    assert gini_sequence([5.0, 3.0, 1.0]) == pytest.approx(gini_double_sum([5, 3, 1]), abs=1e-12)
    with pytest.raises(ValueError):
        gini_sequence([])
    with pytest.raises(ValueError):
        gini_sequence([1, -1, 2])
    with pytest.raises(ValueError):
        gini_sequence([0, 0])


def test_gini_agrees_with_gini_sequence_on_degrees():
    for seed in range(20):
        g = gnp(7, 0.5, seed=seed)
        if g.m == 0:
            continue
        d = degree_sequence(g)
        assert gini(d) == pytest.approx(gini_sequence(d), rel=1e-12)


def test_irr_t_is_degree_determined_but_albertson_is_not():
    # same degree multiset (2,2,2,1,1), different adjacency
    p5 = path(5)
    c3_plus_p2 = Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    assert sorted(p5.degrees()) == sorted(c3_plus_p2.degrees())
    assert irr_t(degree_sequence(p5)) == irr_t(degree_sequence(c3_plus_p2))
    assert albertson(p5) == 2
    assert albertson(c3_plus_p2) == 0


def test_rounding_half_away_from_zero():
    assert round_half_away(0.0005, 3) == 0.001
    assert round_half_away(-0.0005, 3) == -0.001
    assert round_half_away(2.6665, 3) == 2.667
    assert round_half_away(1.2344, 3) == 1.234
    assert round_half_away(14.0, 3) == 14.0
    assert round_half_away(0.93333333, 3) == 0.933


def test_format_value():
    assert format_value(None) == ""
    assert format_value(7) == "7"
    assert format_value(True) == "True"
    assert format_value(14.0) == "14.000"
    assert format_value(1 / 3) == "0.333"
    assert format_value(0.0005, 3) == "0.001"


def test_format_value_is_fixed_point_at_every_precision():
    assert format_value(0.0, 9) == "0.000000000"
    assert format_value(-1e-12, 9) == "0.000000000"
    assert format_value(1e-7, 7) == "0.0000001"
    assert format_value(2.5, 0) == "3"
    assert format_value(1 / 3, 15) == "0.333333333333333"
    assert round_half_away(1 / 3, 15) == 0.333333333333333


def test_large_values_keep_15_decimals():
    # more digits than Decimal's default 28-digit precision holds
    assert format_value(1e14, 15) == "100000000000000." + "0" * 15
    assert format_value(-1e14, 15) == "-100000000000000." + "0" * 15
    assert round_half_away(1e14, 15) == 1e14
    assert round_half_away(-1e14, 15) == -1e14
    assert format_value(1e300, 15) == "1" + "0" * 300 + "." + "0" * 15
    assert round_half_away(1e300, 15) == 1e300
    assert format_value(9.9995, 3) == "10.000"  # rounding carries into a new digit
    # the largest finite double: 309 integer digits, all 15 places kept
    digits = "17976931348623157" + "0" * 292 + "." + "0" * 15
    assert format_value(sys.float_info.max, 15) == digits
    assert format_value(-sys.float_info.max, 15) == "-" + digits
    assert round_half_away(sys.float_info.max, 15) == sys.float_info.max
    assert round_half_away(-sys.float_info.max, 15) == -sys.float_info.max


def test_non_finite_values_are_refused_with_value_error():
    # a ValueError, which the CLI reports on one line, not decimal's ArithmeticError
    for fn, x in ((format_value, math.inf), (format_value, -math.inf), (format_value, math.nan),
                  (round_half_away, math.inf)):
        with pytest.raises(ValueError, match=f"^cannot round {x}$"):
            fn(x, 3)


def test_decimals_outside_0_to_15_rejected():
    for bad in (-1, 16, 400):
        with pytest.raises(ValueError, match="0..15"):
            format_value(1.0, bad)
        with pytest.raises(ValueError, match="0..15"):
            round_half_away(1.0, bad)
    assert format_value(7, 400) == "7"  # integers are never rounded


def test_compute_all_matches_single_measures():
    """Each measure of the report against its own brute-force form."""
    for seed in range(30):
        g = gnp(4 + seed % 20, 0.3, seed=seed)
        if g.m == 0:
            continue
        r = compute_all(g)
        n, deg = g.n, g.degrees()
        pairs = list(itertools.combinations(range(n), 2))
        irr_t_value = sum(abs(deg[u] - deg[v]) for u, v in pairs)
        n0_value = sum(1 for u, v in pairs if deg[u] == deg[v])
        mean = sum(deg) / n
        abs_dev = sum(abs(v - mean) for v in deg)
        assert (r.irr_t, r.n0, r.degree_set_size) == (irr_t_value, n0_value, len(set(deg)))
        assert r.ira == pytest.approx(len(pairs) / n0_value - 1)
        assert r.irb == pytest.approx(1 - n0_value / len(pairs))
        assert r.gini == pytest.approx(gini_double_sum(deg))
        assert r.var == pytest.approx(statistics.pvariance(deg))
        assert (r.disc, r.s) == (pytest.approx(abs_dev / n), pytest.approx(abs_dev))
        assert r.albertson == sum(abs(deg[u] - deg[v]) for u, v in g.edges())
        assert r.sigma == sum((deg[u] - deg[v]) ** 2 for u, v in g.edges())


def test_compute_all_report_fields():
    r = compute_all(path(4))
    assert r.n == 4 and r.m == 3
    assert r.max_degree == 2 and r.min_degree == 1
    assert r.degree_set_size == 2 and r.degset_minus_1 == 1
    assert r.connected
    assert r.irr_t == 4 and r.n0 == 2
    assert r.s == pytest.approx(4 * r.disc, abs=1e-12)
    assert r.value("degset_minus_1") == 1
    assert r.value("ira") == 2.0


def test_compute_all_disconnected_flagged():
    r = compute_all(Graph(4, [(0, 1), (2, 3)]))
    assert not r.connected
    assert r.cs is not None  # still computed, caveat recorded in the flag


def test_compute_all_rho_needs_three_vertices_and_no_isolates():
    assert compute_all(complete(2)).rho is None
    assert compute_all(Graph(4, [(0, 1), (1, 2)])).rho is None  # isolated vertex
    assert compute_all(path(3)).rho is not None


def test_compute_all_edgeless():
    r = compute_all(Graph(3, []))
    assert (r.irr_t, r.n0, r.ira) == (0, 3, 0.0)  # gini is never computed unless read
    with pytest.raises(ValueError, match="edgeless"):
        r.gini


def test_compute_all_single_vertex():
    r = compute_all(complete(1))
    with pytest.raises(ValueError, match="edgeless"):
        r.gini  # edgeless, so no gini
    with pytest.raises(ValueError, match="n0 needs n >= 2"):
        r.ira
    with pytest.raises(ValueError):
        n0(complete(1))


def test_exact_fraction_values_p6_and_k6_minus_e():
    for g in (path(6), complete_minus_edge(6)):
        nv = n0(degree_sequence(g))
        assert nv == 7
        assert Fraction(30, 2 * nv) - 1 == Fraction(8, 7)
        assert 1 - Fraction(2 * nv, 30) == Fraction(8, 15)
        assert ira(degree_sequence(g)) == pytest.approx(8 / 7, abs=1e-15)
        assert irb(degree_sequence(g)) == pytest.approx(8 / 15, abs=1e-15)


def test_ira_of_all_distinct_degrees_is_value_error():
    # no graph on n >= 2 vertices has n0 = 0, but a bare degree list can
    for degrees in ([3, 1], [2, 1, 0]):
        with pytest.raises(ValueError, match=r"^ira is undefined when no two degrees are equal"):
            ira(degrees)
        assert n0(degrees) == 0
        assert irb(degrees) == 1.0


def test_ira_irb_strictly_decrease_in_n0():
    # for fixed n both measures are strictly decreasing transforms of n0
    n = 6
    seqs = {1: (5, 4, 3, 3, 2, 1), 3: (5, 4, 2, 2, 2, 1), 10: (5, 1, 1, 1, 1, 1)}
    values = []
    for expected_n0, seq in sorted(seqs.items()):
        assert n0(seq) == expected_n0
        values.append((ira(seq), irb(seq)))
    assert values == sorted(values, reverse=True)
    assert len({v[0] for v in values}) == len(values)


def block_columns(batch):
    """Every column of the measure passes over a batch, by name, as Python values per graph."""
    passes = (measures._degree_columns, measures._deviation_columns, measures._edge_columns)
    columns = {name: values for column_pass in passes
               for name, values in batch.columns(column_pass).items()}
    assert all(type(values) is list for values in columns.values())
    return columns


def assert_block_pass_matches_oracle(graph_list):
    columns = block_columns(Lambda1Batch(graph_list))
    for position, g in enumerate(graph_list):
        expected = reference_measures.columns(g)
        assert {name: columns[name][position] for name in expected} == expected, g
        # the single-measure functions add their deviations in the same order
        assert (variance(g), degree_deviation(g)) == (expected["var"], expected["s"]), g
        if g.n >= 2:  # N_0, counted from the degree histogram, is the pass's n0
            assert nk_spectrum(g).counts.get(0, 0) == expected["equal_pairs"], g


def test_block_pass_matches_oracle_on_the_graph_atlas():
    # every graph on 1..7 vertices, n = 1, n = 2, edgeless and disconnected ones
    # included, in one batch of seven orders
    nx = pytest.importorskip("networkx")
    atlas = [Graph(g.number_of_nodes(), g.edges()) for g in nx.graph_atlas_g()[1:]]
    assert len(atlas) == 1252
    assert_block_pass_matches_oracle(atlas)


def test_block_pass_matches_oracle_on_gnp_graphs():
    # orders 8..62, and a few past 64, whose masks span more than eight bytes
    rng = np.random.default_rng(19)
    sample = [gnp(int(n), float(p), seed=seed) for seed, (n, p) in enumerate(
        zip(rng.integers(8, 63, 300), rng.uniform(0.02, 0.9, 300)))]
    sample += [gnp(n, 0.1, seed=n) for n in (65, 97, 130)]
    assert_block_pass_matches_oracle(sample)


def test_column_passes_are_the_same_in_a_batch_and_in_batches_of_one():
    # 300 graphs of one order in one batch, each against a batch of its own
    sample = [gnp(12, 0.1 + 0.8 * k / 300, seed=k) for k in range(300)]
    together = block_columns(Lambda1Batch(sample))
    for position, g in enumerate(sample):
        alone = block_columns(Lambda1Batch([g]))
        assert {name: column[position] for name, column in together.items()} == \
            {name: column[0] for name, column in alone.items()}, g


def test_reports_read_their_rows_by_position():
    # equal graphs, the same one twice and a graph from outside the batch
    batch = Lambda1Batch([path(4), star(5), path(4)])
    reports = [compute_all(g, batch=batch) for g in batch.graphs]
    assert [(r.m, r.albertson) for r in reports] == [(3, 2), (4, 12), (3, 2)]
    assert compute_all(path(4), batch=batch).cs == reports[0].cs
    with pytest.raises(ValueError, match="not one of the batch's graphs"):
        compute_all(cycle(5), batch=batch)


def test_own_graphs_resolve_by_identity_and_outsiders_by_equality():
    # a batch finds its own graphs without hashing them, so no neighbour mask
    # is decoded; an equal graph from outside, in either stored form, still
    # resolves, and the cs reads leave every own graph held as its pair mask
    lines = [emit_graph6(g) for g in (path(4), star(5), path(4))]
    own = [parse_graph6(line) for line in lines]
    batch = Lambda1Batch(own)
    reports = [compute_all(g, batch=batch) for g in own]
    assert [batch.position(g) for g in own] == [0, 1, 2]
    assert [(r.ira, r.irr_t) for r in reports] == [(ira(g), irr_t(g)) for g in (path(4), star(5), path(4))]
    assert all(g._pairs is not None for g in own)  # still held as pair masks
    # an outsider is found by hash and equality, which read lower masks off the pair masks
    for outsider in (path(4), parse_graph6(lines[0])):
        assert batch.graphs[batch.position(outsider)] == outsider
    assert all(g._pairs is not None for g in own)
    for outsider in (path(4), parse_graph6(lines[0])):
        report = compute_all(outsider, batch=batch)
        assert (report.ira, report.albertson, report.cs) == (reports[0].ira, 2, reports[0].cs)
    assert all(g._pairs is not None for g in own)  # power iteration stacked them off the pair masks


def test_each_column_pass_runs_once_per_batch_and_only_when_read(monkeypatch):
    # hundreds of graphs of one order and graphs of a second order, in one batch
    calls = {"degrees": 0, "_degree_columns": 0, "_deviation_columns": 0, "_edge_columns": 0}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(owner, name, wrapper)
        return wrapper

    counted(Graph, "degrees")
    # the reports hold the passes themselves, so each is counted where the batch runs it
    passes = (measures._degree_columns, measures._deviation_columns, measures._edge_columns)
    counted_passes = {column_pass: counted(measures, column_pass.__name__) for column_pass in passes}
    columns = Lambda1Batch.columns
    monkeypatch.setattr(Lambda1Batch, "columns", lambda batch, column_pass: columns(
        batch, counted_passes.get(column_pass, column_pass)))
    sample = [gnp(10, 0.3, seed=k) for k in range(266)]
    sample += [gnp(7, 0.5, seed=k) for k in range(5)]
    batch = Lambda1Batch(sample)
    reports = [compute_all(g, batch=batch) for g in sample]
    assert calls == {"degrees": 0, "_degree_columns": 0, "_deviation_columns": 0, "_edge_columns": 0}
    integer_fields = ("m", "irr_t", "n0", "degree_set_size", "min_degree", "max_degree")
    for report in reports:
        for name in integer_fields:
            getattr(report, name)
    # each graph's degrees are counted once, for every pass
    assert calls == {"degrees": len(sample), "_degree_columns": 1, "_deviation_columns": 0, "_edge_columns": 0}
    for report in reports:
        report.var, report.s
    assert calls == {"degrees": len(sample), "_degree_columns": 1, "_deviation_columns": 1, "_edge_columns": 0}
    for report in reports:
        report.albertson
    after_all = {"degrees": len(sample), "_degree_columns": 1, "_deviation_columns": 1, "_edge_columns": 1}
    assert calls == after_all
    for report in reports:
        for name in integer_fields + ("var", "s", "albertson", "sigma", "rho"):
            getattr(report, name)
    assert calls == after_all


def test_integer_measures_of_a_degree_list_need_no_degree_pass(monkeypatch):
    # irr_t, n0, ira, irb, gini and degree_set_size come from the list and its
    # histogram; var, s and discrepancy read the deviation row, and neither
    # row is computed for a measure that reads only the other
    def refuse(degrees):
        raise AssertionError("the deviation row ran")

    def refuse_integers(degrees, multiplicities):
        raise AssertionError("the integer row ran")

    monkeypatch.setattr(measures, "_deviation_row", refuse)
    d = degree_sequence(star(6))
    assert (irr_t(d), n0(d), ira(d), degree_set_size(d)) == (20, 10, 0.5, 2)
    assert (irb(d), gini(d)) == (1 - 2 * 10 / 30, 20 / (10 * 6))
    for measure in (variance, discrepancy, degree_deviation):
        with pytest.raises(AssertionError, match="the deviation row ran"):
            measure(d)

    monkeypatch.undo()
    monkeypatch.setattr(measures, "_integer_row", refuse_integers)
    expected = reference_measures.degree_measures(d)
    assert (variance(d), degree_deviation(d), discrepancy(d)) == \
        (expected["var"], expected["s"], expected["s"] / len(d))
    with pytest.raises(AssertionError, match="the integer row ran"):
        irr_t(d)


@pytest.mark.parametrize("degrees", [[2 ** 62, 2 ** 62, 1], [2 ** 63, 1]], ids=["sum", "degree"])
def test_degree_lists_past_int64_match_the_oracle(degrees):
    # every integer sum is a Python int, so a degree list past int64 gets its exact
    # columns, and each float is one rounding of a ratio of them
    expected = reference_measures.degree_measures(degrees)
    n, pairs, equal = len(degrees), math.comb(len(degrees), 2), expected["equal_pairs"]
    assert (irr_t(degrees), n0(degrees), degree_set_size(degrees)) == \
        (expected["irr_t"], equal, expected["degree_set_size"])
    assert (irb(degrees), gini(degrees)) == (1 - equal / pairs, expected["irr_t"] / (expected["total"] * n))
    assert (variance(degrees), degree_deviation(degrees), discrepancy(degrees)) == \
        (expected["var"], expected["s"], expected["s"] / n)
    if equal:
        assert ira(degrees) == pairs / equal - 1
    else:
        with pytest.raises(ValueError, match="no two degrees are equal"):
            ira(degrees)
    # the pair counts stay exact Python integers
    assert nk_spectrum(degrees).weighted_sum == sum(abs(a - b) for a, b in itertools.combinations(degrees, 2))


@pytest.mark.parametrize("degrees", [
    [860545759281226513, 826136348227868590, 725674187856095877],
    # n * n * max just below 2^63, the largest lists the int64 check accepts
    [1024819115206086200, 1024819115205949931, 1024819115205255354],
    [368934881474191032, 368934881474046052, 368934881473862047, 368934881473856735,
     368934881473700927],
], ids=["spread", "n3_at_bound", "n5_at_bound"])
def test_deviations_of_degree_sums_past_2_to_53_match_the_oracle(monkeypatch, degrees):
    # the mean is the exact integer sum divided once by n: rounding the sum to
    # a float first, then dividing, moves s and var in their last bits
    var, s = reference_measures.deviations(degrees)
    assert (variance(degrees), degree_deviation(degrees), discrepancy(degrees)) == (var, s, s / len(degrees))
    monkeypatch.setattr(Graph, "degrees", lambda graph: tuple(degrees))
    report = compute_all(star(len(degrees)))
    assert (report.var, report.s) == (var, s)


def test_block_pass_sums_past_int64_match_the_oracle(monkeypatch):
    # no graph that fits in memory gets here; every pass holds its integer sums
    # in Python ints, where a fixed-width sum would wrap sigma, 3 * (2^61 - 1)^2
    g = star(4)
    monkeypatch.setattr(Graph, "degrees", lambda graph: (2 ** 61, 1, 1, 1))
    expected = reference_measures.columns(g)
    report = compute_all(g)
    assert [getattr(report, measure) for measure in ("irr_t", "var", "sigma")] == \
        [expected["irr_t"], expected["var"], expected["sigma"]]
    columns = block_columns(Lambda1Batch([g]))
    assert {name: columns[name][0] for name in expected} == expected
