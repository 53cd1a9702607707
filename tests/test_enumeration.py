"""Exhaustive enumeration, isomorphism, claim verification, table matching."""

import bisect
import dataclasses
import functools
import gc
import itertools
import json
import math
import types
from fractions import Fraction

import numpy as np
import pytest

from graphirr import (
    CLAIM_IDS,
    DEFAULT_TABLE_ROWS,
    Graph,
    VerificationReport,
    compute_all,
    degree_sequence,
    emit_graph6,
    is_connected,
    is_isomorphic_to,
    n0,
    nk_spectrum,
    pair_order,
    parse_graph6,
    verify_claim,
)
from graphirr import cli, enumeration, measures
from graphirr.generators import antiregular, complete, complete_split, cycle, path, star

import reference_measures
import reference_walk

# OEIS A001187: connected labeled graphs on n vertices
A001187 = {3: 4, 4: 38, 5: 728, 6: 26_704, 7: 1_866_256, 8: 251_548_592,
           9: 66_296_291_072, 10: 34_496_488_594_816}


def oracle_class_counts(n):
    """Connected labeled graphs per non-increasing degree list, over all edge
    subsets with union-find, no package code."""
    vertices = list(range(n))
    all_pairs = list(itertools.combinations(vertices, 2))
    counts = {}
    for bits in range(1 << len(all_pairs)):
        parent = vertices[:]
        degrees = [0] * n

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for k, (u, v) in enumerate(all_pairs):
            if bits >> k & 1:
                parent[find(u)] = find(v)
                degrees[u] += 1
                degrees[v] += 1
        if len({find(v) for v in vertices}) == 1:
            seq = tuple(sorted(degrees, reverse=True))
            counts[seq] = counts.get(seq, 0) + 1
    return counts


def oracle_connected_count(n):
    return sum(oracle_class_counts(n).values())


def count_connected(n):
    return sum(enumeration._ClassTable(n).counts.values())


def test_connected_counts_match_brute_force_oracle():
    for n in (3, 4):
        assert count_connected(n) == oracle_connected_count(n)


def test_connected_counts_frozen():
    assert count_connected(3) == 4
    assert count_connected(4) == 38
    assert count_connected(5) == 728


def test_labeled_counts_sum_to_every_graph():
    # every labeled graph, connected or not, counted by its degree multiset:
    # the n!/prod m_d! vectors of a multiset times the graphs of one of them,
    # whose vertices of degree 0 add no edges
    for n in range(1, 9):
        total = 0
        for degrees in itertools.combinations_with_replacement(range(n - 1, -1, -1), n):
            vectors = math.factorial(n) // math.prod(
                math.factorial(degrees.count(d)) for d in set(degrees))
            total += vectors * enumeration._labeled(tuple(d for d in degrees if d))
        assert total == 2 ** math.comb(n, 2), n


@functools.cache
def table_with_every_orbit(n):
    """A class table whose every class has had its orbits built."""
    table = enumeration._ClassTable(n)
    for degrees in table.counts:
        table.orbits_of(degrees)
    return table


def test_orbits_tile_the_connected_masks():
    # the orbits of every class, taken together, are the connected masks of
    # the reference walk, each once, and each orbit is ascending
    for n in (3, 4, 5, 6):
        orbits = list(itertools.chain.from_iterable(table_with_every_orbit(n).orbits.values()))
        assert all(orbit == sorted(set(orbit)) for orbit in orbits)
        walked = [mask for masks, _, connected in reference_walk.walk(n)
                  for mask in masks[connected].tolist()]
        assert sorted(itertools.chain.from_iterable(orbits)) == walked


def test_orbits_are_every_image_of_their_first_mask():
    # brute force over all n! relabelings: the closure under two generators
    # must reach every image of an orbit's first mask, and nothing else
    for n in range(3, 7):
        pairs = pair_order(n)
        index = {pair: k for k, pair in enumerate(pairs)}
        relabelings = [[index[min(p[i], p[j]), max(p[i], p[j])] for i, j in pairs]
                       for p in itertools.permutations(range(n))]
        for orbits in table_with_every_orbit(n).orbits.values():
            for orbit in orbits:
                edges = [k for k in range(len(pairs)) if orbit[0] >> k & 1]
                images = {sum(1 << relabel[k] for k in edges) for relabel in relabelings}
                assert orbit == sorted(images), (n, orbit[0])


def test_enumerate_predicate_filter():
    # labeled antiregular copies: 4!/|Aut(A4)| = 12
    report = verify_claim("lemma_n0", 4)
    assert report.details["extremal_labeled_count"] == 12
    assert all(is_isomorphic_to(parse_graph6(g6), antiregular(4)) for g6 in report.witnesses)


def test_orbits_leave_out_disconnected_realizations():
    # the 2-regular vector at n = 6 is realized by the 6-cycle, 6!/12 = 60
    # labelings, and by two triangles, which is no connected graph
    orbits = enumeration._orbits((2,) * 6)
    assert [len(orbit) for orbit in orbits] == [60]
    assert all(is_connected(Graph.from_pair_mask(6, mask)) for mask in orbits[0])


def test_searches_free_their_closures_without_a_gc_pass():
    # each search calls itself through its closure; once it returns, no
    # reference cycle keeps it (and the masks or graphs it holds) alive
    def alive(qualname):
        return [f for f in gc.get_objects() if getattr(f, "__qualname__", None) == qualname]

    gc.collect()
    gc.disable()
    try:
        assert len(enumeration._orbits((3, 3, 2, 2, 1, 1))) > 0
        assert not alive("_orbits.<locals>.extend")
        assert is_isomorphic_to(path(4), Graph(4, [(2, 0), (0, 3), (3, 1)]))
        assert not alive("is_isomorphic_to.<locals>.extend")
    finally:
        gc.enable()


def test_enumerate_spectral_reports():
    for masks, _, connected in reference_walk.walk(3):
        for mask in masks[connected].tolist():
            report = compute_all(Graph.from_pair_mask(3, mask))
            assert report.cs is not None and report.cs >= -1e-9


def test_is_isomorphic_basic():
    relabeled_p4 = Graph(4, [(2, 0), (0, 3), (3, 1)])
    assert is_isomorphic_to(path(4), relabeled_p4)
    assert not is_isomorphic_to(path(4), star(4))
    assert not is_isomorphic_to(cycle(5), path(5))


def test_is_isomorphic_needs_structure_not_just_degrees():
    c6 = cycle(6)
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert sorted(c6.degrees()) == sorted(two_triangles.degrees())
    assert not is_isomorphic_to(c6, two_triangles)
    # K_{3,3} vs the triangular prism: both 3-regular on 6 vertices
    k33 = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    prism = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    assert sorted(k33.degrees()) == sorted(prism.degrees())
    assert not is_isomorphic_to(k33, prism)
    assert is_isomorphic_to(prism, Graph(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 0), (0, 4),
                                             (1, 4), (2, 5), (3, 0)]))


def test_is_isomorphic_vertex_count_mismatch():
    with pytest.raises(ValueError):
        is_isomorphic_to(path(3), path(4))


def test_all_claims_pass_n3_to_n6():
    for claim_id in CLAIM_IDS:
        for n in (3, 4, 5, 6):
            report = verify_claim(claim_id, n)
            assert report.passed, f"{claim_id} n={n}: {report.format_text()}"
            assert report.claim_id == claim_id
            assert report.n == n


def test_verify_claim_validation(monkeypatch):
    def no_table(n):
        raise AssertionError(f"table built at n={n}")

    monkeypatch.setattr(enumeration, "_verify_all", no_table)
    monkeypatch.setattr(enumeration, "_ClassTable", no_table)
    for claim_id, n in (("mystery", 4), ("lemma_n0", 2), ("lemma_n0", 9),
                        ("table_rows", 5), ("table_rows", 7)):
        with pytest.raises(ValueError):
            verify_claim(claim_id, n)


def test_verify_all_never_builds_the_table_reducer(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError("the table_rows reducer was built")

    monkeypatch.setitem(enumeration._CLAIMS, "table_rows", refuse)
    assert set(enumeration._verify_all.__wrapped__(6)) == set(CLAIM_IDS)
    assert cli.main(["verify", "--claims", "all", "--n", "3-6"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "40 of 40 claim runs passed"


def test_verify_claim_results_share_no_state():
    snapshots = {claim_id: json.dumps(verify_claim(claim_id, 5).to_dict())
                 for claim_id in ("lemma_n0", "prop_bidegreed")}
    mutated = verify_claim("prop_bidegreed", 5)
    mutated.details["n0_by_max_degree_count"].clear()
    mutated.details["extra"] = 1
    replaced = verify_claim("lemma_n0", 5)
    replaced.details.clear()
    object.__setattr__(replaced, "witnesses", ())
    for claim_id, snapshot in snapshots.items():
        assert json.dumps(verify_claim(claim_id, 5).to_dict()) == snapshot


def test_isomorphism_is_settled_per_degree_class(monkeypatch):
    # isomorphism classes are read off the orbits, so the only isomorphism
    # tests left compare one representative per class with antiregular(n):
    # 13 over n = 3..6, not one per labeled witness
    calls = []
    original = enumeration.is_isomorphic_to
    monkeypatch.setattr(enumeration, "is_isomorphic_to",
                        lambda g, h: calls.append((g.n, h == antiregular(g.n))) or original(g, h))
    for n in range(3, 7):
        enumeration._verify_all.__wrapped__(n)
    assert calls == [(3, True)] * 2 + [(4, True)] * 3 + [(5, True)] * 3 + [(6, True)] * 5


def test_lemma_n0_witness_counts():
    # labeled copies of the antiregular graph: n!/2 for these n
    expected = {4: 12, 5: 60, 6: 360}
    for n, count in expected.items():
        report = verify_claim("lemma_n0", n)
        assert len(report.witnesses) == count
        assert report.details["extremal_labeled_count"] == count
        assert report.details["extremal_not_antiregular"] == 0


def test_claims_check_only_connected_graphs():
    report = verify_claim("prop_bounds", 5)
    assert report.graphs_checked == 728


def test_lemma_delta_equality_structure():
    # equality graphs: one universal vertex over a regular rest
    report = verify_claim("lemma_delta", 6)
    assert report.passed
    for g6 in report.witnesses[:5]:
        g = parse_graph6(g6)
        degrees = sorted(g.degrees(), reverse=True)
        assert degrees[0] == 5
        assert len(set(degrees)) == 2
        assert degrees.count(5) == 1


def test_edge_deleted_regular_details():
    report = verify_claim("cor_edge_deleted", 6)
    assert report.passed
    assert report.details["n0_after_deletion"] == math.comb(4, 2) + 1
    assert report.details["ira_after_deletion"] == pytest.approx(8 / 7, abs=1e-12)
    assert report.details["irb_after_deletion"] == pytest.approx(8 / 15, abs=1e-12)


def kept_by_the_walk(degrees):
    """The classes whose masks the reference walk keeps: the regular ones, and
    every class whose orbits the claims of CLAIM_IDS build."""
    return len(set(degrees)) == 1 or degrees in built_by_claims(len(degrees))


def decided_table(n):
    """A fresh class table after every claim of CLAIM_IDS is decided on it, as
    --claims all decides them."""
    table = enumeration._ClassTable(n)
    extremes = enumeration._Extremes(table)
    for claim_id in CLAIM_IDS:
        enumeration._CLAIMS[claim_id](n).decide(table, extremes)
    return table


@functools.cache
def built_by_claims(n):
    """The classes whose orbits deciding every claim of CLAIM_IDS builds."""
    return frozenset(decided_table(n).orbits)


def edge_deleted_reference(n):
    """cor_edge_deleted the slow way: delete every edge of every connected
    regular graph of the reference walk, keep the connected results and
    compare their n0."""
    _, kept = reference_walk.class_table(n, kept_by_the_walk)
    regular_masks = sorted(itertools.chain.from_iterable(
        masks for degrees, masks in kept.items() if len(set(degrees)) == 1))
    checked = violations = 0
    expected = None
    witnesses = []
    for mask in regular_masks:
        g = Graph.from_pair_mask(n, mask)
        for u, v in g.edges():
            h = Graph(n, [e for e in g.edges() if e != (u, v)])
            if not is_connected(h):
                continue
            checked += 1
            value = n0(degree_sequence(h))
            if expected is None:
                expected = value
            elif value != expected:
                violations += 1
                witnesses.append(emit_graph6(h))
    details = {"regular_graphs": len(regular_masks), "deletions_checked": checked}
    if expected is not None:
        details["n0_after_deletion"] = expected
        details["ira_after_deletion"] = n * (n - 1) / (2 * expected) - 1.0
        details["irb_after_deletion"] = 1.0 - 2 * expected / (n * (n - 1))
    return VerificationReport(claim_id="cor_edge_deleted", n=n, graphs_checked=checked,
                              violations=violations, witnesses=tuple(witnesses),
                              details=details)


def test_edge_deleted_matches_the_deletion_loop():
    # the claim reads each deletion off the degree pattern it leaves behind
    for n, deletions in zip(range(3, 8), (3, 18, 70, 1185, 9051)):
        report = verify_claim("cor_edge_deleted", n)
        assert report == edge_deleted_reference(n)
        assert report.details["deletions_checked"] == deletions


def test_edge_deleted_count_at_n8():
    # what the graph-by-graph deletion loop reported at n = 8
    details = verify_claim("cor_edge_deleted", 8).details
    assert details["regular_graphs"] == 44_808
    assert details["deletions_checked"] == 634_368
    assert details["n0_after_deletion"] == math.comb(6, 2) + 1


def test_connected_regular_graphs_have_no_bridge():
    """The lemma cor_edge_deleted's count rests on: every edge of a connected
    regular graph on n <= 9 vertices is one connected deletion.  The atlas
    covers n <= 7; the claim must not reach past n = 9, where the smallest
    cubic graph with a bridge (n = 10) would be overcounted."""
    nx = pytest.importorskip("networkx")
    regular = [g for g in nx.graph_atlas_g()
               if g.number_of_nodes() >= 3 and nx.is_connected(g)
               and len({d for _, d in g.degree()}) == 1]
    assert len(regular) == 14  # 1, 2, 2, 5 and 4 at n = 3..7
    assert not any(nx.has_bridges(g) for g in regular)
    assert enumeration._CLAIMS["cor_edge_deleted"].orders[-1] <= 9


def test_irrt_probe_finds_multiple_classes_at_n6():
    report = verify_claim("irrt_not_unique", 6)
    assert report.passed  # a probe never fails
    assert report.details["max_irr_t"] == 26
    assert report.details["maximizer_class_count"] >= 4
    assert report.details["includes_antiregular"]
    for g6 in report.witnesses:
        g = parse_graph6(g6)
        assert not is_isomorphic_to(g, antiregular(6))
        assert compute_all(g).irr_t == 26


def test_bidegreed_details_are_symmetric():
    report = verify_claim("prop_bidegreed", 6)
    table = report.details["n0_by_max_degree_count"]
    for a_text, value in table.items():
        b_text = str(6 - int(a_text))
        if b_text in table:
            assert table[b_text] == value


def test_verification_report_shape():
    report = verify_claim("eq2_identity", 3)
    as_dict = report.to_dict()
    assert as_dict["claim_id"] == "eq2_identity"
    assert as_dict["passed"] is True
    assert isinstance(as_dict["witnesses"], list)
    text = report.format_text()
    assert "eq2_identity" in text and "passed" in text
    failing = VerificationReport(claim_id="x", n=3, graphs_checked=1, violations=2)
    assert not failing.passed
    assert "FAILED" in failing.format_text()


def test_table_rows_default_rows():
    report = verify_claim("table_rows", 6)
    assert report.passed
    assert len(report.witnesses) == 4
    labels = [row["label"] for row in report.details["rows"]]
    assert labels == [row["label"] for row in DEFAULT_TABLE_ROWS]
    # each witness realizes its row exactly
    for row, g6 in zip(DEFAULT_TABLE_ROWS, report.witnesses):
        g = parse_graph6(g6)
        r = compute_all(g)
        assert r.m == row["m"] and r.irr_t == row["irr_t"] and r.n0 == row["n0"]
        assert r.albertson == row["albertson"] and r.sigma == row["sigma"]
        assert r.degset_minus_1 == row["degset_minus_1"]
        assert abs(r.var - row["var"]) <= 5e-4
        assert abs(r.s - row["s"]) <= 5e-4
        assert abs(r.gini - row["gini"]) <= 5e-4
        assert abs(r.cs - row["cs"]) <= 1e-3
        assert abs(r.rho - row["rho"]) <= 1e-3


def test_table_rows_share_irrt_but_not_ira():
    report = verify_claim("table_rows", 6)
    reports = [compute_all(parse_graph6(g6)) for g6 in report.witnesses]
    assert len({r.irr_t for r in reports}) == 1
    assert len({r.ira for r in reports}) == 4
    assert len({r.irb for r in reports}) == 4


def test_table_rows_unsatisfiable_row_fails(monkeypatch, capsys):
    # one row no graph's integer columns match, and one whose integer columns
    # match the antiregular graph but whose cs does not
    rows = ({**DEFAULT_TABLE_ROWS[0], "label": "irr_t=1", "irr_t": 1},
            {**DEFAULT_TABLE_ROWS[0], "label": "cs off", "cs": 0.5},
            DEFAULT_TABLE_ROWS[1])
    monkeypatch.setattr(enumeration, "DEFAULT_TABLE_ROWS", rows)
    report = verify_claim("table_rows", 6)
    assert report.violations == 2
    assert report.details["rows"][:2] == [
        {"label": "irr_t=1", "matched": False, "candidate_classes": 0,
         "matching_classes": 0, "witness": None},
        {"label": "cs off", "matched": False, "candidate_classes": 1,
         "matching_classes": 0, "witness": None},
    ]
    assert report.details["rows"][2]["matched"] is True
    assert cli.main(["verify", "--claims", "table_rows", "--n", "6"]) == 2
    assert "claim table_rows at n=6: FAILED" in capsys.readouterr().out


def test_table_rows_check_edge_sums_per_class(monkeypatch):
    # the degree columns of row 0 select one class, whose albertson is 16 and
    # sigma 40: the edge sums are checked on each class's report
    rows = ({**DEFAULT_TABLE_ROWS[0], "label": "albertson off", "albertson": 17},
            {**DEFAULT_TABLE_ROWS[0], "label": "sigma off", "sigma": 41})
    monkeypatch.setattr(enumeration, "DEFAULT_TABLE_ROWS", rows)
    report = verify_claim("table_rows", 6)
    assert report.violations == 2
    assert report.details["rows"] == [
        {"label": label, "matched": False, "candidate_classes": 1,
         "matching_classes": 0, "witness": None}
        for label in ("albertson off", "sigma off")
    ]


def equal_pairs(seq):
    """n0 of a degree sequence, counted pair by pair."""
    return sum(x == y for x, y in itertools.combinations(seq, 2))


def scanned_table(n):
    """The n-vertex class table, built as --claims all builds it."""
    return enumeration._ClassTable(n)


def decide(claim_id, table):
    """claim_id's report on a class table, its extremes read off the same table."""
    claim = enumeration._CLAIMS[claim_id](table.n)
    return claim.decide(table, enumeration._Extremes(table))


def non_antiregular_n0_1(n):
    """A degree list with one equal pair that is not the antiregular graph's."""
    anti = degree_sequence(antiregular(n))
    return next(seq for seq in itertools.combinations_with_replacement(range(n - 1, 0, -1), n)
                if equal_pairs(seq) == 1 and seq != anti)


# One breaking row per claim condition, injected into the n = 5 class table
# with count 1.  Rows no graph has are the point: the claims hold on every real
# degree class, so only an injected row can show that a condition still bites.
BREAKING_ROWS = [
    ("lemma_n0", non_antiregular_n0_1(5)),          # n0 = 1 off the antiregular graph
    ("lemma_n0", (4, 3, 2, 1, 0)),                  # n0 = 0 < 1
    ("lemma_n0", (4, 4, 3, 3, 2, 1)),               # n - 1 degree values, but n0 = 2
    ("prop_bounds", non_antiregular_n0_1(5)),       # upper equality off the antiregular graph
    ("prop_bounds", (4, 3, 2, 1, 0)),               # n0 = 0 < 1, so irb = 1 > 1 - 2/20
    ("prop_bounds", (2, 2, 2, 2, 2, 1)),            # nonregular, yet n0 = C(5,2)
    ("problem1_ira_irb", non_antiregular_n0_1(5)),  # a maximizer that is not antiregular
    ("problem1_ira_irb", (2, 2, 2, 2, 2, 1)),       # a nonregular minimizer
    ("lemma_delta", (2, 1, 1, 1, 1, 1)),            # n0 = 10 > C(5,2) - 2
    ("lemma_delta", (4, 4, 4, 4, 3)),               # n0 = C(5,2) - 4 but four universal vertices
    ("prop_lower", (2, 1, 1, 1, 1, 1)),             # irb below its bound
    ("prop_lower", (4, 4, 4, 4, 3)),                # equality off the single-universal pattern
    ("prop_bidegreed", (3, 3, 1, 1, 1, 1)),         # two of maximum degree, but n0 = 1 + 6
    ("irrt_not_unique", (4, 4, 1, 1, 1)),           # irr_t 18 above every kept maximizer
    ("eq2_identity", (2, 2, 2, 2, 2, 2)),           # C(6,2) pairs, not C(5,2)
    ("sec3_identities", (4, 3, 3, 3, 2)),           # odd degree sum: irr_t/(2mn) with m = 7
]


@pytest.mark.parametrize("claim_id, row", BREAKING_ROWS,
                         ids=[f"{claim_id}-{''.join(map(str, row))}" for claim_id, row in BREAKING_ROWS])
def test_each_claim_fails_on_an_injected_breaking_row(claim_id, row):
    table = scanned_table(5)
    assert decide(claim_id, table).violations == 0
    assert row not in table.counts
    table.counts[row] = 1
    assert decide(claim_id, table).violations > 0


def test_prop_bidegreed_compares_each_group_with_its_first_class():
    # a group's reference is its first class in table order, so a row
    # appended to the table is the one that differs
    table = scanned_table(5)
    table.counts[(3, 3, 1, 1, 1, 1)] = 1
    report = decide("prop_bidegreed", table)
    assert report.details["n0_by_max_degree_count"]["2"] == math.comb(2, 2) + math.comb(3, 2)
    assert report.violations == 1


@pytest.mark.parametrize("extreme", [lambda seq: len(set(seq)) == 1, lambda seq: equal_pairs(seq) == 1],
                         ids=["minimum", "maximum"])
def test_problem1_fails_when_an_extreme_is_not_attained(extreme):
    table = scanned_table(5)
    for seq in [seq for seq in table.counts if extreme(seq)]:
        del table.counts[seq]
    assert decide("problem1_ira_irb", table).violations == 1


def test_prop_bidegreed_checks_the_cross_condition():
    # group 1 (one vertex of maximum degree) replaced by a row whose n0 is not
    # the n0 of group 4, its complement
    table = scanned_table(5)
    for seq in [seq for seq in table.counts if len(set(seq)) == 2 and seq.count(seq[0]) == 1]:
        del table.counts[seq]
    table.counts[(4, 1, 1, 1, 1, 1)] = 1
    report = decide("prop_bidegreed", table)
    by_count = report.details["n0_by_max_degree_count"]
    assert (by_count["1"], by_count["4"]) == (math.comb(5, 2), math.comb(4, 2))
    assert report.violations == 2


def test_cor_edge_deleted_fails_on_an_injected_deletion_class():
    # a deletion class whose n0 differs from the first class's: its graphs
    # are the violations
    table = scanned_table(5)
    assert decide("cor_edge_deleted", table).violations == 0
    table.deletions[(4, 4, 3, 3, 2)] = 2
    assert decide("cor_edge_deleted", table).violations == 2


# Edits to the one orbit of the antiregular class at n = 5, which maximizes
# ira, irb and irr_t, each made on the orbits built through the accessor, so
# claims read the edited lists: each leaves orbits that no longer add up to
# the class's labeled count.  The foreign mask comes from the other irr_t
# maximizer class, (4, 2, 2, 1, 1), in ascending place.
WITNESS_EDITS = {
    "non-first-mask-dropped": lambda table, anti: table.orbits_of(anti)[0].pop(1),
    "orbits-cleared": lambda table, anti: table.orbits_of(anti).clear(),
    "foreign-mask-added": lambda table, anti: bisect.insort(table.orbits_of(anti)[0],
                                                           table.orbits_of((4, 2, 2, 1, 1))[0][-1]),
    "orbit-repeated": lambda table, anti: table.orbits_of(anti).append(table.orbits_of(anti)[0][:]),
}


@pytest.mark.parametrize("claim_id", ["lemma_n0", "problem1_ira_irb", "irrt_not_unique"])
@pytest.mark.parametrize("edit", WITNESS_EDITS.values(), ids=WITNESS_EDITS.keys())
def test_witness_claims_fail_when_the_kept_masks_do_not_add_up(edit, claim_id):
    # isomorphism classes are read off the orbits, so the sum of the orbit
    # sizes against the counted class is what shows a missing or foreign mask
    table = scanned_table(5)
    anti = degree_sequence(antiregular(5))
    assert decide(claim_id, table).violations == 0
    edit(table, anti)
    assert decide(claim_id, table).violations > 0


def test_maximizers_are_compared_with_the_antiregular_graph():
    # the n0 = 1 class made to hold another graph's orbit and count: orbits and
    # count add up, so only the comparison with antiregular(5) can tell
    table = scanned_table(5)
    anti, other = degree_sequence(antiregular(5)), (4, 2, 2, 1, 1)
    table.orbits_of(anti)[:], table.counts[anti] = table.orbits_of(other), table.counts[other]
    for claim_id in ("lemma_n0", "prop_bounds", "problem1_ira_irb"):
        assert decide(claim_id, table).violations == table.counts[other] == 30


@pytest.mark.parametrize("name, wrong", [
    ("_ira", lambda n, n0_value: n * (n - 1) / (2 * n0_value)),  # the "- 1" dropped
    ("_irb", lambda n, n0_value: 2 * n0_value / (n * (n - 1))),  # the complement
], ids=["ira", "irb"])
def test_prop_bounds_checks_the_shipped_formulas(monkeypatch, name, wrong):
    # prop_bounds must bound the ira/irb that graphirr ships, not a copy of them
    table = scanned_table(5)
    assert decide("prop_bounds", table).violations == 0
    monkeypatch.setattr(enumeration, name, wrong)
    assert decide("prop_bounds", table).violations > 0


def test_identities_catch_corrupted_pair_counts(monkeypatch):
    # move one pair from degree difference 1 to 2 wherever there is one: the
    # pair total stays C(n,2), but the weighted sum moves, so only the
    # independent pairwise and rank forms can tell
    def shifted(degrees):
        spectrum = nk_spectrum(degrees)
        counts = dict(spectrum.counts)
        if counts.get(1):
            counts[1] -= 1
            counts[2] = counts.get(2, 0) + 1
        return dataclasses.replace(spectrum, counts=counts)

    table = scanned_table(5)
    monkeypatch.setattr(enumeration, "nk_spectrum", shifted)
    for claim_id in ("eq2_identity", "sec3_identities"):
        assert decide(claim_id, table).violations == sum(
            count for seq, count in table.counts.items()
            if any(abs(x - y) == 1 for x, y in itertools.combinations(seq, 2)))


def test_sec3_identities_compare_the_rank_form(monkeypatch):
    # a rank form off by one on every class: the pairwise form cannot agree
    integer_row = measures._integer_row

    def off_by_one(degrees, multiplicities):
        total, irr_t, *rest = integer_row(degrees, multiplicities)
        return (total, irr_t + 1, *rest)

    monkeypatch.setattr(measures, "_integer_row", off_by_one)
    table = scanned_table(5)
    report = decide("sec3_identities", table)
    assert report.violations == report.graphs_checked == 728


def test_identity_claims_share_each_class_pair_forms(monkeypatch):
    # eq2_identity and sec3_identities read one nk_spectrum per class and table
    calls = []
    monkeypatch.setattr(enumeration, "nk_spectrum", lambda d: calls.append(d.degrees) or nk_spectrum(d))
    enumeration._verify_all.__wrapped__(7)
    assert len(calls) == len(set(calls)) == 236


# Rows whose every broken condition is counted, one by one: the exact
# verdicts must fire on their own, apart from the integer and float checks.
EXACT_ROWS = [
    # n0 = 0 < 1, and irb = 1 above 1 - 2/20: the interval is decided apart from n0's range
    ("prop_bounds", (4, 3, 2, 1, 0), 2),
    # odd degree sum: irr_t/(2mn) with m = 7 misses the rank form, exactly and in floats
    ("sec3_identities", (4, 3, 3, 3, 2), 2),
    # the same gap at a relative 1/(degree sum), about 2e-14, which only the exact check sees
    ("sec3_identities", (10 ** 13,) * 4 + (10 ** 13 - 1,), 1),
]


@pytest.mark.parametrize("claim_id, row, broken", EXACT_ROWS,
                         ids=["prop_bounds-n0-0", "sec3_identities-odd-sum", "sec3_identities-gap-2e-14"])
def test_exact_verdicts_count_each_broken_condition(claim_id, row, broken):
    table = scanned_table(5)
    table.counts[row] = 1
    assert decide(claim_id, table).violations == broken


def test_prop_bounds_decides_the_interval_exactly(monkeypatch):
    # irb raised by 2^-60, an offset lost when rounded to a double near 0.9:
    # only an exact comparison sees the upper bound broken at n0 = 1
    offset = Fraction(1, 2 ** 60)
    monkeypatch.setattr(enumeration, "_irb", lambda n, n0_value: measures._irb(n, n0_value) + offset)
    assert float(measures._irb(5, Fraction(1)) + offset) == measures._irb(5, 1)
    report = decide("prop_bounds", scanned_table(5))
    assert report.violations == report.details["upper_equality_count"] == 60


def test_prop_bounds_decides_each_n0_once(monkeypatch):
    # n0 takes at most C(n, 2) + 1 values, so 236 classes at n = 7 need 12 decisions
    decided = []
    monkeypatch.setattr(enumeration, "_ira", lambda n, n0_value: decided.append(n0_value)
                        or measures._ira(n, n0_value))
    table = scanned_table(7)
    assert decide("prop_bounds", table).violations == 0
    n0_values = sorted({table.profile(degrees).n0 for degrees in table.counts})
    assert (len(table.counts), len(n0_values)) == (236, 12)
    assert sorted(decided) == n0_values


def assert_profile_matches_oracle(profile):
    expected = reference_measures.degree_measures(profile.degrees)
    assert {name: getattr(profile, name) for name in expected} == expected, profile.degrees


def test_class_profiles_match_the_degree_oracle():
    # every counted class at n = 3..8, each from the table's one degree pass
    profiled = 0
    for n in range(3, 9):
        table = enumeration._ClassTable(n)
        for degrees in table.counts:
            assert_profile_matches_oracle(table.profile(degrees))
            profiled += 1
    assert profiled == 2 + 6 + 19 + 68 + 236 + 863


def test_rows_added_after_counting_get_a_profile():
    # an injected row of another length, or with a 0 degree, gets a profile of its own
    table = scanned_table(5)
    for row in ((4, 4, 3, 3, 2, 1), (4, 3, 2, 1, 0)):
        table.counts[row] = 1
        assert table.profile(row).degrees == row
        assert_profile_matches_oracle(table.profile(row))


def test_class_counts_match_brute_force_realizations():
    for n in range(3, 7):
        table = scanned_table(n)
        assert table.counts == oracle_class_counts(n), f"n={n}"


def test_class_counts_sum_to_oeis():
    for n in range(3, 8):
        assert sum(scanned_table(n).counts.values()) == A001187[n]


@pytest.mark.parametrize("n", [9, pytest.param(10, marks=pytest.mark.slow)])
def test_class_counts_past_the_walk_sum_to_oeis(n):
    # 66,296,291,072 graphs at n = 9: beyond any walk over the masks
    assert sum(enumeration._ClassTable(n).counts.values()) == A001187[n]


def assert_table_matches_the_reference_walk(n):
    """The counted classes and their orbits against a walk over every mask:
    the same counts, and the orbits each class built by the claims holds are
    its masks."""
    counts, kept = reference_walk.class_table(n, kept_by_the_walk)
    table = decided_table(n)
    assert table.counts == counts, n
    assert {degrees: sorted(itertools.chain.from_iterable(orbits))
            for degrees, orbits in table.orbits.items()} == {
        degrees: masks for degrees, masks in kept.items() if degrees in built_by_claims(n)}, n


def test_class_table_matches_the_reference_walk():
    for n in range(3, 8):
        assert_table_matches_the_reference_walk(n)


@pytest.mark.slow
def test_class_table_matches_the_reference_walk_at_n8():
    assert_table_matches_the_reference_walk(8)


def test_table_order_is_descending_degree_tuples():
    # the order prop_bidegreed and cor_edge_deleted take their first class in
    for n in range(3, 9):
        table = enumeration._ClassTable(n)
        assert list(table.counts) == sorted(table.counts, reverse=True), n
        assert list(table.deletions) == sorted(table.deletions, reverse=True), n


def test_witnesses_encode_each_kept_mask():
    # one batch over the mask bits gives what each mask's graph encodes to
    table = decided_table(6)
    built = set(table.orbits)
    masks = sorted(mask for orbits in table.orbits.values() for orbit in orbits for mask in orbit)
    assert len(masks) > 500
    assert enumeration._witnesses(table, lambda d: d.degrees in built) == tuple(
        emit_graph6(Graph.from_pair_mask(6, mask)) for mask in masks)


def block_albertson(n, masks, degrees):
    """Sum of |d_i - d_j| over the edges of each graph in a block of the
    reference walk, from its degrees and its pair bits."""
    deg = degrees.astype(np.int32)
    total = np.zeros(len(masks), np.int32)
    for k, (i, j) in enumerate(pair_order(n)):
        total += ((masks >> k) & 1).astype(np.int32) * np.abs(deg[:, i] - deg[:, j])
    return total


def test_max_albertson_graphs_are_complete_split():
    # empirical observation at small n, not a theorem this package asserts:
    # every n-vertex graph maximizing the Albertson measure is a complete
    # split graph (a clique fully joined to an independent set)
    for n in range(3, 8):
        best = -1
        masks = []
        for block, degrees, _ in reference_walk.walk(n):
            albertson = block_albertson(n, block, degrees)
            block_best = int(albertson.max())
            if block_best > best:
                best = block_best
                masks = []
            if block_best == best:
                masks.extend(block[albertson == best].tolist())
        targets = [complete_split(n, k) for k in range(1, n)]
        # one representative per isomorphism class, the smallest mask
        reps = {}
        for mask in masks:
            g = Graph.from_pair_mask(n, mask)
            if not any(is_isomorphic_to(g, rep) for rep in reps.values()):
                reps[mask] = g
        for rep_mask, g in reps.items():
            assert any(is_isomorphic_to(g, t) for t in targets), \
                f"n={n}: maximizer {rep_mask} is not a complete split graph"


WALK_FIELDS = ("connected", "deg")


def oracle_walk_fields(n, mask):
    """Every per-graph field of the reference walk, from graphirr's Graph of the mask."""
    g = Graph.from_pair_mask(n, mask)
    return {"connected": is_connected(g), "deg": list(g.degrees())}


def assert_block_matches_oracle(n, block, indices):
    masks, degrees, connected = block
    fields = {"connected": connected, "deg": degrees}
    for i in indices:
        expected = oracle_walk_fields(n, int(masks[i]))
        got = {name: fields[name][i].tolist() for name in WALK_FIELDS}
        assert got == expected, f"n={n} mask={int(masks[i])}"


def test_walk_fields_match_per_graph_oracle_up_to_n5():
    for n in (3, 4, 5):
        blocks = list(reference_walk.walk(n))
        assert len(blocks) == 1 and blocks[0][0].tolist() == list(range(2 ** math.comb(n, 2)))
        assert_block_matches_oracle(n, blocks[0], range(len(blocks[0][0])))


def test_walk_fields_match_per_graph_oracle_on_n7_sample():
    rng = np.random.default_rng(2019)
    for index in rng.choice(32, size=2, replace=False).tolist():
        block = reference_walk.block(7, index * reference_walk.BLOCK)
        assert block[0].tolist() == list(range(index << 16, (index + 1) << 16))
        assert_block_matches_oracle(7, block, rng.choice(len(block[0]), size=400, replace=False))


def connected_degree_sequences(n):
    """Non-increasing degree sequences of connected n-vertex graphs, without
    the scan: graphical (Erdos-Gallai), minimum >= 1 and an even sum of at
    least 2(n-1) (Hakimi)."""
    found = set()
    for seq in itertools.combinations_with_replacement(range(n - 1, 0, -1), n):
        total = sum(seq)
        if total % 2 or total < 2 * (n - 1):
            continue
        if all(sum(seq[:k]) <= k * (k - 1) + sum(min(d, k) for d in seq[k:])
               for k in range(1, n + 1)):
            found.add(seq)
    return found


def test_count_and_walk_see_every_connected_degree_sequence():
    for n, count in zip(range(3, 8), (2, 6, 19, 68, 236)):
        expected = connected_degree_sequences(n)
        assert len(expected) == count
        assert set(reference_walk.class_table(n, kept_by_the_walk)[0]) == expected, f"n={n}"
        assert set(scanned_table(n).counts) == expected, f"n={n}"


@pytest.mark.slow
def test_walk_sees_every_connected_degree_sequence_at_n8():
    expected = connected_degree_sequences(8)
    assert len(expected) == 863
    assert set(reference_walk.class_table(8, kept_by_the_walk)[0]) == expected
    assert set(scanned_table(8).counts) == expected


def test_degree_determined_details_match_the_degree_sequence_oracle():
    for n, top_irr_t, deleted_n0 in zip(range(3, 8), (2, 6, 14, 26, 44), (1, 2, 4, 7, 11)):
        sequences = connected_degree_sequences(n)
        irrt = verify_claim("irrt_not_unique", n).details
        assert irrt["max_irr_t"] == top_irr_t == max(
            sum(abs(x - y) for x, y in itertools.combinations(seq, 2)) for seq in sequences)
        # g - uv for a connected k-regular g has degrees k^(n-2) (k-1)^2
        deleted = {equal_pairs(seq) for seq in sequences
                   if seq == (seq[0],) * (n - 2) + (seq[0] - 1,) * 2}
        assert deleted == {deleted_n0} == {math.comb(n - 2, 2) + 1}
        edge_deleted = verify_claim("cor_edge_deleted", n).details
        assert edge_deleted["n0_after_deletion"] == deleted_n0
        pairs = math.comb(n, 2)
        assert edge_deleted["ira_after_deletion"] == pytest.approx(
            float(Fraction(pairs, deleted_n0) - 1), abs=1e-12)
        assert edge_deleted["irb_after_deletion"] == pytest.approx(
            float(1 - Fraction(deleted_n0, pairs)), abs=1e-12)
        # bidegreed: a maximum-degree vertices, so n0 = C(a, 2) + C(n - a, 2)
        by_count = {}
        for seq in sequences:
            if len(set(seq)) == 2:
                by_count.setdefault(seq.count(seq[0]), set()).add(equal_pairs(seq))
        expected = {a: math.comb(a, 2) + math.comb(n - a, 2) for a in by_count}
        assert by_count == {a: {value} for a, value in expected.items()}
        assert verify_claim("prop_bidegreed", n).details["n0_by_max_degree_count"] == {
            str(a): value for a, value in expected.items()}


def degree_sequence_table(n):
    """A class table that counts every connected degree sequence once, in table
    order, with its edge-deleted classes, no orbits and one profile per
    sequence."""
    sequences = sorted(connected_degree_sequences(n), reverse=True)
    deleted = [seq for seq in sequences if seq == (seq[0],) * (n - 2) + (seq[0] - 1,) * 2]
    profiles = {seq: enumeration._ClassProfile(seq) for seq in sequences}
    return types.SimpleNamespace(n=n, counts=dict.fromkeys(sequences, 1),
                                 orbits_of=lambda degrees: [],
                                 deletions=dict.fromkeys(deleted, 1),
                                 profile=profiles.__getitem__)


@pytest.mark.parametrize("n", [9, pytest.param(10, marks=pytest.mark.slow),
                               pytest.param(11, marks=pytest.mark.slow),
                               pytest.param(12, marks=pytest.mark.slow)])
def test_degree_conditions_hold_on_every_connected_degree_sequence(n):
    """Every claim's degree conditions on each connected degree sequence
    (Erdos-Gallai 1960, Hakimi 1962), beyond the orders verify_claim accepts.

    At n = 9 and 10 each sequence is weighted by its labeled count, so every
    connected labeled graph is checked; the counted classes must be exactly
    the Erdos-Gallai/Hakimi sequences.  The deletion count rests on a
    connected regular graph having no bridge, which fails from n = 10, the
    order of the smallest cubic graph with a bridge, so there each deletion
    class keeps weight 1, as do all sequences at n = 11 and 12.

    That only the antiregular graph maximizes ira and irb is a statement up to
    isomorphism, and no graph is built here, so it rests on a theorem: the
    antiregular degree sequence is a threshold sequence, and a threshold
    sequence has exactly one realization up to isomorphism (Chvatal & Hammer
    1977).  The antiregular sequence being the only one with n0 = 1 then
    leaves the antiregular graph as the only maximizer.
    """
    table = degree_sequence_table(n)
    if n in A001187:
        counted = enumeration._ClassTable(n)
        assert list(counted.counts) == list(table.counts)
        assert sum(counted.counts.values()) == A001187[n]
        table.counts = counted.counts
        if n <= 9:
            table.deletions = counted.deletions
    for claim_id in CLAIM_IDS:
        claim = enumeration._CLAIMS[claim_id](n)
        violations = sum(count * claim.bad(d) for d, count in claim.classes(table, table.counts))
        assert violations == 0, claim_id
    # the two claims that compare classes with each other
    extremes = enumeration._Extremes(table)
    for claim_id in ("prop_bidegreed", "cor_edge_deleted"):
        assert enumeration._CLAIMS[claim_id](n).decide(table, extremes).violations == 0, claim_id
    anti = degree_sequence(antiregular(n))
    assert [seq for seq in table.counts if equal_pairs(seq) == 1] == [anti]
    irr_t = {seq: sum(abs(x - y) for x, y in itertools.combinations(seq, 2)) for seq in table.counts}
    assert max(irr_t.values()) == irr_t[anti]


def holds(orbit, mask):
    """Whether an ascending orbit holds the mask."""
    i = bisect.bisect_left(orbit, mask)
    return i < len(orbit) and orbit[i] == mask


def test_connected_counts_match_graph_atlas():
    # labeled connected graphs = sum over unlabeled connected classes of n!/|Aut|,
    # with |Aut| from networkx; each class is one orbit of graphirr's, of that size
    nx = pytest.importorskip("networkx")

    tables = {n: table_with_every_orbit(n) for n in range(3, 8)}
    labeled = dict.fromkeys(tables, 0)
    orbits_met = dict.fromkeys(tables, 0)
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n in labeled and nx.is_connected(g):
            automorphisms = sum(1 for _ in nx.vf2pp_all_isomorphisms(g, g))
            h = Graph(n, g.edges())
            mask = sum(1 << k for k, (i, j) in enumerate(pair_order(n)) if h.has_edge(i, j))
            orbit, = [orbit for orbit in tables[n].orbits[degree_sequence(h)] if holds(orbit, mask)]
            assert len(orbit) == math.factorial(n) // automorphisms, sorted(g.edges())
            labeled[n] += len(orbit)
            orbits_met[n] += 1
    assert labeled == {n: A001187[n] for n in tables}
    assert orbits_met == {n: sum(map(len, table.orbits.values())) for n, table in tables.items()}
    assert labeled == {n: sum(table.counts.values()) for n, table in tables.items()}


def test_every_claim_passes_at_n8():
    reports = {claim_id: verify_claim(claim_id, 8) for claim_id in CLAIM_IDS}
    assert [claim_id for claim_id, report in reports.items() if not report.passed] == []
    # the antiregular graph's 8!/2 labelings: its automorphism group has order 2
    assert reports["lemma_n0"].details["extremal_labeled_count"] == math.factorial(8) // 2


def test_connected_count_n8_matches_oeis():
    # OEIS A001187: connected labeled graphs on 8 vertices, in 863 degree classes
    table = scanned_table(8)
    assert len(table.counts) == 863
    assert sum(table.counts.values()) == A001187[8]
