"""Exhaustive enumeration, isomorphism, claim verification, table matching."""

import dataclasses
import itertools
import json
import math

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
    parse_graph6,
    verify_claim,
)
from graphirr import cli, enumeration
from graphirr.enumeration import _scan_chunks
from graphirr.generators import antiregular, complete, complete_split, cycle, path, star


def oracle_connected_count(n):
    """Brute force over all edge subsets with union-find, no package code."""
    vertices = list(range(n))
    all_pairs = list(itertools.combinations(vertices, 2))
    count = 0
    for r in range(len(all_pairs) + 1):
        for subset in itertools.combinations(all_pairs, r):
            parent = vertices[:]

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for u, v in subset:
                parent[find(u)] = find(v)
            if len({find(v) for v in vertices}) == 1:
                count += 1
    return count


def count_enumerated(n, connected_only=True):
    return sum(int(chunk.connected.sum()) if connected_only else chunk.size
               for chunk in _scan_chunks(n))


def test_connected_counts_match_brute_force_oracle():
    for n in (3, 4):
        assert count_enumerated(n) == oracle_connected_count(n)


def test_connected_counts_frozen():
    assert count_enumerated(3) == 4
    assert count_enumerated(4) == 38
    assert count_enumerated(5) == 728


def test_enumerate_all_graphs_count():
    assert count_enumerated(3, connected_only=False) == 8
    assert count_enumerated(4, connected_only=False) == 64


def test_enumerate_yields_ascending_masks_and_reports():
    # the chunks tile the masks 0 .. 2^C(n,2) - 1 in ascending order; their
    # per-graph fields are checked in test_scan_fields_match_per_graph_oracle_*
    for n in (3, 4, 6):
        spans = [(chunk.start, chunk.size) for chunk in _scan_chunks(n)]
        assert spans[0][0] == 0
        assert all(start + size == nxt for (start, size), (nxt, _) in zip(spans, spans[1:]))
        assert sum(size for _, size in spans) == 2 ** math.comb(n, 2)


def test_enumerate_predicate_filter():
    # labeled antiregular copies: 4!/|Aut(A4)| = 12
    report = verify_claim("lemma_n0", 4)
    assert report.details["extremal_labeled_count"] == 12
    assert all(is_isomorphic_to(parse_graph6(g6), antiregular(4)) for g6 in report.witnesses)


def test_enumerate_spectral_reports():
    for chunk in _scan_chunks(3):
        for i in np.nonzero(chunk.connected)[0]:
            report = compute_all(Graph.from_pair_mask(3, chunk.start + int(i)))
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
    def no_scan(n):
        raise AssertionError(f"scan started at n={n}")

    monkeypatch.setattr(enumeration, "_verify_all", no_scan)
    monkeypatch.setattr(enumeration, "_scan_chunks", no_scan)
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


def edge_deleted_reference(n):
    """cor_edge_deleted the slow way: delete every edge of every connected
    regular graph, keep the connected results and compare their n0."""
    regular_masks = [chunk.start + int(i) for chunk in _scan_chunks(n)
                     for i in np.nonzero(chunk.connected & (chunk.dmax == chunk.dmin))[0]]
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


@pytest.mark.slow
def test_edge_deleted_count_at_n8():
    # what the graph-by-graph deletion loop reported at n = 8
    details = verify_claim("cor_edge_deleted", 8).details
    assert details["regular_graphs"] == 44_808
    assert details["deletions_checked"] == 634_368
    assert details["n0_after_deletion"] == math.comb(6, 2) + 1


def test_irrt_probe_finds_multiple_classes_at_n6():
    report = verify_claim("irrt_not_unique", 6)
    assert report.passed  # a probe never fails
    assert report.details["max_irr_t"] == 26
    assert report.details["maximizer_class_count"] >= 4
    assert report.details["includes_antiregular"]
    for g6 in report.witnesses:
        g = parse_graph6(g6)
        assert not is_isomorphic_to(g, antiregular(6))
        assert compute_all(g, spectral=False).irr_t == 26


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


def test_identities_catch_corrupted_pair_counts():
    # move one pair from degree difference 1 to 2 wherever there is one: the
    # pair total stays C(n,2), and irrt, weighted from nk as the scan does,
    # moves with it, so only an independent pairwise sum can tell
    chunk = next(_scan_chunks(5))
    nk = chunk.nk.copy()
    shifted = nk[:, 1] > 0
    nk[shifted, 1] -= 1
    nk[shifted, 2] += 1
    bad = dataclasses.replace(chunk, nk=nk, irrt=nk @ np.arange(5, dtype=np.int32))
    for claim_type in (enumeration._Eq2Identity, enumeration._Sec3Identities):
        claim = claim_type(5)
        claim.update(bad)
        assert claim.violations == int((chunk.connected & shifted).sum())


def test_max_albertson_graphs_are_complete_split():
    # empirical observation at small n, not a theorem this package asserts:
    # every n-vertex graph maximizing the Albertson measure is a complete
    # split graph (a clique fully joined to an independent set)
    from graphirr.enumeration import _iso_classes, _scan_chunks

    for n in range(3, 8):
        best = -1
        masks = []
        for chunk in _scan_chunks(n):
            chunk_best = int(chunk.albertson.max())
            if chunk_best > best:
                best = chunk_best
                masks = []
            if chunk_best == best:
                masks.extend(int(chunk.start + i)
                             for i in np.nonzero(chunk.albertson == best)[0])
        targets = [complete_split(n, k) for k in range(1, n)]
        for rep_mask in _iso_classes(n, masks):
            g = Graph.from_pair_mask(n, rep_mask)
            assert any(is_isomorphic_to(g, t) for t in targets), \
                f"n={n}: maximizer {rep_mask} is not a complete split graph"


SCAN_FIELDS = ("connected", "m", "deg", "dmax", "dmin", "degset", "n0", "irrt",
               "pairwise_irrt", "nk", "albertson", "sigma", "nmax_cnt", "universal_cnt")


def oracle_scan_fields(n, mask):
    """Every scan field of one graph, from the graph itself one vertex pair at a time."""
    g = Graph.from_pair_mask(n, mask)
    degrees = g.degrees()
    ds = degree_sequence(g).degrees
    pair_diffs = [abs(degrees[i] - degrees[j]) for i, j in itertools.combinations(range(n), 2)]
    edge_diffs = [abs(degrees[u] - degrees[v]) for u, v in g.edges()]
    return {
        "connected": is_connected(g),
        "m": g.m,
        "deg": list(degrees),
        "dmax": ds[0],
        "dmin": ds[-1],
        "degset": len(set(ds)),
        "n0": pair_diffs.count(0),
        "irrt": sum(pair_diffs),
        "pairwise_irrt": sum(pair_diffs),
        "nk": [pair_diffs.count(k) for k in range(n)],
        "albertson": sum(edge_diffs),
        "sigma": sum(d * d for d in edge_diffs),
        "nmax_cnt": ds.count(ds[0]),
        "universal_cnt": ds.count(n - 1),
    }


def assert_chunk_matches_oracle(n, chunk, indices):
    for i in indices:
        expected = oracle_scan_fields(n, chunk.start + int(i))
        got = {name: getattr(chunk, name)[i].tolist() for name in SCAN_FIELDS}
        assert got == expected, f"n={n} mask={chunk.start + int(i)}"


def test_scan_fields_match_per_graph_oracle_up_to_n5():
    for n in (3, 4, 5):
        chunks = list(_scan_chunks(n))
        assert [(c.start, c.size) for c in chunks] == [(0, 2 ** math.comb(n, 2))]
        assert_chunk_matches_oracle(n, chunks[0], range(chunks[0].size))


def test_scan_fields_match_per_graph_oracle_on_n7_sample():
    rng = np.random.default_rng(2019)
    picked = set(rng.choice(8, size=2, replace=False).tolist())
    starts = []
    for index, chunk in enumerate(_scan_chunks(7)):
        starts.append(chunk.start)
        if index in picked:
            assert_chunk_matches_oracle(7, chunk, rng.choice(chunk.size, size=400, replace=False))
    assert starts == [k << 18 for k in range(8)]


def test_connected_counts_match_graph_atlas():
    # labeled connected graphs = sum over unlabeled connected classes of n!/|Aut|
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    labeled = dict.fromkeys(range(3, 8), 0)
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n in labeled and nx.is_connected(g):
            automorphisms = sum(1 for _ in GraphMatcher(g, g).isomorphisms_iter())
            labeled[n] += math.factorial(n) // automorphisms
    assert labeled == {3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}
    for n, count in labeled.items():
        assert sum(int(chunk.connected.sum()) for chunk in _scan_chunks(n)) == count


@pytest.mark.slow
def test_every_claim_passes_at_n8():
    reports = {claim_id: verify_claim(claim_id, 8) for claim_id in CLAIM_IDS}
    assert [claim_id for claim_id, report in reports.items() if not report.passed] == []
    # the antiregular graph's 8!/2 labelings: its automorphism group has order 2
    assert reports["lemma_n0"].details["extremal_labeled_count"] == math.factorial(8) // 2


@pytest.mark.slow
def test_connected_count_n8_matches_oeis():
    # OEIS A001187: connected labeled graphs on 8 vertices
    assert sum(int(chunk.connected.sum()) for chunk in _scan_chunks(8)) == 251_548_592
