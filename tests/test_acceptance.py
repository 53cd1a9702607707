"""Acceptance gate: every headline behavior, one pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from graphirr import (
    Graph,
    compute_all,
    degree_sequence,
    gini,
    ira,
    irb,
    irr_t,
    lambda1,
    n0,
    nk_spectrum,
    parse_graph6,
    verify_claim,
)
from graphirr.enumeration import _ClassTable
from graphirr.generators import antiregular, complete, complete_minus_edge, gnp, path, star
from graphirr.spectral import Lambda1Batch

from reference_walk import walk


def _finish(num, description, checks):
    ok = all(checks)
    print(f"ACCEPTANCE {num} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: check vector {checks}"


def test_criterion_01_antiregular6_row():
    t0 = time.perf_counter()
    r = compute_all(antiregular(6))
    elapsed = time.perf_counter() - t0
    checks = [
        r.m == 9,
        r.irr_t == 26,
        r.degset_minus_1 == 4,
        r.albertson == 16,
        r.sigma == 40,
        r.n0 == 1,
        r.ira == 14.0,
        abs(r.var - 1.667) <= 5e-4,
        abs(r.s - 6.000) <= 5e-4,
        abs(r.gini - 0.241) <= 5e-4,
        abs(r.irb - 0.933) <= 5e-4,
        abs(r.cs - 0.404) <= 1e-3,
        abs(r.rho - 0.304) <= 1e-3,
        elapsed < 1.0,
    ]
    _finish(1, "6-vertex antiregular reference row", checks)


def test_criterion_02_table_rows_realizable():
    t0 = time.perf_counter()
    report = verify_claim("table_rows", 6)
    elapsed = time.perf_counter() - t0
    row_status = {row["label"]: row["matched"] for row in report.details["rows"]}
    checks = [
        report.passed,
        row_status.get("n0=2") is True,
        row_status.get("n0=3") is True,
        row_status.get("n0=4") is True,
        len(report.witnesses) == 4,
        elapsed < 600.0,
    ]
    _finish(2, "reference rows realizable at n=6", checks)


def test_criterion_03_extremal_characterization():
    checks = []
    for n in (3, 4, 5, 6, 7):
        t0 = time.perf_counter()
        report = verify_claim("problem1_ira_irb", n)
        elapsed = time.perf_counter() - t0
        checks.append(report.passed)
        checks.append(len(report.witnesses) > 0)
        # a maximum witness attains the closed-form extreme values exactly
        d = degree_sequence(parse_graph6(report.witnesses[0]))
        checks.append(ira(d) == math.comb(n, 2) - 1)
        checks.append(irb(d) == 1 - 2 / (n * (n - 1)))
        if n == 7:
            checks.append(elapsed < 300.0)
    _finish(3, "minima on regular, maxima on antiregular, n=3..7", checks)


def test_criterion_04_n0_bounds():
    checks = []
    for n in (3, 4, 5, 6, 7):
        checks.append(verify_claim("lemma_n0", n).passed)
        checks.append(verify_claim("lemma_delta", n).passed)
    _finish(4, "equal-degree pair count bounds, n=3..7", checks)


def test_criterion_05_lower_bounds():
    checks = [verify_claim("prop_lower", n).passed for n in (3, 4, 5, 6, 7)]
    # analytic spot check: the 6-vertex star sits exactly on its lower bound
    d = degree_sequence(star(6))
    delta = d[0]
    bound = 2 * delta / (6 * 5 - 2 * delta)
    checks.append(ira(d) == 0.5)
    checks.append(ira(d) == bound)
    # irb equality holds exactly in rationals: 1 - 2*n0/30 = 2*delta/30
    checks.append(Fraction(30 - 2 * n0(d), 30) == Fraction(2 * delta, 30))
    checks.append(abs(irb(d) - 2 * delta / 30) <= 1e-15)
    _finish(5, "nonregular lower bounds with star equality, n=3..7", checks)


def test_criterion_06_edge_deleted_regular():
    checks = [verify_claim("cor_edge_deleted", n).passed for n in (3, 4, 5, 6, 7)]
    for g in (path(6), complete_minus_edge(6)):
        nv = n0(degree_sequence(g))
        checks.append(Fraction(30, 2 * nv) - 1 == Fraction(8, 7))
        checks.append(1 - Fraction(2 * nv, 30) == Fraction(8, 15))
    _finish(6, "edge-deleted regular graphs share ira/irb", checks)


def test_criterion_07_identity_suite():
    checks = []
    for n in (3, 4, 5, 6):
        checks.append(verify_claim("eq2_identity", n).passed)
        checks.append(verify_claim("sec3_identities", n).passed)
    probabilities = (0.15, 0.3, 0.5, 0.7, 0.85)
    bad = 0
    for i in range(1000):
        n = 2 + i % 11
        g = gnp(n, probabilities[i % 5], seed=1000 + i)
        degrees = list(g.degrees())
        d = degree_sequence(g)
        spec = nk_spectrum(d)
        pairwise = sum(
            abs(degrees[u] - degrees[v])
            for u, v in itertools.combinations(range(n), 2)
        )
        sorted_desc = sorted(degrees, reverse=True)
        ranked = sum((n + 1 - 2 * i) * di for i, di in enumerate(sorted_desc, 1))
        ok = (
            sum(spec.counts.values()) == math.comb(n, 2)
            and sum(k * c for k, c in spec.counts.items()) == pairwise
            and irr_t(d) == pairwise == ranked
        )
        if ok and g.m > 0:
            z_ratio = pairwise / (2 * g.m * n)
            z_rank = 1 - sum((2 * i - 1) * di for i, di in enumerate(sorted_desc, 1)) / (2 * g.m * n)
            scale = max(1.0, abs(z_ratio), abs(z_rank))
            ok = (
                abs(gini(d) - z_ratio) <= 1e-12 * scale
                and abs(z_ratio - z_rank) <= 1e-12 * scale
            )
        if not ok:
            bad += 1
    checks.append(bad == 0)
    _finish(7, "pair-count and rewrite identities, exhaustive and random", checks)


def test_criterion_08_max_irrt_not_unique():
    report = verify_claim("irrt_not_unique", 6)
    checks = [
        report.passed,
        report.details["max_irr_t"] == 26,
        report.details["maximizer_class_count"] >= 4,
        report.details["includes_antiregular"],
    ]
    _finish(8, "four or more classes share the n=6 maximum irr_t", checks)


def connected_graphs(n):
    """Every connected labeled n-vertex graph of the reference walk, in ascending mask order."""
    for masks, _, connected in walk(n):
        for mask in masks[connected].tolist():
            yield Graph.from_pair_mask(n, mask)


def test_criterion_09_spectral_oracle_agreement():
    # one Lambda1Batch per n; each batched result is bit-identical to the
    # graph's own lambda1 (test_spectral pins that), and a few graphs per n
    # also go through lambda1 itself
    checks = []
    worst = 0.0
    for n in (1, 2):
        g = complete(n)
        oracle = float(np.linalg.eigvalsh(g.adjacency_matrix())[-1])
        worst = max(worst, abs(lambda1(g).lambda1 - oracle))
    for n in (3, 4, 5, 6):
        graphs = list(connected_graphs(n))
        batch = Lambda1Batch(graphs)
        values = np.array([batch.result(g).lambda1 for g in graphs])
        oracle = np.linalg.eigvalsh(np.stack([g.adjacency_matrix() for g in graphs]))[:, -1]
        worst = max(worst, float(np.max(np.abs(values - oracle))))
        for i in range(0, len(graphs), max(1, len(graphs) // 3)):
            worst = max(worst, abs(lambda1(graphs[i]).lambda1 - oracle[i]))
    checks.append(worst <= 1e-8)
    checks.append(abs(lambda1(star(6)).lambda1 - math.sqrt(5)) <= 1e-8)
    _finish(9, "power iteration vs dense eigensolver, all connected n<=6", checks)


def test_criterion_10_connected_counts():
    def oracle_count(n):
        pairs = list(itertools.combinations(range(n), 2))
        count = 0
        for bits in range(1 << len(pairs)):
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for k, (u, v) in enumerate(pairs):
                if bits >> k & 1:
                    parent[find(u)] = find(v)
            if len({find(v) for v in range(n)}) == 1:
                count += 1
        return count

    expected = {3: 4, 4: 38, 5: 728}
    checks = []
    for n, frozen in expected.items():
        enumerated = sum(_ClassTable(n).counts.values())
        brute = oracle_count(n)
        checks.append(enumerated == frozen)
        checks.append(brute == frozen)
    _finish(10, "connected labeled counts 4/38/728", checks)
