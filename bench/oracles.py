"""Output checks for each workload, against oracles that share no code with graphirr.

Every check returns a Check: how many operations the output covers and how
many of them are wrong.  One operation is one claim x n report of ``verify``,
or one input graph of ``compute`` and ``rank``.  Degree measures are
recomputed in exact rational arithmetic from the corpus' own adjacency
matrices, the spectral measure with ``numpy.linalg.eigvalsh``, and a printed
value must lie within half a unit of its last printed decimal of the exact
value.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from corpus import CorpusGraph

CLAIMS = (
    "lemma_n0", "prop_bounds", "lemma_delta", "prop_lower", "prop_bidegreed",
    "cor_edge_deleted", "problem1_ira_irb", "irrt_not_unique", "eq2_identity",
    "sec3_identities",
)
# claims whose graphs_checked is every connected labeled graph of order n
FULL_SCAN_CLAIMS = (
    "lemma_n0", "prop_bounds", "problem1_ira_irb", "irrt_not_unique", "eq2_identity",
    "sec3_identities",
)
# OEIS A001187: connected labeled graphs on n nodes
CONNECTED_LABELED = {3: 4, 4: 38, 5: 728, 6: 26_704, 7: 1_866_256, 8: 251_548_592}

CSV_COLUMNS = ("n", "m", "irr_t", "degset_minus_1", "cs", "albertson", "sigma",
               "var", "s", "gini", "rho", "n0", "ira", "irb")
DECIMALS = 3
# half a unit in the last printed decimal, plus room for float error in the program
_HALF_UNIT = Fraction(1, 2 * 10**DECIMALS)
_FLOAT_SLACK = Fraction(1, 10**9)
_FIXED = re.compile(r"-?\d+\.\d{%d}" % DECIMALS)
_TIE_LINE = re.compile(r"tie at rank (\d+): (\d+) graphs share ira = (\S+)")


@dataclass
class Check:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        _note(self, problem)


def failed_run(attempted: int, problem: str) -> Check:
    """A run that exited non-zero fails every operation it was given."""
    check = Check(attempted)
    check.fail(attempted, problem)
    return check


def check_verify(text: str, ns: list[int]) -> Check:
    expected = [(claim, n) for claim in CLAIMS for n in ns]
    check = Check(len(expected))
    try:
        reports = json.loads(text)
        keys = Counter((r["claim_id"], r["n"]) for r in reports)
    except (ValueError, KeyError, TypeError) as exc:
        check.fail(len(expected), f"verify output is not a report list: {exc}")
        return check
    if set(keys) - set(expected):
        check.fail(len(expected), f"unexpected reports {sorted(set(keys) - set(expected))}")
        return check
    by_key = {(r["claim_id"], r["n"]): r for r in reports}
    for claim, n in expected:
        report = by_key.get((claim, n))
        if report is None or keys[claim, n] != 1:
            check.fail(1, f"{claim} n={n}: {keys[claim, n]} reports")
        elif report.get("passed") is not True or report.get("violations") != 0:
            check.fail(1, f"{claim} n={n}: not passed")
        elif claim in FULL_SCAN_CLAIMS and report.get("graphs_checked") != CONNECTED_LABELED[n]:
            check.fail(1, f"{claim} n={n}: graphs_checked {report.get('graphs_checked')}, "
                          f"A001187 gives {CONNECTED_LABELED[n]}")
    return check


def graphs_checked(text: str, n: int) -> int:
    """The full-scan count the verify output reports at order n."""
    return next(r["graphs_checked"] for r in json.loads(text)
                if r["claim_id"] == "problem1_ira_irb" and r["n"] == n)


def expected_measures(g: CorpusGraph) -> dict:
    """Every CSV column of one graph: exact Fractions and ints, floats for cs and rho."""
    n = g.n
    d = [int(v) for v in g.degrees]
    total = sum(d)
    m = total // 2
    ascending = sorted(d)
    irr_t = sum((2 * i - n + 1) * v for i, v in enumerate(ascending))
    i, j = np.nonzero(np.triu(g.adjacency))
    diffs = [d[u] - d[v] for u, v in zip(i.tolist(), j.tolist())]
    n0 = sum(c * (c - 1) // 2 for c in Counter(d).values())
    mean = Fraction(total, n)
    if min(d) == 0:
        rho = None
    else:
        randic = sum(1.0 / math.sqrt(d[u] * d[v]) for u, v in zip(i.tolist(), j.tolist()))
        rho = (n - 2 * randic) / (n - 2 * math.sqrt(n - 1))
    return {
        "n": n, "m": m, "irr_t": irr_t, "degset_minus_1": len(set(d)) - 1,
        "cs": float(np.linalg.eigvalsh(g.adjacency.astype(float))[-1]) - 2 * m / n,
        "albertson": sum(abs(x) for x in diffs),
        "sigma": sum(x * x for x in diffs),
        "var": Fraction(sum(v * v for v in d), n) - mean * mean,
        "s": sum(abs(v - mean) for v in d),
        "gini": Fraction(irr_t, 2 * m * n) if m else None,
        "rho": rho,
        "n0": n0,
        "ira": Fraction(n * (n - 1), 2 * n0) - 1,
        "irb": 1 - Fraction(2 * n0, n * (n - 1)),
    }


def _cell_ok(text: str, value) -> bool:
    if value is None:
        return text == ""
    if isinstance(value, int):
        return text == str(value)
    if not _FIXED.fullmatch(text):
        return False
    return abs(Fraction(text) - Fraction(value)) <= _HALF_UNIT + _FLOAT_SLACK


def check_compute_csv(text: str, expected: list[dict]) -> Check:
    check = Check(len(expected))
    lines = text.splitlines()
    if lines[:1] != [",".join(CSV_COLUMNS)] or len(lines) - 1 != len(expected):
        check.fail(len(expected), f"csv header {lines[:1]} and {len(lines) - 1} rows "
                                  f"for {len(expected)} graphs")
        return check
    for idx, (row, want) in enumerate(zip(lines[1:], expected)):
        cells = row.split(",")
        bad = [col for col, cell in zip(CSV_COLUMNS, cells) if not _cell_ok(cell, want[col])]
        if len(cells) != len(CSV_COLUMNS) or bad:
            check.fail(1, f"graph {idx}: columns {bad or 'count'} wrong in {row!r}")
    return check


def check_rank_text(text: str, graphs: list[CorpusGraph], expected: list[dict]) -> Check:
    """Ranks descend in exact ira, ties keep input order and share a rank, and
    every tie group has its one summary line.

    An output whose rows cannot be matched one to one with the inputs fails
    every graph.
    """
    check = Check(len(graphs))
    lines = text.splitlines()
    body = [line.split() for line in lines[1:] if not line.startswith("tie at rank ")]
    tie_lines = lines[1 + len(body):]
    positions: dict[str, list[int]] = {}
    for idx, g in enumerate(graphs):
        positions.setdefault(g.graph6, []).append(idx)
    order = [positions[row[-1]].pop(0) for row in body
             if len(row) in (3, 4) and positions.get(row[-1])]
    if (lines[:1] == [] or lines[0].split() != ["rank", "ira", "input"]
            or len(order) != len(body) or len(order) != len(graphs)):
        check.fail(len(graphs), f"{len(order)} rank rows match the {len(graphs)} inputs")
        return check

    ira = [expected[idx]["ira"] for idx in order]
    groups: list[list[int]] = []  # row positions of each run of equal ira
    for pos in range(len(order)):
        if pos and ira[pos] == ira[pos - 1]:
            groups[-1].append(pos)
        else:
            groups.append([pos])
    failed: set[int] = set()
    for group in groups:
        first = group[0]
        for pos in group:
            rank, value, *tie, _ = body[pos]
            if (rank != str(first + 1) or tie != (["tie"] if len(group) > 1 else [])
                    or not _cell_ok(value, ira[pos])
                    or (pos > first and order[pos] < order[pos - 1])
                    or (pos > 0 and ira[pos] > ira[pos - 1])):
                failed.add(order[pos])
                _note(check, f"rank row {body[pos]}, exact ira {float(ira[pos])}")
    tied = [group for group in groups if len(group) > 1]
    if len(tie_lines) != len(tied):
        _note(check, f"{len(tie_lines)} tie lines for {len(tied)} tie groups")
        failed.update(order)
    for group, line in zip(tied, tie_lines):
        first = group[0]
        got = _TIE_LINE.fullmatch(line)
        if not got or got.groups() != (str(first + 1), str(len(group)), body[first][1]):
            failed.update(order[pos] for pos in group)
            _note(check, f"tie line {line!r} for rank {first + 1}, size {len(group)}")
    check.failed += len(failed)
    return check


def _note(check: Check, problem: str) -> None:
    if len(check.problems) < 5:
        check.problems.append(problem)
