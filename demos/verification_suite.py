"""Exhaustive verification of the extremal claims on every connected graph, n <= 6.

Each claim is checked against every connected labeled graph of the given
order; nothing is sampled.  Expect the whole run to take a few seconds.

Run: python3 demos/verification_suite.py [max_n]
"""

import sys
import time

from graphirr import CLAIM_IDS, CLAIM_SUMMARIES, verify_claim


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    orders = range(3, max_n + 1)

    print(f"claim checks over all connected labeled graphs, n = 3..{max_n}")
    print()
    width = max(len(c) for c in CLAIM_IDS)
    failures = 0
    for claim_id in CLAIM_IDS:
        print(f"{claim_id}: {CLAIM_SUMMARIES[claim_id]}")
        for n in orders:
            t0 = time.perf_counter()
            report = verify_claim(claim_id, n)
            elapsed = time.perf_counter() - t0
            status = "ok" if report.passed else "FAILED"
            print(f"  {'':{width}} n={n}: {status:6} "
                  f"{report.graphs_checked:>9} graphs, "
                  f"{report.violations} violations, {elapsed:5.2f}s")
            failures += 0 if report.passed else 1
        print()

    print("reference-row search at n = 6:")
    report = verify_claim("table_rows", 6)
    for row in report.details["rows"]:
        status = "ok" if row["matched"] else "FAILED"
        print(f"  row {row['label']}: {status}  witness={row['witness']}  "
              f"(of {row['candidate_classes']} candidate classes)")
    failures += report.violations

    print()
    if failures:
        print(f"{failures} failures")
        raise SystemExit(2)
    print("all claims verified")


if __name__ == "__main__":
    main()
