"""Why two graphs with the same total irregularity need not look alike.

Four pairwise non-isomorphic connected 6-vertex graphs all reach the maximum
total irregularity irr_t = 26, so irr_t alone cannot rank them.  Their
equal-degree pair counts n0 = 1, 2, 3, 4 differ, and ira/irb turn that into a
strict ranking.

Run: python3 demos/ranking_ties.py
"""

from graphirr import compute_all, parse_graph6, verify_claim


def main():
    report = verify_claim("table_rows", 6)
    if not report.passed:
        raise SystemExit("reference rows unexpectedly unmatched")

    graphs = [(g6, compute_all(parse_graph6(g6))) for g6 in report.witnesses]

    print("four 6-vertex graphs, one value of irr_t:")
    print()
    print(f"{'graph6':<8} {'degrees':<22} {'irr_t':>5} {'n0':>3} {'ira':>7} {'irb':>7}")
    for g6, r in graphs:
        degrees = tuple(sorted(parse_graph6(g6).degrees(), reverse=True))
        print(f"{g6:<8} {str(degrees):<22} {r.irr_t:>5} {r.n0:>3} "
              f"{r.ira:>7.2f} {r.irb:>7.3f}")

    print()
    irrts = {r.irr_t for _, r in graphs}
    print(f"ranking by irr_t: a single {len(graphs)}-way tie at {irrts.pop()}")

    by_ira = sorted(graphs, key=lambda item: -item[1].ira)
    chain = " > ".join(g6 for g6, _ in by_ira)
    print(f"ranking by ira:   {chain} (strict)")
    assert [r.n0 for _, r in by_ira] == [1, 2, 3, 4]

    by_irb = sorted(graphs, key=lambda item: -item[1].irb)
    assert [g6 for g6, _ in by_irb] == [g6 for g6, _ in by_ira]
    print("ranking by irb:   identical to ira (both are decreasing in n0)")

    print()
    print("The same comparison through the command line:")
    print("  graphirr verify --claims table_rows --n 6 --output json \\")
    print("    | python3 -c 'import json,sys; print(\"\\n\".join(json.load(sys.stdin)[0][\"witnesses\"]))' \\")
    print("    | graphirr rank - --by ira")


if __name__ == "__main__":
    main()
