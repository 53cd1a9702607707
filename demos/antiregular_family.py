"""The antiregular family: one repeated degree, maximal ira/irb at every order.

Run: python3 demos/antiregular_family.py
"""

import math
from collections import Counter

from graphirr import degree_sequence, emit_graph6, ira, irb, n0
from graphirr.generators import antiregular


def main():
    print("A connected n-vertex graph can never have all degrees distinct, so the")
    print("best it can do is n-1 distinct values with exactly one value repeated.")
    print("The antiregular graph realizes that for every n >= 2, which makes its")
    print("equal-degree pair count n0 = 1, the smallest possible.")
    print()
    header = f"{'n':>2}  {'graph6':<10} {'degrees':<24} {'repeated':<9} {'n0':>3} {'ira':>8} {'irb':>7}"
    print(header)
    print("-" * len(header))
    for n in range(2, 9):
        g = antiregular(n)
        d = degree_sequence(g)
        repeated = [v for v, c in Counter(d).items() if c > 1]
        print(f"{n:>2}  {emit_graph6(g):<10} {str(d):<24} "
              f"{str(repeated[0]):<9} {n0(d):>3} {ira(d):>8.3f} {irb(d):>7.3f}")

    print()
    print("At each n the measures hit their theoretical ceilings:")
    for n in range(3, 9):
        d = degree_sequence(antiregular(n))
        assert ira(d) == math.comb(n, 2) - 1
        assert abs(irb(d) - (1 - 2 / (n * (n - 1)))) < 1e-15
        print(f"  n={n}: ira = C({n},2) - 1 = {math.comb(n, 2) - 1}, "
              f"irb = 1 - 2/{n * (n - 1)} = {irb(d):.6f}")


if __name__ == "__main__":
    main()
