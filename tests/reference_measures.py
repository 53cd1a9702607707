"""The single-graph measure formulas, the oracle for graphirr's degree and edge passes.

MeasureReport once computed each graph's measures on their own, from its
degree list and one walk over ``g.edges()``.  This module keeps those
measures, each computed here from its definition: irr_t as a sum over all
vertex pairs, not the rank form graphirr uses, and n0 from a Counter.
Every float sum is an explicit loop that adds its terms left to right, in
the order the single-graph forms used (the degrees non-increasing, the
edges in pair order), because ``sum`` of floats is compensated from Python
3.12 on.
"""

import itertools
import math
from collections import Counter


def edge_sums(g):
    """albertson, sigma and the Randic index of g, from one walk over its edges."""
    deg = g.degrees()
    albertson = sigma = 0
    randic = 0.0
    for u, v in g.edges():
        a, b = deg[u], deg[v]
        albertson += abs(a - b)
        sigma += (a - b) ** 2
        randic += 1.0 / math.sqrt(a * b)
    return albertson, sigma, randic


def deviations(degrees):
    """Variance and total absolute deviation of the degrees around their mean."""
    mean = sum(degrees) / len(degrees)
    squares = absolute = 0.0
    for v in degrees:
        squares += (v - mean) ** 2
        absolute += abs(v - mean)
    return squares / len(degrees), absolute


def degree_measures(degrees):
    """Every column of the degree pass for one degree list, by name."""
    degrees = sorted(degrees, reverse=True)
    var, s = deviations(degrees)
    return {
        "total": sum(degrees),
        "irr_t": sum(abs(a - b) for a, b in itertools.combinations(degrees, 2)),
        # graphirr's n0 refuses n = 1; the column holds the count there too
        "equal_pairs": sum(c * (c - 1) // 2 for c in Counter(degrees).values()),
        "degree_set_size": len(set(degrees)),
        "min_degree": min(degrees),
        "max_degree": max(degrees),
        "var": var,
        "s": s,
    }


def columns(g):
    """Every column of the degree and edge passes for g, by name."""
    albertson, sigma, randic = edge_sums(g)
    return {**degree_measures(g.degrees()), "albertson": albertson, "sigma": sigma, "randic": randic}
