"""The single-graph measure formulas, the oracle for graphirr's block pass.

MeasureReport once computed each graph's measures on their own: the degree
measures through ``_Degrees(degree_sequence(g))`` and albertson, sigma and
the Randic index through one walk over ``g.edges()``.  This module keeps
those formulas.  Every float sum is an explicit loop that adds its terms
left to right, in the order the single-graph forms used (the degrees
non-increasing, the edges in pair order), because ``sum`` of floats is
compensated from Python 3.12 on.
"""

import math

from graphirr.graphs import degree_sequence
from graphirr.measures import _Degrees


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


def columns(g):
    """Every column of the block pass for g, by name."""
    d = _Degrees(degree_sequence(g))
    var, s = deviations(d.degrees)
    albertson, sigma, randic = edge_sums(g)
    return {
        "m": d.m,
        "irr_t": d.irr_t,
        # _Degrees.n0 refuses n = 1; the column holds the count there too
        "n0": sum(c * (c - 1) // 2 for c in d.multiplicities.values()),
        "degree_set_size": d.degree_set_size,
        "min_degree": d.min_degree,
        "max_degree": d.max_degree,
        "var": var,
        "s": s,
        "albertson": albertson,
        "sigma": sigma,
        "randic": randic,
    }
