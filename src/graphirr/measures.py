"""Degree-based irregularity measures and the pair degree-difference spectrum.

All of these quantify how far a graph is from regular; each is zero exactly on
regular graphs.  Most depend only on the degree sequence.  The two pair-count
measures ira and irb are built from n0, the number of unordered vertex pairs
with equal degrees: ira is the odds that a random pair has distinct degrees,
irb the probability of the same event.  Every measure is computed from one
sorted degree sequence (plus the edges, for albertson, sigma, cs and rho)
when it is first read, so reading one measure never computes another that
does not feed it; albertson, sigma and rho share one walk over the edges.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from functools import cached_property
from itertools import combinations

from .graphs import Graph, degree_sequence, is_connected
from .spectral import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE, Lambda1Batch

__all__ = [
    "CSV_COLUMNS",
    "NkSpectrum",
    "MeasureReport",
    "nk_spectrum",
    "irr_t",
    "n0",
    "ira",
    "irb",
    "gini",
    "gini_sequence",
    "variance",
    "discrepancy",
    "degree_deviation",
    "albertson",
    "sigma",
    "cs_index",
    "randic",
    "rho",
    "degree_set_size",
    "compute_all",
    "round_half_away",
    "format_value",
]

# A double holds 15 to 17 significant decimal digits; more places print noise.
_MAX_DECIMALS = 15


def _quantum(decimals: int) -> Decimal:
    """The unit of the last kept place; raises ValueError outside 0..15 decimals."""
    if not 0 <= decimals <= _MAX_DECIMALS:
        raise ValueError(f"decimals must be in 0..{_MAX_DECIMALS}, got {decimals}")
    return Decimal(1).scaleb(-decimals)


# 309 integer digits (the largest finite double), 15 places and a carry: 325 digits.
_ROUNDING = Context(prec=325, rounding=ROUND_HALF_UP)


def _quantize(x: float, decimals: int) -> Decimal:
    return Decimal(repr(float(x))).quantize(_quantum(decimals), context=_ROUNDING)


def round_half_away(x: float, decimals: int = 3) -> float:
    """Round with ties going away from zero (so 0.0005 -> 0.001 at 3 decimals)."""
    return float(_quantize(x, decimals))


def format_value(x, decimals: int = 3) -> str:
    """Fixed-point display string; integers stay integers, None becomes ''."""
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    quantized = _quantize(x, decimals)
    if quantized.is_zero():
        quantized = abs(quantized)  # avoid a -0.000 display
    return f"{quantized:f}"


def _ira(n: int, n0_value: int) -> float:
    return n * (n - 1) / (2 * n0_value) - 1.0


def _irb(n: int, n0_value: int) -> float:
    return 1.0 - 2 * n0_value / (n * (n - 1))


def _rho(n: int, randic_value: float) -> float:
    return (n - 2 * randic_value) / (n - 2 * math.sqrt(n - 1))


class _Degrees:
    """One degree sequence, sorted non-increasing, and every degree measure of it.

    Built from a Graph or an iterable of non-negative ints.  Each measure is
    computed when first read and kept; n0 (so also ira and irb) raises
    ValueError for n < 2, ira for n0 = 0 and gini for m = 0, when read.
    """

    def __init__(self, source):
        if isinstance(source, Graph):
            degrees = degree_sequence(source)
        else:
            try:  # numpy integers pass; floats and strings do not
                degrees = tuple(sorted(map(operator.index, source), reverse=True))
            except TypeError:
                raise ValueError("degrees must be integers") from None
            if not degrees:
                raise ValueError("empty degree sequence")
            if degrees[-1] < 0:
                raise ValueError("negative degree")
        self.degrees = degrees
        self.n = len(degrees)
        self.total = sum(degrees)  # = 2m for a graph

    @property
    def m(self) -> int:
        return self.total // 2

    @property
    def max_degree(self) -> int:
        return self.degrees[0]

    @property
    def min_degree(self) -> int:
        return self.degrees[-1]

    @cached_property
    def multiplicities(self) -> Counter:
        """Map degree value -> number of vertices with that degree."""
        return Counter(self.degrees)

    @property
    def degree_set_size(self) -> int:
        return len(self.multiplicities)

    @property
    def degset_minus_1(self) -> int:
        return self.degree_set_size - 1

    @cached_property
    def irr_t(self) -> int:
        """Rank form: sum of (n+1-2i)*d_i over the non-increasing degrees."""
        n = self.n
        return sum((n + 1 - 2 * i) * v for i, v in enumerate(self.degrees, start=1))

    @cached_property
    def n0(self) -> int:
        """Sum of c*(c-1)/2 over every occurring degree value including 0, so
        that it always equals the k=0 entry of nk_spectrum."""
        if self.n < 2:
            raise ValueError(f"n0 needs n >= 2, got n={self.n}")
        return sum(c * (c - 1) // 2 for c in self.multiplicities.values())

    @cached_property
    def ira(self) -> float:
        if self.n0 == 0:
            raise ValueError("ira is undefined when no two degrees are equal (n0 = 0)")
        return _ira(self.n, self.n0)

    @cached_property
    def irb(self) -> float:
        return _irb(self.n, self.n0)

    @cached_property
    def gini(self) -> float:
        if self.total == 0:
            raise ValueError("gini is undefined for an edgeless graph (mean degree 0)")
        return self.irr_t / (self.total * self.n)

    @cached_property
    def _deviations(self) -> tuple[float, float]:
        """Variance and total absolute deviation of the degrees around their mean."""
        n = self.n
        mean = self.total / n
        dev = [v - mean for v in self.degrees]
        return sum(x ** 2 for x in dev) / n, sum(abs(x) for x in dev)

    @property
    def var(self) -> float:
        return self._deviations[0]

    @property
    def s(self) -> float:
        return self._deviations[1]

    @property
    def disc(self) -> float:
        return self._deviations[1] / self.n

    def value(self, name: str):
        """Look up a measure by its column name."""
        return getattr(self, name)


@dataclass(frozen=True)
class NkSpectrum:
    """Counts of unordered vertex pairs at each degree difference k (zero counts omitted)."""

    counts: dict[int, int]
    n: int

    @property
    def total_pairs(self) -> int:
        return sum(self.counts.values())

    @property
    def weighted_sum(self) -> int:
        """Sum of k * N_k; equals the total irregularity of the same graph."""
        return sum(k * c for k, c in self.counts.items())


def nk_spectrum(d) -> NkSpectrum:
    """Degree-difference pair counts over all C(n, 2) unordered vertex pairs, k ascending.

    Built from the degree multiplicities c: N_0 = n0 and N_k = sum of c_a * c_b
    over the degree values a > b with a - b = k.  A _Degrees is read as is.
    """
    if not isinstance(d, _Degrees):
        d = _Degrees(d)
    if d.n < 2:
        raise ValueError(f"nk_spectrum needs n >= 2 (no pairs for n={d.n})")
    hist = d.multiplicities
    counts = Counter({0: d.n0})
    for a, b in combinations(sorted(hist, reverse=True), 2):
        counts[a - b] += hist[a] * hist[b]
    return NkSpectrum(counts={k: c for k, c in sorted(counts.items()) if c}, n=d.n)


def irr_t(d) -> int:
    """Total irregularity: sum of |d_u - d_v| over all unordered vertex pairs."""
    return _Degrees(d).irr_t


def n0(d) -> int:
    """Number of unordered vertex pairs with equal degrees."""
    return _Degrees(d).n0


def ira(d) -> float:
    """Odds that a random vertex pair has distinct degrees: n(n-1)/(2*n0) - 1."""
    return _Degrees(d).ira


def irb(d) -> float:
    """Fraction of vertex pairs with distinct degrees: 1 - 2*n0/(n(n-1))."""
    return _Degrees(d).irb


def gini(d) -> float:
    """Gini index of the degree sequence: irr_t/(2mn)."""
    return _Degrees(d).gini


def gini_sequence(y) -> float:
    """Gini index of a non-negative real sequence.

    Uses the rank-weighted form 1 - (sum of (2i-1)*y_i)/(n^2 * mean) on the
    sequence sorted non-increasing; equals the pairwise double-sum form.
    """
    ys = sorted((float(v) for v in y), reverse=True)
    if not ys:
        raise ValueError("empty sequence")
    if ys[-1] < 0:
        raise ValueError("sequence values must be non-negative")
    total = sum(ys)
    if total == 0:
        raise ValueError("gini is undefined when the mean is zero")
    n = len(ys)
    weighted = sum((2 * i - 1) * v for i, v in enumerate(ys, start=1))
    return 1.0 - weighted / (n * total)


def variance(d) -> float:
    """Degree variance: mean squared deviation from the average degree."""
    return _Degrees(d).var


def discrepancy(d) -> float:
    """Mean absolute deviation of the degrees from the average degree."""
    return _Degrees(d).disc


def degree_deviation(d) -> float:
    """Total absolute deviation from the average degree: n times the discrepancy."""
    return _Degrees(d).s


def albertson(g: Graph) -> int:
    """Sum of |d_u - d_v| over the edges."""
    return compute_all(g).albertson


def sigma(g: Graph) -> int:
    """Sum of (d_u - d_v)^2 over the edges."""
    return compute_all(g).sigma


def cs_index(
    g: Graph,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> float:
    """Spectral irregularity lambda1 - 2m/n of a connected graph; zero exactly on regular graphs."""
    if not is_connected(g):
        raise ValueError("cs_index requires a connected graph")
    return compute_all(g, batch=Lambda1Batch([g], tolerance, max_iterations)).cs


def randic(g: Graph) -> float:
    """Sum of 1/sqrt(d_u * d_v) over the edges; equals n/2 on regular graphs."""
    if min(g.degrees()) < 1:
        raise ValueError("randic is undefined for graphs with an isolated vertex")
    return compute_all(g)._edge_sums[2]


def rho(g: Graph) -> float:
    """Normalized heterogeneity (n - 2R)/(n - 2*sqrt(n-1)); zero iff regular."""
    if g.n < 3:
        raise ValueError(f"rho requires n >= 3, got n={g.n}")
    return _rho(g.n, randic(g))


def degree_set_size(d) -> int:
    """Number of distinct degree values."""
    return _Degrees(d).degree_set_size


# The columns compute prints by default, in order.
CSV_COLUMNS = (
    "n", "m", "irr_t", "degset_minus_1", "cs", "albertson", "sigma",
    "var", "s", "gini", "rho", "n0", "ira", "irb",
)


class MeasureReport(_Degrees):
    """Every measure of one graph, each computed when first read.

    Adds the edge measures, the spectral ones and connectivity to the degree
    measures.  The first cs read of any report in a Lambda1Batch runs power
    iteration, checking its settings, for all of them; cs is computed even
    for disconnected input, which ``connected`` flags.  rho is None where
    undefined (it needs n >= 3 and no isolated vertex).
    """

    def __init__(self, g: Graph, batch: Lambda1Batch):
        super().__init__(g)
        self.graph = g
        self._batch = batch

    @cached_property
    def _edge_sums(self) -> tuple[int, int, float]:
        """albertson, sigma and the Randic index from one walk over the edges."""
        deg = self.graph.degrees()
        ends = [(deg[u], deg[v]) for u, v in self.graph.edges()]
        return (sum(abs(a - b) for a, b in ends), sum((a - b) ** 2 for a, b in ends),
                sum(1.0 / math.sqrt(a * b) for a, b in ends))

    @property
    def albertson(self) -> int:
        return self._edge_sums[0]

    @property
    def sigma(self) -> int:
        return self._edge_sums[1]

    @cached_property
    def cs(self) -> float:
        return self._batch.result(self.graph).lambda1 - 2 * self.m / self.n

    @cached_property
    def rho(self) -> float | None:
        return _rho(self.n, self._edge_sums[2]) if self.n >= 3 and self.min_degree >= 1 else None

    @cached_property
    def connected(self) -> bool:
        return is_connected(self.graph)


def compute_all(g: Graph, *, batch: Lambda1Batch | None = None) -> MeasureReport:
    """The MeasureReport of g: each measure is computed when first read, so
    an undefined one raises only when read and an unread cs costs nothing.
    With a ``batch`` holding g, cs comes from it under the batch's settings;
    without one, from a batch of g alone at the default settings.
    """
    if batch is None:
        batch = Lambda1Batch([g])
    return MeasureReport(g, batch)
