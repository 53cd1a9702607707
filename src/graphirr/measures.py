"""Degree-based irregularity measures and the pair degree-difference spectrum.

All of these quantify how far a graph is from regular; each is zero exactly on
regular graphs.  Most depend only on the degree sequence.  The two pair-count
measures ira and irb are built from n0, the number of unordered vertex pairs
with equal degrees: ira is the odds that a random pair has distinct degrees,
irb the probability of the same event.  ira, irb, gini and the other derived
measures come from one row of degree columns, in _DegreeMeasures (the edges
add albertson, sigma, cs and rho), and the row has two sources, chosen by the
input: a batch of graphs or one degree list.  Either way the row comes from
plain Python: the integer columns from _integer_row, and var and s from
_deviation_row.

A MeasureReport reads its graph's position in columns that its Lambda1Batch
keeps over all of its graphs: the batch runs the Python degree pass once over
all of them at the first read of an integer measure, the deviation pass at
the first read of var or s, the edge pass at the first read of an edge
measure, and power iteration at the first cs read.  The edge pass walks
each graph's lower neighbour masks.  The passes add every float sum left to
right in the order of the single-graph formulas, so each value has the bits
they give, and every integer sum is a Python int, which cannot wrap.  Only
power iteration imports numpy, so every measure but cs is computed without it.

A _DegreeProfile, which the single-measure functions and the verifier's
class table read, computes the integer columns of one degree list at the
first read of any, and var and s by _deviation_row at the first of either.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from itertools import combinations

from .graphs import Graph, degree_sequence, is_connected
from .spectral import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE, Lambda1Batch, lambda1

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
_QUANTA = tuple(Decimal(1).scaleb(-decimals) for decimals in range(_MAX_DECIMALS + 1))


def _quantum(decimals: int) -> Decimal:
    """The unit of the last kept place; raises ValueError outside 0..15 decimals."""
    if not 0 <= decimals <= _MAX_DECIMALS:
        raise ValueError(f"decimals must be in 0..{_MAX_DECIMALS}, got {decimals}")
    return _QUANTA[decimals]


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


# Both are exact on a Fraction n0, for the verifier's interval checks, and
# give the same float as with 1.0 on an int n0.
def _ira(n: int, n0_value: int) -> float:
    return n * (n - 1) / (2 * n0_value) - 1


def _irb(n: int, n0_value: int) -> float:
    return 1 - 2 * n0_value / (n * (n - 1))


def _rho(n: int, randic_value: float) -> float:
    return (n - 2 * randic_value) / (n - 2 * math.sqrt(n - 1))


def _degree_list(source) -> tuple[int, ...]:
    """The degrees of a Graph, or of an iterable of non-negative ints, sorted non-increasing."""
    if isinstance(source, Graph):
        return degree_sequence(source)
    try:  # numpy integers pass; floats and strings do not
        degrees = tuple(sorted(map(operator.index, source), reverse=True))
    except TypeError:
        raise ValueError("degrees must be integers") from None
    if not degrees:
        raise ValueError("empty degree sequence")
    if degrees[-1] < 0:
        raise ValueError("negative degree")
    return degrees


class _DegreeMeasures:
    """The measures derived from one row of the degree pass, and the checks
    they make when read: n0 (so also ira and irb) raises ValueError for
    n < 2, ira for n0 = 0 and gini for a zero degree sum.  A subclass gives
    n and the row: total, irr_t, equal_pairs, degree_set_size, min_degree,
    max_degree, var and s.
    """

    __slots__ = ()

    @property
    def m(self) -> int:
        return self.total // 2

    @property
    def degset_minus_1(self) -> int:
        return self.degree_set_size - 1

    @property
    def n0(self) -> int:
        """Sum of c*(c-1)/2 over every occurring degree value including 0, so
        that it always equals the k=0 entry of nk_spectrum."""
        if self.n < 2:
            raise ValueError(f"n0 needs n >= 2, got n={self.n}")
        return self.equal_pairs

    @property
    def ira(self) -> float:
        n0 = self.n0
        if n0 == 0:
            raise ValueError("ira is undefined when no two degrees are equal (n0 = 0)")
        return _ira(self.n, n0)

    @property
    def irb(self) -> float:
        return _irb(self.n, self.n0)

    @property
    def gini(self) -> float:
        if self.total == 0:
            raise ValueError("gini is undefined for an edgeless graph (mean degree 0)")
        return self.irr_t / (self.total * self.n)

    @property
    def disc(self) -> float:
        return self.s / self.n

    def value(self, name: str):
        """Look up a measure by its column name."""
        return getattr(self, name)


_INTEGER_COLUMNS = ("total", "irr_t", "equal_pairs", "degree_set_size", "min_degree", "max_degree")


def _integer_row(degrees: tuple[int, ...], multiplicities: Counter) -> tuple[int, ...]:
    """The _INTEGER_COLUMNS of a non-increasing degree list with the given
    histogram: irr_t in the rank form, sum of (n - 1 - 2i) * d_i, and
    equal_pairs as the sum of C(c, 2) over the histogram's counts."""
    n = len(degrees)
    return (sum(degrees), sum(map(operator.mul, range(n - 1, -n, -2), degrees)),
            sum(c * (c - 1) // 2 for c in multiplicities.values()), len(multiplicities),
            degrees[-1], degrees[0])


class _DegreeProfile(_DegreeMeasures):
    """One degree list, sorted non-increasing, with its integer columns
    computed from the list and its histogram when any is first read, and var
    and s from the same _deviation_row as the batch's when either is first read."""

    def __init__(self, degrees: tuple[int, ...]):
        self.degrees, self.n = degrees, len(degrees)

    def __getattr__(self, name: str):
        # only a row not yet read gets here, kept whole at its first read: the histogram
        # (degree value -> number of vertices) with the integer columns, or var and s
        if name == "var" or name == "s":
            self.var, self.s = _deviation_row(self.degrees)
        elif name == "multiplicities" or name in _INTEGER_COLUMNS:
            self.multiplicities = Counter(self.degrees)
            self.__dict__.update(zip(_INTEGER_COLUMNS, _integer_row(self.degrees, self.multiplicities)))
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.__dict__[name]


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

    Built from the degree multiplicities c: N_0 = sum of C(c, 2), and N_k =
    sum of c_a * c_b over the degree values a > b with a - b = k.  A profile
    is read by the multiplicities of its degrees.
    """
    hist = d.multiplicities if isinstance(d, _DegreeProfile) else Counter(_degree_list(d))
    n = sum(hist.values())
    if n < 2:
        raise ValueError(f"nk_spectrum needs n >= 2 (no pairs for n={n})")
    counts = Counter({0: sum(c * (c - 1) // 2 for c in hist.values())})
    for a, b in combinations(sorted(hist, reverse=True), 2):
        counts[a - b] += hist[a] * hist[b]
    return NkSpectrum(counts={k: c for k, c in sorted(counts.items()) if c}, n=n)


def irr_t(d) -> int:
    """Total irregularity: sum of |d_u - d_v| over all unordered vertex pairs."""
    return _degree_profile(d).irr_t


def n0(d) -> int:
    """Number of unordered vertex pairs with equal degrees."""
    return _degree_profile(d).n0


def ira(d) -> float:
    """Odds that a random vertex pair has distinct degrees: n(n-1)/(2*n0) - 1."""
    return _degree_profile(d).ira


def irb(d) -> float:
    """Fraction of vertex pairs with distinct degrees: 1 - 2*n0/(n(n-1))."""
    return _degree_profile(d).irb


def gini(d) -> float:
    """Gini index of the degree sequence: irr_t/(2mn)."""
    return _degree_profile(d).gini


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
    return _degree_profile(d).var


def discrepancy(d) -> float:
    """Mean absolute deviation of the degrees from the average degree."""
    return _degree_profile(d).disc


def degree_deviation(d) -> float:
    """Total absolute deviation from the average degree: n times the discrepancy."""
    return _degree_profile(d).s


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
    return lambda1(g, tolerance, max_iterations).lambda1 - 2 * g.m / g.n


def randic(g: Graph) -> float:
    """Sum of 1/sqrt(d_u * d_v) over the edges; equals n/2 on regular graphs."""
    if min(g.degrees()) < 1:
        raise ValueError("randic is undefined for graphs with an isolated vertex")
    return compute_all(g)._randic


def rho(g: Graph) -> float:
    """Normalized heterogeneity (n - 2R)/(n - 2*sqrt(n-1)); zero iff regular."""
    if g.n < 3:
        raise ValueError(f"rho requires n >= 3, got n={g.n}")
    return _rho(g.n, randic(g))


def degree_set_size(d) -> int:
    """Number of distinct degree values."""
    return _degree_profile(d).degree_set_size


def _deviation_row(degrees) -> tuple[float, float]:
    """var and s of a non-increasing degree list.

    The mean is the exact integer sum divided once by n.  Both sums add
    their terms strictly left to right, not by ``sum``, which compensates
    float sums from Python 3.12 on; each deviation is squared by libm pow,
    as ``x ** 2`` on a float squares it.
    """
    n = len(degrees)
    mean = sum(degrees) / n
    squares = absolute = 0.0
    for d in degrees:
        deviation = d - mean
        squares += deviation ** 2
        absolute += abs(deviation)
    return squares / n, absolute


def _degree_columns(graphs: list[Graph], degrees: list[tuple[int, ...]]) -> dict[str, list]:
    """The _INTEGER_COLUMNS of a batch's graphs, in plain Python, from their degree rows."""
    ordered = (sorted(row, reverse=True) for row in degrees)
    rows = [_integer_row(row, Counter(row)) for row in ordered]
    return dict(zip(_INTEGER_COLUMNS, map(list, zip(*rows))))


def _deviation_columns(graphs: list[Graph], degrees: list[tuple[int, ...]]) -> dict[str, list]:
    """var and s of a batch's graphs, from their sorted degree rows."""
    ordered = (sorted(row, reverse=True) for row in degrees)
    return dict(zip(("var", "s"), map(list, zip(*map(_deviation_row, ordered)))))


def _degree_profile(source) -> _DegreeProfile:
    """The profile of a Graph or a degree list."""
    return _DegreeProfile(_degree_list(source))


def _edge_columns(graphs: list[Graph], degrees: list[tuple[int, ...]]) -> dict[str, list]:
    """albertson, sigma and the Randic index of a batch's graphs, from their
    degree rows and one walk per graph over its lower neighbour masks:
    the edges (i, j), i < j, come in pair order, and each Randic index is
    added left to right over them, as the single-graph walk does."""
    # 1/sqrt(a * b) for any two of the batch's nonzero degree values: k distinct
    # positive degrees need a degree sum of at least k(k+1)/2 <= 2M, so this
    # holds fewer than 4M entries for the batch's M edges (three on a path)
    values = {d for row in degrees for d in row if d}
    roots = {a * b: 1.0 / math.sqrt(a * b) for a in values for b in values}
    rows = []
    for g, row in zip(graphs, degrees):
        absolute = squares = 0
        total = 0.0
        for j, lower in enumerate(g._lower()):
            high = row[j]
            while lower:
                low = row[(lower & -lower).bit_length() - 1]
                lower &= lower - 1
                difference = high - low
                absolute += abs(difference)
                squares += difference * difference
                total += roots[low * high]
        rows.append((absolute, squares, total))
    return dict(zip(("albertson", "sigma", "randic"), map(list, zip(*rows))))


def _column(column_pass, name: str) -> property:
    """A report field read at the report's position in a column of its batch."""
    return property(lambda report: report._batch.columns(column_pass)[name][report._position])


# The columns compute prints by default, in order.
CSV_COLUMNS = (
    "n", "m", "irr_t", "degset_minus_1", "cs", "albertson", "sigma",
    "var", "s", "gini", "rho", "n0", "ira", "irb",
)


class MeasureReport(_DegreeMeasures):
    """Every measure of one graph: a view of its position in its batch's columns.

    The first read of an integer degree measure of any report of a
    Lambda1Batch makes the batch run the degree pass over all of its graphs,
    of var or s the deviation pass, of an edge measure the edge pass, and of
    cs power iteration, checking its settings, for all of them; cs is computed even
    for disconnected input, which ``connected`` flags.  Undefined measures
    raise ValueError when read, as a profile's do; rho is None where
    undefined (it needs n >= 3 and no isolated vertex).
    """

    __slots__ = ("graph", "n", "_batch", "_position")

    def __init__(self, g: Graph, batch: Lambda1Batch):
        self.graph, self.n, self._batch = g, g.n, batch
        self._position = batch.position(g)

    total = _column(_degree_columns, "total")
    irr_t = _column(_degree_columns, "irr_t")
    equal_pairs = _column(_degree_columns, "equal_pairs")
    degree_set_size = _column(_degree_columns, "degree_set_size")
    min_degree = _column(_degree_columns, "min_degree")
    max_degree = _column(_degree_columns, "max_degree")
    var = _column(_deviation_columns, "var")
    s = _column(_deviation_columns, "s")
    albertson = _column(_edge_columns, "albertson")
    sigma = _column(_edge_columns, "sigma")
    _randic = _column(_edge_columns, "randic")

    @property
    def cs(self) -> float:
        return self._batch.result(self.graph).lambda1 - 2 * self.m / self.n

    @property
    def rho(self) -> float | None:
        return _rho(self.n, self._randic) if self.n >= 3 and self.min_degree >= 1 else None

    @property
    def connected(self) -> bool:
        return is_connected(self.graph)


def compute_all(g: Graph, *, batch: Lambda1Batch | None = None) -> MeasureReport:
    """The MeasureReport of g: each measure is computed when first read, so
    an undefined one raises only when read and an unread cs costs nothing.
    With a ``batch``, g's degree and edge measures come from the batch's
    passes over all of its graphs and cs from its power iteration, under
    its settings; a batch that holds neither g nor a graph equal to it
    raises ValueError at once.  Without one, all of them come from a batch
    of g alone at the default settings.
    """
    if batch is None:
        batch = Lambda1Batch([g])
    return MeasureReport(g, batch)
