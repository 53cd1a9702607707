"""Degree-based irregularity measures and the pair degree-difference spectrum.

All of these quantify how far a graph is from regular; each is zero exactly on
regular graphs.  Most depend only on the degree sequence.  The two pair-count
measures ira and irb are built from n0, the number of unordered vertex pairs
with equal degrees: ira is the odds that a random pair has distinct degrees,
irb the probability of the same event.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from itertools import combinations

from .graphs import DegreeSequence, Graph, is_connected
from .spectral import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE, _power_lambda1, rho as _rho

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


def _quantize(x: float, decimals: int) -> Decimal:
    value = Decimal(repr(float(x)))
    # room for every integer digit, the kept places and a carry out of rounding
    digits = max(value.adjusted() + 1, 0) + decimals + 1
    return value.quantize(_quantum(decimals), context=Context(prec=digits, rounding=ROUND_HALF_UP))


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


# One formula per degree quantity, shared by compute_all and the single measures.


def _pair_counts(multiplicities: dict[int, int]) -> tuple[int, int]:
    """n0 and the degree-set size, from the map degree value -> vertex count.

    n0 sums c*(c-1)/2 over every occurring degree value including 0, so that
    it always equals the k=0 entry of nk_spectrum.
    """
    counts = multiplicities.values()
    return sum(c * (c - 1) // 2 for c in counts), len(counts)


def _irr_t(degrees: tuple[int, ...]) -> int:
    """Total irregularity in rank form: sum of (n+1-2i)*d_i, degrees sorted non-increasing."""
    n = len(degrees)
    return sum((n + 1 - 2 * i) * v for i, v in enumerate(degrees, start=1))


def _ira(n: int, n0_value: int) -> float:
    return n * (n - 1) / (2 * n0_value) - 1.0


def _irb(n: int, n0_value: int) -> float:
    return 1.0 - 2 * n0_value / (n * (n - 1))


def _gini(irr_t_value: int, total: int, n: int) -> float:
    if total == 0:
        raise ValueError("gini is undefined for an edgeless graph (mean degree 0)")
    return irr_t_value / (total * n)


def _deviations(degrees: tuple[int, ...], total: int) -> tuple[float, float]:
    """Variance and total absolute deviation of the degrees around their mean."""
    n = len(degrees)
    mean = total / n
    dev = [v - mean for v in degrees]
    return sum(x ** 2 for x in dev) / n, sum(abs(x) for x in dev)


def _edge_sums(g: Graph, deg: tuple[int, ...]) -> tuple[int, int]:
    """Sums of |d_u - d_v| and of (d_u - d_v)^2 over the edges, in one walk."""
    diffs = [abs(deg[u] - deg[v]) for u, v in g.edges()]
    return sum(diffs), sum(x * x for x in diffs)


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
    over the degree values a > b with a - b = k.
    """
    d = DegreeSequence.of(d)
    if d.n < 2:
        raise ValueError(f"nk_spectrum needs n >= 2 (no pairs for n={d.n})")
    hist = d.multiplicities
    counts = Counter({0: _pair_counts(hist)[0]})
    for a, b in combinations(sorted(hist, reverse=True), 2):
        counts[a - b] += hist[a] * hist[b]
    return NkSpectrum(counts={k: c for k, c in sorted(counts.items()) if c}, n=d.n)


def irr_t(d) -> int:
    """Total irregularity: sum of |d_u - d_v| over all unordered vertex pairs."""
    return _irr_t(DegreeSequence.of(d).degrees)


def n0(d) -> int:
    """Number of unordered vertex pairs with equal degrees."""
    d = DegreeSequence.of(d)
    if d.n < 2:
        raise ValueError(f"n0 needs n >= 2, got n={d.n}")
    return _pair_counts(d.multiplicities)[0]


def ira(d) -> float:
    """Odds that a random vertex pair has distinct degrees: n(n-1)/(2*n0) - 1."""
    d = DegreeSequence.of(d)
    return _ira(d.n, n0(d))


def irb(d) -> float:
    """Fraction of vertex pairs with distinct degrees: 1 - 2*n0/(n(n-1))."""
    d = DegreeSequence.of(d)
    return _irb(d.n, n0(d))


def gini(d) -> float:
    """Gini index of the degree sequence: irr_t/(2mn)."""
    d = DegreeSequence.of(d)
    return _gini(_irr_t(d.degrees), d.total, d.n)


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
    d = DegreeSequence.of(d)
    return _deviations(d.degrees, d.total)[0]


def discrepancy(d) -> float:
    """Mean absolute deviation of the degrees from the average degree."""
    d = DegreeSequence.of(d)
    return _deviations(d.degrees, d.total)[1] / d.n


def degree_deviation(d) -> float:
    """Total absolute deviation from the average degree: n times the discrepancy."""
    d = DegreeSequence.of(d)
    return _deviations(d.degrees, d.total)[1]


def albertson(g: Graph) -> int:
    """Sum of |d_u - d_v| over the edges."""
    return _edge_sums(g, g.degrees())[0]


def sigma(g: Graph) -> int:
    """Sum of (d_u - d_v)^2 over the edges."""
    return _edge_sums(g, g.degrees())[1]


def degree_set_size(d) -> int:
    """Number of distinct degree values."""
    return _pair_counts(DegreeSequence.of(d).multiplicities)[1]


# CSV column order for MeasureReport serialization.
CSV_COLUMNS = (
    "n", "m", "irr_t", "degset_minus_1", "cs", "albertson", "sigma",
    "var", "s", "gini", "rho", "n0", "ira", "irb",
)


@dataclass(frozen=True)
class MeasureReport:
    """Every measure for one graph, plus basic degree statistics."""

    n: int
    m: int
    max_degree: int
    min_degree: int
    degree_set_size: int
    irr_t: int
    albertson: int
    sigma: int
    n0: int
    ira: float
    irb: float
    gini: float
    var: float
    disc: float
    s: float
    cs: float | None
    rho: float | None
    connected: bool

    @property
    def degset_minus_1(self) -> int:
        return self.degree_set_size - 1

    def value(self, name: str):
        """Look up a field or derived column by name."""
        return getattr(self, name)

    @staticmethod
    def csv_header(columns=CSV_COLUMNS) -> str:
        return ",".join(columns)

    def csv_row(self, decimals: int = 3, columns=CSV_COLUMNS) -> str:
        return ",".join(format_value(self.value(c), decimals) for c in columns)


def compute_all(
    g: Graph,
    spectral_tolerance: float = DEFAULT_TOLERANCE,
    *,
    spectral: bool = True,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> MeasureReport:
    """Compute every measure for g and return one MeasureReport.

    The degree measures come from one sorted degree sequence, its
    multiplicities, one pass over the deviations from the mean and one walk
    over the edges.  cs and rho are computed even for disconnected input (the
    report's ``connected`` flag records the caveat), skipped entirely when
    spectral=False, and set to None when undefined (rho needs n >= 3 and no
    isolated vertex).  An edgeless graph has no Gini index and raises
    ValueError.
    """
    deg = g.degrees()
    degrees = tuple(sorted(deg, reverse=True))
    n, total = g.n, sum(deg)
    m = total // 2
    irr_t_value = _irr_t(degrees)
    gini_value = _gini(irr_t_value, total, n)
    n0_value, degree_set = _pair_counts(Counter(degrees))
    var, abs_deviation = _deviations(degrees, total)
    albertson_value, sigma_value = _edge_sums(g, deg)

    cs_value = None
    rho_value = None
    if spectral:
        lam = _power_lambda1(g.adjacency_matrix(), spectral_tolerance, max_iterations)
        cs_value = lam.lambda1 - 2 * m / n
        if n >= 3 and degrees[-1] >= 1:
            rho_value = _rho(g)

    return MeasureReport(
        n=n,
        m=m,
        max_degree=degrees[0],
        min_degree=degrees[-1],
        degree_set_size=degree_set,
        irr_t=irr_t_value,
        albertson=albertson_value,
        sigma=sigma_value,
        n0=n0_value,
        ira=_ira(n, n0_value),
        irb=_irb(n, n0_value),
        gini=gini_value,
        var=var,
        disc=abs_deviation / n,
        s=abs_deviation,
        cs=cs_value,
        rho=rho_value,
        connected=is_connected(g),
    )
