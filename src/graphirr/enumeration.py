"""Exhaustive labeled-graph enumeration and verification of extremal degree claims.

Every labeled n-vertex graph corresponds to one bitmask over pair_order(n),
so the search space of size 2^C(n,2) is walked in ascending bitmask order.
The walk is split into contiguous bitmask ranges; each range is reduced to
per-graph invariant arrays with numpy, and range results are folded in range
order, so single runs are deterministic down to witness order.  One walk per
n feeds every claim.

All claims are isomorphism-invariant, so checking every labeled graph is
sound; isomorphism tests are only used against specific targets (the
antiregular graph) and to deduplicate small witness sets.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .generators import antiregular
from .graphs import Graph, pair_order
from .io import emit_graph6
from .measures import _ira, _irb, compute_all, n0 as _n0

__all__ = [
    "VerificationReport",
    "is_isomorphic_to",
    "verify_claim",
    "CLAIM_IDS",
    "CLAIM_SUMMARIES",
    "DEFAULT_TABLE_ROWS",
]

MIN_N = 3
MAX_N = 8
_CHUNK_BITS = 18
_MAX_WITNESSES = 8  # witnesses format_text lists before "(+k more)"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exhaustive claim check at a fixed n."""

    claim_id: str
    n: int
    graphs_checked: int
    violations: int
    witnesses: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "n": self.n,
            "graphs_checked": self.graphs_checked,
            "violations": self.violations,
            "passed": self.passed,
            "witnesses": list(self.witnesses),
            "details": self.details,
        }

    def format_text(self) -> str:
        status = "passed" if self.passed else "FAILED"
        lines = [
            f"claim {self.claim_id} at n={self.n}: {status} "
            f"({self.graphs_checked} graphs checked, {self.violations} violations)"
        ]
        if self.witnesses:
            shown = ", ".join(self.witnesses[:_MAX_WITNESSES])
            extra = len(self.witnesses) - _MAX_WITNESSES
            suffix = f" (+{extra} more)" if extra > 0 else ""
            lines.append(f"  witnesses: {shown}{suffix}")
        for key, value in self.details.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


@dataclass
class _Chunk:
    """Per-graph invariants for one contiguous bitmask range."""

    start: int
    size: int
    connected: np.ndarray   # bool
    m: np.ndarray           # int32
    deg: np.ndarray         # (size, n) uint8, per-vertex degrees
    dmax: np.ndarray        # uint8
    dmin: np.ndarray        # uint8
    degset: np.ndarray      # int16, number of distinct degree values
    n0: np.ndarray          # int32, equal-degree pairs
    irrt: np.ndarray        # int32, total irregularity as sum of k * nk[k]
    nk: np.ndarray          # (size, n) int32, pair counts per degree difference
    nmax_cnt: np.ndarray    # int16, vertices of maximum degree
    universal_cnt: np.ndarray  # int16, vertices of degree n-1

    @functools.cached_property
    def pairwise_irrt(self) -> np.ndarray:
        """int16, sum of |d_i - d_j| over all vertex pairs, from deg alone (not from nk)."""
        deg = self.deg.view(np.int8)
        total = np.zeros(self.size, np.int16)
        for i, j in pair_order(deg.shape[1]):
            total += np.abs(deg[:, i] - deg[:, j])
        return total


@functools.cache
def _pair_tables(n: int, high: bool) -> tuple[np.ndarray, np.ndarray]:
    """Degree and neighbour-mask tables, shape (n, 2^k), indexed by a bitmask over
    k pairs: the first min(C(n,2), _CHUNK_BITS) pairs of pair_order(n), or the
    pairs after them when high is set."""
    pairs = pair_order(n)
    low = min(len(pairs), _CHUNK_BITS)
    pairs = pairs[low:] if high else pairs[:low]
    deg = np.zeros((n, 1 << len(pairs)), np.uint8)
    nbr = np.zeros_like(deg)
    for k, (i, j) in enumerate(pairs):
        # masks with bit k set are the masks below 2^k plus edge (i, j)
        lo, hi = 1 << k, 2 << k
        deg[:, lo:hi] = deg[:, :lo]
        nbr[:, lo:hi] = nbr[:, :lo]
        deg[[i, j], lo:hi] += 1
        nbr[i, lo:hi] |= 1 << j
        nbr[j, lo:hi] |= 1 << i
    deg.flags.writeable = nbr.flags.writeable = False
    return deg, nbr


def _scan_chunks(n: int) -> Iterator[_Chunk]:
    """Reduce every adjacency bitmask to invariant arrays, one contiguous range at a time.

    Within a range only the low pair bits vary, so its degrees and neighbour
    masks are the low-pair tables plus the range's column of the high-pair
    tables.  Every degree field comes from the per-graph degree histogram c:
    n0 = sum C(c_d, 2) and nk[k] = sum c_d * c_{d+k}.
    """
    deg_lo, nbr_lo = _pair_tables(n, high=False)
    deg_hi, nbr_hi = _pair_tables(n, high=True)
    size = deg_lo.shape[1]
    full_reach = np.uint8((1 << n) - 1)
    diff_weights = np.arange(n, dtype=np.int32)

    for high in range(deg_hi.shape[1]):
        deg = deg_lo + deg_hi[:, high:high + 1]
        nbr = nbr_lo | nbr_hi[:, high:high + 1]

        # reach from vertex 0 in a fixed n-1 rounds of frontier growth
        reach = np.ones(size, np.uint8)
        for _ in range(n - 1):
            for v in range(n):
                reach |= nbr[v] * ((reach >> v) & 1)

        # c[d] = number of vertices of degree d
        c = np.stack([(deg == d).sum(axis=0, dtype=np.int8) for d in range(n)])
        dmax = deg.max(axis=0)
        # every sum fits in int8: at most C(8, 2) = 28 pairs
        nk = np.empty((n, size), np.int32)
        nk[0] = (c * (c - 1)).sum(axis=0, dtype=np.int8) // 2
        for k in range(1, n):
            nk[k] = (c[:-k] * c[k:]).sum(axis=0, dtype=np.int8)

        yield _Chunk(
            start=high * size,
            size=size,
            connected=reach == full_reach,
            m=deg.sum(axis=0, dtype=np.int32) // 2,
            deg=deg.T,
            dmax=dmax,
            dmin=deg.min(axis=0),
            degset=(c > 0).sum(axis=0, dtype=np.int16),
            n0=nk[0],
            irrt=diff_weights @ nk,
            nk=nk.T,
            nmax_cnt=(deg == dmax).sum(axis=0, dtype=np.int16),
            universal_cnt=c[n - 1].astype(np.int16),
        )


def _masks_where(chunk: _Chunk, cond: np.ndarray) -> list[int]:
    return [int(chunk.start + i) for i in np.nonzero(cond)[0]]


def _g6(n: int, masks) -> tuple[str, ...]:
    return tuple(emit_graph6(Graph.from_pair_mask(n, mask)) for mask in masks)


def is_isomorphic_to(g: Graph, h: Graph) -> bool:
    """Degree-partition-restricted search for an edge-preserving vertex bijection."""
    if g.n != h.n:
        raise ValueError(f"vertex counts differ: {g.n} vs {h.n}")
    n = g.n
    if g.m != h.m:
        return False
    dg, dh = g.degrees(), h.degrees()
    if sorted(dg) != sorted(dh):
        return False
    candidates = [[w for w in range(n) if dh[w] == dg[v]] for v in range(n)]
    order = sorted(range(n), key=lambda v: (len(candidates[v]), v))
    mapping = [-1] * n
    used = [False] * n

    def extend(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for w in candidates[v]:
            if used[w]:
                continue
            if any(g.has_edge(u, v) != h.has_edge(mapping[u], w) for u in order[:idx]):
                continue
            mapping[v] = w
            used[w] = True
            if extend(idx + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    return extend(0)


def _iso_classes(n: int, masks: list[int]) -> list[int]:
    """One representative per isomorphism class among the bitmasks: the first
    member seen, so ascending masks give each class's smallest mask."""
    reps: list[tuple[int, Graph, tuple[int, ...]]] = []
    for mask in masks:
        g = Graph.from_pair_mask(n, mask)
        key = tuple(sorted(g.degrees()))
        if not any(rep_key == key and is_isomorphic_to(g, rep_graph)
                   for _, rep_graph, rep_key in reps):
            reps.append((mask, g, key))
    return [mask for mask, _, _ in reps]


# ---------------------------------------------------------------------------
# Claim verifiers.  Each checks one extremal statement exhaustively over all
# connected labeled n-vertex graphs: update() folds in one chunk, in mask
# order, and finish() returns the VerificationReport.
# ---------------------------------------------------------------------------


class _Extremes:
    """The connected graphs at both ends of ira and irb: how many are regular
    (value 0), and which have n0 = 1 (maximal).  The maximizers are checked against
    antiregular(n) once, for every claim that characterizes them."""

    def __init__(self, n: int):
        self.n = n
        self.regular_count = 0
        self.max_masks: list[int] = []

    def update(self, chunk: _Chunk) -> None:
        self.regular_count += int((chunk.connected & (chunk.dmax == chunk.dmin)).sum())
        self.max_masks.extend(_masks_where(chunk, chunk.connected & (chunk.n0 == 1)))

    def check(self) -> None:
        """Also encodes the maximizers once, as the witnesses of every claim that lists them."""
        target = antiregular(self.n)
        self.target_bad = int(_n0(target) != 1)
        graphs = [Graph.from_pair_mask(self.n, mask) for mask in self.max_masks]
        self.not_antiregular = sum(1 for g in graphs if not is_isomorphic_to(g, target))
        self.max_g6 = tuple(emit_graph6(g) for g in graphs)


class _Claim:
    claim_id = ""
    orders = range(MIN_N, MAX_N + 1)

    def __init__(self, n: int):
        self.n = n
        self.checked = 0
        self.violations = 0

    def tally(self, population: np.ndarray, *bad: np.ndarray) -> None:
        """Count the population as checked, and each bad condition inside it as violations."""
        self.checked += int(population.sum())
        for cond in bad:
            self.violations += int((population & cond).sum())

    def finish(self, extremes: _Extremes) -> VerificationReport:
        return self._report()

    def _report(self, witnesses=(), details=None) -> VerificationReport:
        return VerificationReport(
            claim_id=self.claim_id,
            n=self.n,
            graphs_checked=self.checked,
            violations=self.violations,
            witnesses=witnesses,
            details={} if details is None else details,
        )


class _LemmaN0(_Claim):
    """n0 >= 1 always; n0 = 1 exactly on antiregular graphs (= degree set of size n-1)."""

    claim_id = "lemma_n0"
    summary = "n0 >= 1; n0 = 1 exactly on antiregular graphs"

    def update(self, chunk):
        self.tally(chunk.connected, chunk.n0 < 1, (chunk.n0 == 1) != (chunk.degset == self.n - 1))

    def finish(self, extremes):
        self.violations += extremes.target_bad + extremes.not_antiregular
        return self._report(extremes.max_g6, {
            "extremal_labeled_count": len(extremes.max_masks),
            "extremal_not_antiregular": extremes.not_antiregular,
        })


class _PropBounds(_Claim):
    """0 <= ira <= n(n-1)/2 - 1 and 0 <= irb <= 1 - 2/(n(n-1)); left equality iff
    regular, right equality iff antiregular."""

    claim_id = "prop_bounds"
    summary = "ira/irb bounds with regular and antiregular equality cases"

    def update(self, chunk):
        n = self.n
        pairs_total = math.comb(n, 2)
        ira_f = _ira(n, np.maximum(chunk.n0, 1))
        irb_f = _irb(n, chunk.n0)
        self.tally(
            chunk.connected,
            # bound checks in exact integers: 1 <= n0 <= C(n,2)
            (chunk.n0 < 1) | (chunk.n0 > pairs_total),
            # float values must sit inside the stated interval
            (ira_f < 0) | (ira_f > pairs_total - 1) | (irb_f < 0) | (irb_f > 1 - 2 / (n * (n - 1))),
            # lower equality (value 0) exactly on regular graphs
            (chunk.dmax == chunk.dmin) != (chunk.n0 == pairs_total),
        )

    def finish(self, extremes):
        self.violations += extremes.target_bad + extremes.not_antiregular
        return self._report(details={"lower_equality_count": extremes.regular_count,
                                     "upper_equality_count": len(extremes.max_masks)})


def _single_universal_bidegreed(chunk: _Chunk) -> np.ndarray:
    return (chunk.degset == 2) & (chunk.universal_cnt == 1)


class _LemmaDelta(_Claim):
    """For nonregular graphs n0 <= n(n-1)/2 - max_degree, equality exactly on
    bidegreed graphs with a single vertex of degree n-1."""

    claim_id = "lemma_delta"
    summary = "n0 <= n(n-1)/2 - max degree on nonregular graphs, with equality case"

    def __init__(self, n):
        super().__init__(n)
        self.equality_masks: list[int] = []

    def update(self, chunk):
        nonreg = chunk.connected & (chunk.dmax != chunk.dmin)
        bound = math.comb(self.n, 2) - chunk.dmax.astype(np.int32)
        eq = chunk.n0 == bound
        self.tally(nonreg, chunk.n0 > bound, eq != _single_universal_bidegreed(chunk))
        self.equality_masks.extend(_masks_where(chunk, nonreg & eq))

    def finish(self, extremes):
        return self._report(_g6(self.n, self.equality_masks),
                            {"equality_labeled_count": len(self.equality_masks)})


class _PropLower(_Claim):
    """For nonregular graphs ira >= 2*max_degree/(n(n-1) - 2*max_degree) and
    irb >= 2*max_degree/(n(n-1)), equality exactly on bidegreed graphs with a
    single vertex of degree n-1.

    Both inequalities are decided in exact integer arithmetic after clearing
    the (positive) denominators 2*n0 and n(n-1) - 2*max_degree.
    """

    claim_id = "prop_lower"
    summary = "ira/irb lower bounds on nonregular graphs, with equality case"

    def __init__(self, n):
        super().__init__(n)
        self.equality_count = 0

    def update(self, chunk):
        p_total = self.n * (self.n - 1)
        nonreg = chunk.connected & (chunk.dmax != chunk.dmin)
        n0v = chunk.n0.astype(np.int64)
        delta = chunk.dmax.astype(np.int64)
        lhs_ira = (p_total - 2 * n0v) * (p_total - 2 * delta)
        rhs_ira = 4 * delta * n0v
        lhs_irb = p_total - 2 * n0v
        rhs_irb = 2 * delta
        eq = (lhs_ira == rhs_ira) & (lhs_irb == rhs_irb)
        mixed = (lhs_ira == rhs_ira) != (lhs_irb == rhs_irb)
        self.tally(nonreg, (lhs_ira < rhs_ira) | (lhs_irb < rhs_irb),
                   mixed | (eq != _single_universal_bidegreed(chunk)))
        self.equality_count += int((nonreg & eq).sum())

    def finish(self, extremes):
        return self._report(details={"equality_labeled_count": self.equality_count})


class _PropBidegreed(_Claim):
    """Bidegreed graphs that share the count of maximum-degree vertices (or whose
    minimum-degree count equals the other's maximum-degree count) share n0 and
    hence ira and irb."""

    claim_id = "prop_bidegreed"
    summary = "bidegreed graphs with matching degree-class sizes share ira/irb"

    def __init__(self, n):
        super().__init__(n)
        self.first_n0: dict[int, int] = {}

    def update(self, chunk):
        idx = np.nonzero(chunk.connected & (chunk.degset == 2))[0]
        self.checked += len(idx)
        group = chunk.nmax_cnt[idx]
        n0v = chunk.n0[idx]
        for a in np.unique(group):
            vals = n0v[group == a]
            first = self.first_n0.setdefault(int(a), int(vals[0]))
            self.violations += int((vals != first).sum())

    def finish(self, extremes):
        first_n0 = self.first_n0
        # cross condition: a maximum-degree count of a matches a minimum-degree
        # count of a, i.e. the group with maximum-degree count n - a
        for a in sorted(first_n0):
            b = self.n - a
            if b in first_n0 and first_n0[a] != first_n0[b]:
                self.violations += 1
        return self._report(details={
            "n0_by_max_degree_count": {str(a): first_n0[a] for a in sorted(first_n0)},
        })


class _CorEdgeDeleted(_Claim):
    """Deleting any edge from any connected regular graph (keeping the result
    connected) always lands on the same n0, hence the same ira and irb.  Each
    such g - uv is exactly a connected graph with degrees k^(n-2) (k-1)^2 whose
    two degree-(k-1) vertices u, v are not adjacent: adding uv back gives g."""

    claim_id = "cor_edge_deleted"
    summary = "edge-deleted regular graphs all share ira/irb at fixed n"

    def __init__(self, n):
        super().__init__(n)
        self.expected: int | None = None
        self.witness_masks: list[int] = []

    def update(self, chunk):
        idx = np.nonzero(chunk.connected & (chunk.degset == 2) & (chunk.nmax_cnt == self.n - 2)
                         & (chunk.dmin + 1 == chunk.dmax))[0]
        # pair bit of the two degree-(k-1) vertices i < j: they must not be adjacent
        i, j = np.nonzero(chunk.deg[idx] == chunk.dmin[idx, None])[1].reshape(-1, 2).T
        idx = idx[(((chunk.start + idx) >> (j * (j - 1) // 2 + i)) & 1) == 0]
        n0v = chunk.n0[idx]
        if self.expected is None and len(n0v):
            self.expected = int(n0v[0])
        bad = idx[n0v != self.expected]
        self.checked += len(idx)
        self.violations += len(bad)
        self.witness_masks.extend((chunk.start + bad).tolist())

    def finish(self, extremes):
        details = {"regular_graphs": extremes.regular_count, "deletions_checked": self.checked}
        if self.expected is not None:
            details.update(n0_after_deletion=self.expected,
                           ira_after_deletion=_ira(self.n, self.expected),
                           irb_after_deletion=_irb(self.n, self.expected))
        return self._report(_g6(self.n, self.witness_masks), details)


class _Problem1(_Claim):
    """ira and irb attain minimum 0 exactly on regular graphs and their maxima
    exactly on graphs isomorphic to the antiregular graph."""

    claim_id = "problem1_ira_irb"
    summary = "ira/irb minimal exactly on regular, maximal exactly on antiregular"

    def update(self, chunk):
        # minimum (ira = irb = 0) is equivalent to n0 = C(n,2)
        regular = chunk.dmax == chunk.dmin
        self.tally(chunk.connected, regular != (chunk.n0 == math.comb(self.n, 2)))

    def finish(self, extremes):
        # the minimum and the maximum must actually be attained
        self.violations += int(not extremes.regular_count) + int(not extremes.max_masks)
        self.violations += extremes.target_bad + extremes.not_antiregular
        return self._report(extremes.max_g6, {
            "minimizer_labeled_count": extremes.regular_count,
            "maximizer_labeled_count": len(extremes.max_masks),
        })


class _IrrtNotUnique(_Claim):
    """Probe, not an assertion: compute all connected graphs attaining the maximum
    total irregularity and report the maximizers that are not antiregular."""

    claim_id = "irrt_not_unique"
    summary = "probe: maximizers of total irregularity beyond the antiregular graph"

    def __init__(self, n):
        super().__init__(n)
        self.best = -1
        self.max_masks: list[int] = []

    def update(self, chunk):
        conn = chunk.connected
        self.tally(conn)
        chunk_best = int(np.where(conn, chunk.irrt, -1).max())
        if chunk_best > self.best:
            self.best = chunk_best
            self.max_masks = []
        if chunk_best == self.best:
            self.max_masks.extend(_masks_where(chunk, conn & (chunk.irrt == self.best)))

    def finish(self, extremes):
        n = self.n
        classes = _iso_classes(n, self.max_masks)
        target = antiregular(n)
        non_anti_reps = [
            mask for mask in classes
            if not is_isomorphic_to(Graph.from_pair_mask(n, mask), target)
        ]
        return self._report(_g6(n, non_anti_reps), {
            "max_irr_t": self.best,
            "maximizer_labeled_count": len(self.max_masks),
            "maximizer_class_count": len(classes),
            "includes_antiregular": len(non_anti_reps) < len(classes),
            "non_antiregular_class_count": len(non_anti_reps),
        })


class _Eq2Identity(_Claim):
    """The degree-difference pair counts sum to C(n,2) and weight-sum to the
    pairwise irr_t."""

    claim_id = "eq2_identity"
    summary = "pair counts sum to C(n,2) and weight-sum to irr_t"

    def update(self, chunk):
        totals = chunk.nk.sum(axis=1)
        weighted = chunk.nk @ np.arange(self.n, dtype=np.int32)
        self.tally(chunk.connected,
                   (totals != math.comb(self.n, 2)) | (weighted != chunk.pairwise_irrt))


class _Sec3Identities(_Claim):
    """The three total-irregularity forms (pairwise, weighted by the pair counts
    nk, ranked) agree exactly and the two Gini forms agree to 1e-12 relative."""

    claim_id = "sec3_identities"
    summary = "total-irregularity and Gini rewrite identities"

    def update(self, chunk):
        n = self.n
        # coefficient (n + 1 - 2i) for 1-based rank i on degrees sorted non-increasing
        rank_coef = (n + 1 - 2 * np.arange(1, n + 1)).astype(np.int64)
        gini_coef = (2 * np.arange(1, n + 1) - 1).astype(np.int64)
        sorted_desc = -np.sort(-chunk.deg.astype(np.int64), axis=1)
        form_pairwise = chunk.pairwise_irrt.astype(np.int64)
        form_weighted = chunk.irrt  # nk weighted by the degree difference
        form_ranked = sorted_desc @ rank_coef
        int_bad = (form_pairwise != form_weighted) | (form_pairwise != form_ranked)
        two_mn = (2 * chunk.m.astype(np.float64) * n)
        denom = np.where(two_mn > 0, two_mn, 1.0)
        z_ratio = form_pairwise / denom
        z_ranked = 1.0 - (sorted_desc @ gini_coef) / denom
        scale = np.maximum(1.0, np.maximum(np.abs(z_ratio), np.abs(z_ranked)))
        float_bad = np.abs(z_ratio - z_ranked) > 1e-12 * scale
        self.tally(chunk.connected, int_bad | float_bad)


# Measure profiles of four pairwise non-isomorphic connected 6-vertex graphs
# that share total irregularity 26 but differ in their equal-degree pair
# counts (n0 = 1..4), hence in ira/irb.
DEFAULT_TABLE_ROWS = (
    {"label": "n0=1", "m": 9, "irr_t": 26, "degset_minus_1": 4, "albertson": 16,
     "sigma": 40, "n0": 1, "var": 1.667, "s": 6.000, "gini": 0.241, "cs": 0.404, "rho": 0.304},
    {"label": "n0=2", "m": 7, "irr_t": 26, "degset_minus_1": 3, "albertson": 18,
     "sigma": 56, "n0": 2, "var": 1.889, "s": 6.667, "gini": 0.310, "cs": 0.481, "rho": 0.522},
    {"label": "n0=3", "m": 8, "irr_t": 26, "degset_minus_1": 3, "albertson": 20,
     "sigma": 56, "n0": 3, "var": 1.889, "s": 7.333, "gini": 0.271, "cs": 0.435, "rho": 0.419},
    {"label": "n0=4", "m": 8, "irr_t": 26, "degset_minus_1": 2, "albertson": 14,
     "sigma": 44, "n0": 4, "var": 1.889, "s": 6.667, "gini": 0.271, "cs": 0.510, "rho": 0.433},
)

_ROW_TOL = {"albertson": 0, "sigma": 0, "var": 5e-4, "s": 5e-4, "gini": 5e-4, "cs": 1e-3, "rho": 1e-3}


class _TableRows(_Claim):
    """Every reference row is realized by a connected 6-vertex graph.

    The scan keeps the masks that match a row's degree columns (m, irr_t,
    degset_minus_1, n0) exactly; the edge sums (exactly) and the float
    columns (within _ROW_TOL) are isomorphism invariants, so they are checked
    once per isomorphism class, on its compute_all report.  A row's witness
    is the first mask of its first matching class.
    """

    claim_id = "table_rows"
    orders = range(6, 7)  # the rows describe 6-vertex graphs

    def __init__(self, n):
        super().__init__(n)
        self.rows = DEFAULT_TABLE_ROWS
        self.row_masks: list[list[int]] = [[] for _ in self.rows]

    def update(self, chunk):
        self.tally(chunk.connected)
        columns = {"m": chunk.m, "irr_t": chunk.irrt, "degset_minus_1": chunk.degset - 1,
                   "n0": chunk.n0}
        for row, masks in zip(self.rows, self.row_masks):
            sel = chunk.connected.copy()
            for key, values in columns.items():
                sel &= values == row[key]
            masks.extend(_masks_where(chunk, sel))

    def finish(self, extremes):
        witnesses: list[str] = []
        row_details = []
        for row, masks in zip(self.rows, self.row_masks):
            classes = _iso_classes(self.n, masks)
            matching = [mask for mask in classes
                        if _report_matches(row, compute_all(Graph.from_pair_mask(self.n, mask)))]
            self.violations += int(not matching)
            witnesses.extend(_g6(self.n, matching[:1]))
            row_details.append({
                "label": row["label"],
                "matched": bool(matching),
                "candidate_classes": len(classes),
                "matching_classes": len(matching),
                "witness": witnesses[-1] if matching else None,
            })
        return self._report(tuple(witnesses), {"rows": row_details})


def _report_matches(row: dict, report) -> bool:
    return all(abs(report.value(key) - row[key]) <= tol for key, tol in _ROW_TOL.items())


_CLAIMS: dict[str, type[_Claim]] = {claim_type.claim_id: claim_type for claim_type in (
    _LemmaN0, _PropBounds, _LemmaDelta, _PropLower, _PropBidegreed,
    _CorEdgeDeleted, _Problem1, _IrrtNotUnique, _Eq2Identity, _Sec3Identities, _TableRows,
)}

# what --claims all runs: every claim but the table search
CLAIM_IDS = tuple(claim_id for claim_id in _CLAIMS if claim_id != _TableRows.claim_id)

CLAIM_SUMMARIES = {claim_id: _CLAIMS[claim_id].summary for claim_id in CLAIM_IDS}

# the largest n any claim supports
_MAX_ORDER = max(claim_type.orders[-1] for claim_type in _CLAIMS.values())


def _fold(n: int, reducers) -> None:
    """Feed every chunk of the n-vertex scan, in mask order, to each reducer."""
    for chunk in _scan_chunks(n):
        for reducer in reducers:
            reducer.update(chunk)


@functools.cache
def _verify_all(n: int) -> dict[str, VerificationReport]:
    """Every claim of CLAIM_IDS at n from one scan; memoised, so callers get copies."""
    extremes = _Extremes(n)
    claims = [_CLAIMS[claim_id](n) for claim_id in CLAIM_IDS]
    _fold(n, (extremes, *claims))
    extremes.check()
    return {claim.claim_id: claim.finish(extremes) for claim in claims}


def _check_request(claim_id: str, n: int) -> None:
    """Reject an unknown claim, or an n the claim does not support, before any scan."""
    if claim_id not in _CLAIMS:
        raise ValueError(f"unknown claim {claim_id!r}; expected one of {sorted(_CLAIMS)}")
    orders = _CLAIMS[claim_id].orders
    if n not in orders:
        raise ValueError(f"claim {claim_id} supports {orders[0]} <= n <= {orders[-1]}, got n={n}")


def verify_claim(claim_id: str, n: int) -> VerificationReport:
    """Exhaustively check one claim over all connected labeled n-vertex graphs.

    claim_id is one of CLAIM_IDS, for 3 <= n <= 8, or "table_rows", for
    n = 6: the search for graphs realizing DEFAULT_TABLE_ROWS.  The first
    call at a given n scans once for all of CLAIM_IDS and keeps the reports;
    each call returns its own copy.  table_rows runs its own scan, never
    part of _verify_all: the isomorphism grouping of its candidates costs
    more than the scan, and --claims all does not ask for it.
    """
    _check_request(claim_id, n)
    if claim_id in CLAIM_IDS:
        return copy.deepcopy(_verify_all(n)[claim_id])
    reducer = _CLAIMS[claim_id](n)
    _fold(n, (reducer,))
    return reducer.finish(None)
