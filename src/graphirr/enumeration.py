"""Exhaustive verification of extremal degree claims over connected labeled graphs.

Every claim speaks about the degree multiset of a connected graph, so the
connected labeled n-vertex graphs reduce to a class table: how many lie in
each degree class (863 classes at n = 8).  The table is counted, not walked,
by an exact recursion over degree vectors, so each connected labeled graph
is counted in exactly one class.  Every claim reads only its own classes,
each once, weighted by its labeled count, so a claim decided on the table is
decided on every connected labeled graph.  One table per n feeds every claim.

Where a claim names graphs or isomorphism classes, the table builds the
classes it reads, on first read, as permutation orbits of their
realizations.  An orbit is one isomorphism class of n!/|Aut| labelings, so
a class's orbits must add up to its count.  A graph is its bitmask over
pair_order(n), kept in ascending order, so runs are deterministic down to
witness order.  An orbit is the closure of one mask under two generators of
S_n, and a witness is encoded from its mask, whose bits are the graph6
payload, so verification runs in plain Python and never imports numpy.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator

from .generators import antiregular
from .graphs import Graph, is_connected, pair_order
from .io import _emit_graph6_mask, emit_graph6
from .measures import (NkSpectrum, _DegreeProfile, _ira, _irb, compute_all, gini_sequence, n0 as _n0,
                       nk_spectrum)

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


def _runs(degrees: tuple[int, ...]) -> list[tuple[int, int]]:
    """The runs of equal degree in a non-increasing tuple, as (degree, multiplicity)."""
    return [(value, len(list(run))) for value, run in itertools.groupby(degrees)]


@functools.cache
def _labeled(degrees: tuple[int, ...]) -> int:
    """The number of labeled graphs whose vertex i has degree degrees[i], for a
    non-increasing tuple of positive degrees: vertex 0 takes k_r neighbours
    from each run r of equal degree, in C(m_r, k_r) ways, which are left one
    degree short, and the rest is counted the same way."""
    if not degrees:
        return 1
    head, runs = degrees[0], _runs(degrees[1:])
    total = 0
    for take in itertools.product(*(range(min(m, head) + 1) for _, m in runs)):
        if sum(take) != head:
            continue
        weight, residual = 1, []
        for (value, m), k in zip(runs, take):
            weight *= math.comb(m, k)
            residual += [value] * (m - k) + [value - 1] * k
        while residual and not residual[-1]:  # vertices with no degree left
            residual.pop()
        total += weight * _labeled(tuple(residual))
    return total


@functools.cache
def _connected(degrees: tuple[int, ...]) -> int:
    """The number of connected labeled graphs whose vertex i has degree
    degrees[i], for a non-increasing tuple of positive degrees.

    Otherwise the component S of vertex 0 misses a vertex, and the graph is a
    connected one on S beside any on the rest: conn(D) = all(D) - the sum
    over proper S holding vertex 0 of conn(D|S) all(D|V-S) (Harary & Palmer,
    Graphical Enumeration, 1973, ch. 1), with C(m_r, k_r) sets S for each
    choice of k_r vertices from each run r.
    """
    total = _labeled(degrees)
    if not total:
        return 0
    head, runs = degrees[0], _runs(degrees[1:])
    # S holds vertex 0 and its neighbours, so at most n - 1 - head vertices, all
    # of degree below that, lie outside S; runs of higher degree lie inside
    limit = len(degrees) - 1 - head
    for take in itertools.product(*(range(m + 1) if value < limit else (m,) for value, m in runs)):
        weight, inside, outside = 1, [head], []
        for (value, m), k in zip(runs, take):
            weight *= math.comb(m, k)
            inside += [value] * k
            outside += [value] * (m - k)
        # a graph on S has an even degree sum and room for vertex 0's neighbours
        if outside and sum(inside) % 2 == 0 and head < len(inside):
            total -= weight * _connected(tuple(inside)) * _labeled(tuple(outside))
    return total


@functools.cache
def _generators(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The transposition (0 1) and the cycle (0 1 ... n-1), which generate
    S_n, each as one 256-entry table per byte of a mask over pair_order(n):
    entry v of table b holds the image bits of the pairs that v sets in byte
    b, so a mask's image is the OR of its bytes' entries."""
    pairs = pair_order(n)
    index = {pair: k for k, pair in enumerate(pairs)}
    generators = []
    for perm in ((1, 0, *range(2, n)), (*range(1, n), 0)):
        images = [1 << index[min(perm[i], perm[j]), max(perm[i], perm[j])] for i, j in pairs]
        generators.append(tuple(
            tuple(sum(image for bit, image in enumerate(images[start:start + 8]) if value >> bit & 1)
                  for value in range(256))
            for start in range(0, len(pairs), 8)))
    return tuple(generators)


def _orbit(mask: int, generators: tuple[tuple[tuple[int, ...], ...], ...]) -> list[int]:
    """The images of a mask under every permutation, ascending: the closure of
    the mask under the generators of S_n."""
    orbit, queue = {mask}, [mask]
    for member in queue:  # the queue grows while it is read, until no image is new
        for tables in generators:
            image, rest = 0, member
            for table in tables:
                image |= table[rest & 255]
                rest >>= 8
            if image not in orbit:
                orbit.add(image)
                queue.append(image)
    return sorted(orbit)


def _orbits(degrees: tuple[int, ...]) -> list[list[int]]:
    """The connected labeled graphs of one degree class, one ascending list of
    masks per isomorphism class, in order of their smallest masks.

    Each relabels a realization of the vector, a graph whose vertex i has
    degree degrees[i].  Deciding the pairs of pair_order(n) in turn, a pair is
    taken while both ends lack degree and left out while each end can still
    reach its degree later.  Each connected realization in no orbit yet adds
    its orbit under all n! permutations.
    """
    n = len(degrees)
    pairs, generators = pair_order(n), _generators(n)
    residual, seen, orbits = list(degrees), set(), []

    def extend(k: int, mask: int) -> None:
        if k == len(pairs):
            if mask not in seen and is_connected(Graph.from_pair_mask(n, mask)):
                orbits.append(_orbit(mask, generators))
                seen.update(orbits[-1])
            return
        i, j = pairs[k]
        if residual[i] and residual[j]:
            residual[i] -= 1
            residual[j] -= 1
            extend(k + 1, mask | 1 << k)
            residual[i] += 1
            residual[j] += 1
        # after pair (i, j) come n - 1 - j pairs that hold i, and n - 2 - i that hold j
        if residual[i] <= n - 1 - j and residual[j] <= n - 2 - i:
            extend(k + 1, mask)

    extend(0, 0)
    # extend reaches itself through its closure, a cycle that would keep seen,
    # orbits and residual alive until a GC pass
    del extend
    return sorted(orbits)


class _ClassProfile(_DegreeProfile):
    """The measures of one degree class of a class table, with the two pair
    forms of its irr_t that eq2_identity and sec3_identities both compare,
    each computed at its first read."""

    @cached_property
    def spectrum(self) -> NkSpectrum:
        return nk_spectrum(self)

    @cached_property
    def pairwise_irr_t(self) -> int:
        """Sum of |d_i - d_j| over all pairs of the degree list, apart from
        nk_spectrum and the rank form."""
        return sum(abs(a - b) for a, b in itertools.combinations(self.degrees, 2))


class _ClassTable:
    """The connected n-vertex graphs, reduced to what the claims read.

    A degree class is its non-increasing degree tuple.  counts holds the
    labeled count of every connected class, in descending order of degree
    tuples; orbits, the isomorphism classes of each class a claim has read
    through orbits_of(), as _orbits lists them; deletions, per edge-deleted
    class k^(n-2) (k-1)^2, the number of (g, e) pairs of a connected k-regular
    graph g and an edge e of g.  Each class's profile and its orbits are
    built once per table, on first read.
    """

    def __init__(self, n: int):
        self.n = n
        self.orbits: dict[tuple[int, ...], list[list[int]]] = {}
        # every non-increasing list of n degrees in 1..n-1 with an even sum; its
        # class holds the graphs of that vector times n!/prod m_d! vectors
        candidates = [degrees for degrees in itertools.combinations_with_replacement(range(n - 1, 0, -1), n)
                      if sum(degrees) % 2 == 0]
        self.counts = {degrees: count for degrees in candidates
                       if (count := _connected(degrees) * math.factorial(n) // math.prod(
                           math.factorial(m) for _, m in _runs(degrees)))}
        # A connected k-regular graph on n <= 9 vertices has no bridge: for
        # even k every degree is even, and for odd k each side of a bridge
        # holds an odd number of vertices, at least k + 2 of them, so
        # n >= 2k + 4 >= 10.  So each of its nk/2 edges is one connected
        # deletion.  In descending k, so in table order.
        self.deletions = {(k,) * (n - 2) + (k - 1,) * 2: n * k // 2 * self.counts[(k,) * n]
                          for k in range(n - 1, 1, -1) if (k,) * n in self.counts}
        self._profiles: dict[tuple[int, ...], _ClassProfile] = {}

    def profile(self, degrees: tuple[int, ...]) -> _ClassProfile:
        """The measures of one degree class, the same object on every read."""
        if degrees not in self._profiles:
            self._profiles[degrees] = _ClassProfile(degrees)
        return self._profiles[degrees]

    def orbits_of(self, degrees: tuple[int, ...]) -> list[list[int]]:
        """The orbits of one degree class, the same list on every read."""
        if degrees not in self.orbits:
            self.orbits[degrees] = _orbits(degrees)
        return self.orbits[degrees]


def _witnesses(table: _ClassTable, accepts: Callable[[_ClassProfile], bool]) -> tuple[str, ...]:
    """The graph6 strings of the orbits of the table's classes that ``accepts``
    takes, merged into ascending mask order."""
    masks = sorted(mask for degrees in table.counts if accepts(table.profile(degrees))
                   for orbit in table.orbits_of(degrees) for mask in orbit)
    return tuple(_emit_graph6_mask(table.n, mask) for mask in masks)


def is_isomorphic_to(g: Graph, h: Graph) -> bool:
    """Whether some edge-preserving vertex bijection maps g onto h, by a search
    that maps each vertex only to vertices of its degree."""
    if g.n != h.n:
        raise ValueError(f"vertex counts differ: {g.n} vs {h.n}")
    n = g.n
    dg, dh = g.degrees(), h.degrees()
    if g.m != h.m or sorted(dg) != sorted(dh):
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
            used[w] = False
        return False

    found = extend(0)
    del extend  # as in _orbits, so the closure's cycle does not keep g and h alive until a GC pass
    return found


def _iso_classes(table: _ClassTable, accepts: Callable[[_ClassProfile], bool]
                 ) -> tuple[list[tuple[int, Graph, int]], int]:
    """The isomorphism classes in the table's classes that ``accepts`` takes, as
    (smallest mask, graph, labeled count) in mask order, and the number of their
    graphs that the orbits leave unaccounted for.

    An orbit is one isomorphism class, and it holds the class's n!/|Aut|
    labelings (orbit-stabilizer), so the orbits of a degree class add up to
    the count the table gives it: a cross-check of the count and the orbits.
    """
    found: list[tuple[int, Graph, int]] = []
    unaccounted = 0
    for degrees, count in table.counts.items():
        if accepts(table.profile(degrees)):
            orbits = table.orbits_of(degrees)
            found += [(orbit[0], Graph.from_pair_mask(table.n, orbit[0]), len(orbit))
                      for orbit in orbits]
            unaccounted += abs(count - sum(map(len, orbits)))
    return sorted(found, key=lambda rep: rep[0]), unaccounted


# ---------------------------------------------------------------------------
# Claim verifiers.  Each checks one extremal statement exhaustively over all
# connected labeled n-vertex graphs, on their class table:
# decide() reads each class it covers once and weights it by its labeled
# count, and returns the VerificationReport.
# ---------------------------------------------------------------------------


def _maximal(d: _ClassProfile) -> bool:
    """Whether the class maximizes ira and irb: n0 = 1."""
    return d.n0 == 1


class _Extremes:
    """The connected graphs at both ends of ira and irb: how many are regular
    (value 0), and which have n0 = 1 (maximal).  Their isomorphism classes are
    checked against antiregular(n) once, for every claim that characterizes
    them, and they are encoded once, as the witnesses of every claim that lists
    them."""

    def __init__(self, table: _ClassTable):
        n = table.n
        target = antiregular(n)
        self.target_bad = int(_n0(target) != 1)
        classes = [(table.profile(degrees), count) for degrees, count in table.counts.items()]
        self.regular_count = sum(count for d, count in classes if d.max_degree == d.min_degree)
        self.max_count = sum(count for d, count in classes if _maximal(d))
        # the n0 = 1 graphs not shown isomorphic to the target, so also every
        # graph the orbits do not account for
        found, unaccounted = _iso_classes(table, _maximal)
        self.not_antiregular = unaccounted + sum(
            labeled for _, g, labeled in found if not is_isomorphic_to(g, target))
        self.max_g6 = _witnesses(table, _maximal)


class _Claim:
    claim_id = ""
    orders = range(MIN_N, MAX_N + 1)

    def __init__(self, n: int):
        self.n = n
        self.checked = 0
        self.violations = 0

    def covers(self, d: _ClassProfile) -> bool:
        """Whether the claim speaks about the graphs of this degree class."""
        return True

    def bad(self, d: _ClassProfile) -> int:
        """How many of the claim's conditions a covered class breaks."""
        return 0

    def classes(self, table: _ClassTable, counts: dict) -> Iterator[tuple[_ClassProfile, int]]:
        """Each covered class of one of the table's class -> count maps, with its count."""
        for degrees, count in counts.items():
            d = table.profile(degrees)
            if self.covers(d):
                yield d, count

    def decide(self, table: _ClassTable, extremes: _Extremes | None) -> VerificationReport:
        """Count every covered graph as checked, and once per broken condition as a violation."""
        for d, count in self.classes(table, table.counts):
            self.checked += count
            self.violations += count * self.bad(d)
        return self.finish(table, extremes)

    def finish(self, table: _ClassTable, extremes: _Extremes | None) -> VerificationReport:
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


def _nonregular(d: _ClassProfile) -> bool:
    return d.max_degree != d.min_degree


def _single_universal_bidegreed(d: _ClassProfile) -> bool:
    return d.degree_set_size == 2 and d.multiplicities[d.n - 1] == 1


class _LemmaN0(_Claim):
    """n0 >= 1 always; n0 = 1 exactly on antiregular graphs (= degree set of size n-1)."""

    claim_id = "lemma_n0"
    summary = "n0 >= 1; n0 = 1 exactly on antiregular graphs"

    def bad(self, d):
        return (d.n0 < 1) + ((d.n0 == 1) != (d.degree_set_size == self.n - 1))

    def finish(self, table, extremes):
        self.violations += extremes.target_bad + extremes.not_antiregular
        return self._report(extremes.max_g6, {
            "extremal_labeled_count": extremes.max_count,
            "extremal_not_antiregular": extremes.not_antiregular,
        })


class _PropBounds(_Claim):
    """0 <= ira <= n(n-1)/2 - 1 and 0 <= irb <= 1 - 2/(n(n-1)); left equality iff
    regular, right equality iff antiregular.

    ira and irb are the shipped formulas evaluated on n0 as a Fraction, so
    they are exact rationals and sit inside their intervals exactly.
    """

    claim_id = "prop_bounds"
    summary = "ira/irb bounds with regular and antiregular equality cases"

    def __init__(self, n: int):
        super().__init__(n)
        self._outside: dict[int, bool] = {}  # n0 -> whether ira or irb leaves its interval

    def bad(self, d):
        n, pairs_total = self.n, math.comb(self.n, 2)
        if d.n0 not in self._outside:  # many classes share an n0: each is decided once
            ira = _ira(n, Fraction(max(d.n0, 1)))
            irb = _irb(n, Fraction(d.n0))
            self._outside[d.n0] = ira < 0 or ira > pairs_total - 1 or irb < 0 or irb > 1 - Fraction(2, n * (n - 1))
        return (
            # bound checks in exact integers: 1 <= n0 <= C(n,2)
            (d.n0 < 1 or d.n0 > pairs_total)
            # the exact values must sit inside the stated interval
            + self._outside[d.n0]
            # lower equality (value 0) exactly on regular graphs
            + ((d.max_degree == d.min_degree) != (d.n0 == pairs_total))
        )

    def finish(self, table, extremes):
        self.violations += extremes.target_bad + extremes.not_antiregular
        return self._report(details={"lower_equality_count": extremes.regular_count,
                                     "upper_equality_count": extremes.max_count})


class _LemmaDelta(_Claim):
    """For nonregular graphs n0 <= n(n-1)/2 - max_degree, equality exactly on
    bidegreed graphs with a single vertex of degree n-1."""

    claim_id = "lemma_delta"
    summary = "n0 <= n(n-1)/2 - max degree on nonregular graphs, with equality case"

    covers = staticmethod(_nonregular)

    def _bound(self, d):
        return math.comb(self.n, 2) - d.max_degree

    def bad(self, d):
        return (d.n0 > self._bound(d)) + ((d.n0 == self._bound(d)) != _single_universal_bidegreed(d))

    def _equality(self, d):
        return _nonregular(d) and d.n0 == self._bound(d)

    def finish(self, table, extremes):
        return self._report(_witnesses(table, self._equality), {"equality_labeled_count": sum(
            count for d, count in self.classes(table, table.counts) if self._equality(d))})


class _PropLower(_Claim):
    """For nonregular graphs ira >= 2*max_degree/(n(n-1) - 2*max_degree) and
    irb >= 2*max_degree/(n(n-1)), equality exactly on bidegreed graphs with a
    single vertex of degree n-1.

    Both inequalities are decided in exact integer arithmetic after clearing
    the (positive) denominators 2*n0 and n(n-1) - 2*max_degree.
    """

    claim_id = "prop_lower"
    summary = "ira/irb lower bounds on nonregular graphs, with equality case"

    covers = staticmethod(_nonregular)

    def _gaps(self, d):
        """lhs - rhs of the ira inequality and of the irb inequality."""
        p_total = self.n * (self.n - 1)
        delta = d.max_degree
        return ((p_total - 2 * d.n0) * (p_total - 2 * delta) - 4 * delta * d.n0,
                p_total - 2 * d.n0 - 2 * delta)

    def bad(self, d):
        ira_gap, irb_gap = self._gaps(d)
        mixed = (ira_gap == 0) != (irb_gap == 0)
        equality = ira_gap == irb_gap == 0
        return (ira_gap < 0 or irb_gap < 0) + (mixed or equality != _single_universal_bidegreed(d))

    def finish(self, table, extremes):
        return self._report(details={"equality_labeled_count": sum(
            count for d, count in self.classes(table, table.counts) if self._gaps(d) == (0, 0))})


class _PropBidegreed(_Claim):
    """Bidegreed graphs that share the count of maximum-degree vertices (or whose
    minimum-degree count equals the other's maximum-degree count) share n0 and
    hence ira and irb.

    Each group of classes with one maximum-degree count is compared with its
    first class in table order, the one of largest degree tuple.
    """

    claim_id = "prop_bidegreed"
    summary = "bidegreed graphs with matching degree-class sizes share ira/irb"

    def covers(self, d):
        return d.degree_set_size == 2

    def decide(self, table, extremes):
        first_n0: dict[int, int] = {}
        for d, count in self.classes(table, table.counts):
            first = first_n0.setdefault(d.multiplicities[d.max_degree], d.n0)
            self.checked += count
            self.violations += count * (d.n0 != first)
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
    deletion g - uv from a connected k-regular graph g has degrees
    k^(n-2) (k-1)^2.

    A connected k-regular graph on n <= 9 vertices has no bridge: for even k
    every degree is even, and for odd k each side of a bridge holds an odd
    number of vertices, at least k + 2 of them.  So every one of its nk/2
    deletions stays connected, and the table counts them per class from the
    regular classes.  The n0 of the first class in table order, the one of
    largest k, is the reference; a class whose n0 differs counts all its
    deletions as violations.
    """

    claim_id = "cor_edge_deleted"
    summary = "edge-deleted regular graphs all share ira/irb at fixed n"

    def decide(self, table, extremes):
        n = self.n
        expected = None
        for d, count in self.classes(table, table.deletions):
            if expected is None:
                expected = d.n0
            self.checked += count
            self.violations += count * (d.n0 != expected)
        details = {"regular_graphs": extremes.regular_count, "deletions_checked": self.checked}
        if expected is not None:
            details.update(n0_after_deletion=expected,
                           ira_after_deletion=_ira(n, expected),
                           irb_after_deletion=_irb(n, expected))
        return self._report(details=details)


class _Problem1(_Claim):
    """ira and irb attain minimum 0 exactly on regular graphs and their maxima
    exactly on graphs isomorphic to the antiregular graph."""

    claim_id = "problem1_ira_irb"
    summary = "ira/irb minimal exactly on regular, maximal exactly on antiregular"

    def bad(self, d):
        # minimum (ira = irb = 0) is equivalent to n0 = C(n,2)
        return (d.max_degree == d.min_degree) != (d.n0 == math.comb(self.n, 2))

    def finish(self, table, extremes):
        # the minimum and the maximum must actually be attained
        self.violations += int(not extremes.regular_count) + int(not extremes.max_count)
        self.violations += extremes.target_bad + extremes.not_antiregular
        return self._report(extremes.max_g6, {
            "minimizer_labeled_count": extremes.regular_count,
            "maximizer_labeled_count": extremes.max_count,
        })


class _IrrtNotUnique(_Claim):
    """Probe: compute all connected graphs attaining the maximum total
    irregularity and report the maximizers that are not antiregular.  Its one
    check is that the orbits account for every maximizer the table counts."""

    claim_id = "irrt_not_unique"
    summary = "probe: maximizers of total irregularity beyond the antiregular graph"

    def finish(self, table, extremes):
        best = max(d.irr_t for d, _ in self.classes(table, table.counts))
        count = sum(count for d, count in self.classes(table, table.counts) if d.irr_t == best)
        classes, unaccounted = _iso_classes(table, lambda d: d.irr_t == best)
        self.violations += unaccounted
        target = antiregular(self.n)
        non_anti_reps = [g for _, g, _ in classes if not is_isomorphic_to(g, target)]
        return self._report(tuple(emit_graph6(g) for g in non_anti_reps), {
            "max_irr_t": best,
            "maximizer_labeled_count": count,
            "maximizer_class_count": len(classes),
            "includes_antiregular": len(non_anti_reps) < len(classes),
            "non_antiregular_class_count": len(non_anti_reps),
        })


class _Eq2Identity(_Claim):
    """The degree-difference pair counts sum to C(n,2) and weight-sum to the
    pairwise irr_t."""

    claim_id = "eq2_identity"
    summary = "pair counts sum to C(n,2) and weight-sum to irr_t"

    def bad(self, d):
        return (d.spectrum.total_pairs != math.comb(self.n, 2)
                or d.spectrum.weighted_sum != d.pairwise_irr_t)


class _Sec3Identities(_Claim):
    """The three total-irregularity forms (pairwise, weighted by the pair counts
    nk, ranked) agree exactly, and the two Gini forms, irr_t/(2mn) and the
    ranked 1 - sum of (2i-1)*d_i over n * sum of d_i, agree exactly as
    rationals and to 1e-12 relative as gini_sequence computes the ranked one
    in floats."""

    claim_id = "sec3_identities"
    summary = "total-irregularity and Gini rewrite identities"

    def bad(self, d):
        n, form_pairwise = self.n, d.pairwise_irr_t
        int_bad = form_pairwise != d.spectrum.weighted_sum or form_pairwise != d.irr_t
        ranked = sum((2 * i - 1) * value for i, value in enumerate(d.degrees, start=1))
        exact_bad = Fraction(form_pairwise, 2 * d.m * n) != 1 - Fraction(ranked, n * d.total)
        z_ratio = form_pairwise / (2 * d.m * n)
        z_ranked = gini_sequence(d.degrees)
        scale = max(1.0, abs(z_ratio), abs(z_ranked))
        return int_bad + exact_bad + (abs(z_ratio - z_ranked) > 1e-12 * scale)


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

    A row's candidates are the graphs of the degree classes that match its
    degree columns (m, irr_t, degset_minus_1, n0) exactly; the table builds
    their orbits as the row reads them.  The edge sums (exactly) and the
    float columns (within _ROW_TOL) are isomorphism invariants, so they are
    checked once per isomorphism class, on its compute_all report.  A row's
    witness is the smallest mask of its first matching class.  Candidates
    the orbits do not account for count as violations.
    """

    claim_id = "table_rows"
    orders = range(6, 7)  # the rows describe 6-vertex graphs

    def finish(self, table, extremes):
        witnesses: list[str] = []
        row_details = []
        for row in DEFAULT_TABLE_ROWS:
            classes, unaccounted = _iso_classes(table, functools.partial(_row_candidate, row))
            matching = [g for _, g, _ in classes if _report_matches(row, compute_all(g))]
            self.violations += int(not matching) + unaccounted
            witnesses.extend(emit_graph6(g) for g in matching[:1])
            row_details.append({
                "label": row["label"],
                "matched": bool(matching),
                "candidate_classes": len(classes),
                "matching_classes": len(matching),
                "witness": witnesses[-1] if matching else None,
            })
        return self._report(tuple(witnesses), {"rows": row_details})


def _row_candidate(row: dict, d: _ClassProfile) -> bool:
    return all(d.value(key) == row[key] for key in ("m", "irr_t", "degset_minus_1", "n0"))


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


@functools.cache
def _verify_all(n: int) -> dict[str, VerificationReport]:
    """Every claim of CLAIM_IDS at n from one table; memoised, so callers get copies."""
    table = _ClassTable(n)
    extremes = _Extremes(table)
    return {claim_id: _CLAIMS[claim_id](n).decide(table, extremes) for claim_id in CLAIM_IDS}


def _check_request(claim_id: str, n: int) -> None:
    """Reject an unknown claim, or an n the claim does not support, before any table is built."""
    if claim_id not in _CLAIMS:
        raise ValueError(f"unknown claim {claim_id!r}; expected one of {sorted(_CLAIMS)}")
    orders = _CLAIMS[claim_id].orders
    if n not in orders:
        raise ValueError(f"claim {claim_id} supports {orders[0]} <= n <= {orders[-1]}, got n={n}")


def verify_claim(claim_id: str, n: int) -> VerificationReport:
    """Exhaustively check one claim over all connected labeled n-vertex graphs.

    claim_id is one of CLAIM_IDS, for 3 <= n <= 8, or "table_rows", for
    n = 6: the search for graphs realizing DEFAULT_TABLE_ROWS.  The first
    call at a given n builds one table for all of CLAIM_IDS and keeps the
    reports; each call returns its own copy.  table_rows builds its own
    table, never part of _verify_all: --claims all does not ask for it, so
    the orbits of its candidates are built only when it is asked for.
    """
    _check_request(claim_id, n)
    if claim_id in CLAIM_IDS:
        return copy.deepcopy(_verify_all(n)[claim_id])
    return _CLAIMS[claim_id](n).decide(_ClassTable(n), None)
