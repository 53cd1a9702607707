"""Property-based invariants over random graphs and degree sequences."""

import math

from hypothesis import assume, given, settings, strategies as st

from graphirr import (
    FormatError,
    Graph,
    degree_sequence,
    emit_graph6,
    gini,
    gini_sequence,
    ira,
    irb,
    irr_t,
    n0,
    nk_spectrum,
    parse_edgelist,
    parse_graph6,
)


@st.composite
def graphs(draw, min_n=2, max_n=10):
    n = draw(st.integers(min_n, max_n))
    npairs = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << npairs) - 1))
    return Graph.from_pair_mask(n, mask)


@given(graphs(min_n=1, max_n=12))
@settings(max_examples=200, deadline=None)
def test_graph6_round_trip(g):
    assert parse_graph6(emit_graph6(g)) == g


@given(graphs())
@settings(deadline=None)
def test_pair_counts_partition_all_pairs(g):
    d = degree_sequence(g)
    spec = nk_spectrum(d)
    assert sum(spec.counts.values()) == math.comb(g.n, 2)
    assert sum(k * c for k, c in spec.counts.items()) == irr_t(d)
    assert spec.counts.get(0, 0) == n0(d)


@given(graphs())
@settings(deadline=None)
def test_irr_t_three_forms_agree(g):
    d = degree_sequence(g)
    degrees = list(g.degrees())
    n = g.n
    pairwise = sum(
        abs(degrees[u] - degrees[v]) for u in range(n) for v in range(u + 1, n)
    )
    sorted_desc = sorted(degrees, reverse=True)
    ranked = sum((n + 1 - 2 * i) * di for i, di in enumerate(sorted_desc, start=1))
    assert irr_t(d) == pairwise == ranked


@given(graphs())
@settings(deadline=None)
def test_gini_dual_forms_agree(g):
    if g.m == 0:
        return
    d = degree_sequence(g)
    n, total = g.n, 2 * g.m
    ratio_form = irr_t(d) / (total * n)
    sorted_desc = sorted(g.degrees(), reverse=True)
    rank_form = 1 - sum((2 * i - 1) * di for i, di in enumerate(sorted_desc, 1)) / (n * total)
    scale = max(1.0, abs(ratio_form), abs(rank_form))
    assert abs(gini(d) - ratio_form) <= 1e-12 * scale
    assert abs(gini(d) - rank_form) <= 1e-12 * scale
    assert abs(gini(d) - gini_sequence(g.degrees())) <= 1e-12 * scale


@given(graphs())
@settings(deadline=None)
def test_ira_irb_bounds_and_regularity(g):
    d = degree_sequence(g)
    n = g.n
    pairs = math.comb(n, 2)
    a, b = ira(d), irb(d)
    assert 0.0 <= a <= pairs - 1
    assert 0.0 <= b <= 1 - 2 / (n * (n - 1))
    regular = len(set(g.degrees())) == 1
    assert (a == 0.0) == regular
    assert (b == 0.0) == regular


@given(graphs())
@settings(deadline=None)
def test_n0_matches_pairwise_oracle(g):
    degrees = g.degrees()
    oracle = sum(
        1
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if degrees[u] == degrees[v]
    )
    assert n0(degree_sequence(g)) == oracle


@given(graphs(), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_degree_invariants_are_relabeling_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    dg, dh = degree_sequence(g), degree_sequence(h)
    assert dg.degrees == dh.degrees
    assert irr_t(dg) == irr_t(dh)
    assert n0(dg) == n0(dh)
    assert nk_spectrum(dg).counts == nk_spectrum(dh).counts


@given(st.integers(2, 12), st.integers(0, 2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_gnp_seed_determinism(n, seed):
    from graphirr.generators import gnp

    assert gnp(n, 0.5, seed=seed) == gnp(n, 0.5, seed=seed)


def parses_or_format_error(parse, text):
    try:
        assert isinstance(parse(text), Graph)
    except FormatError:
        pass


@given(st.text(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_graph6_text_parses_or_is_format_error(text, prefixed):
    parses_or_format_error(parse_graph6, ">>graph6<<" + text if prefixed else text)


# Vertex counts a graph is built for.  A count between these two ranges would
# have Graph allocate (or try to allocate) gigabytes, so none is ever drawn.
SAFE_COUNTS = st.one_of(st.integers(-2, 64), st.integers(2**63, 2**200))


def header_count(text):
    """The count the edge-list header line gives, or None when it gives none."""
    for line in text.splitlines():
        tokens = line.split()
        if tokens:
            try:
                return int(tokens[1]) if len(tokens) == 2 and tokens[0] == "n" else None
            except ValueError:
                return None
    return None


edge_lines = st.one_of(
    st.tuples(st.integers(-2, 70), st.integers(-2, 70)).map(lambda e: f"{e[0]} {e[1]}"),
    st.text(max_size=12),
)
edgelist_texts = st.one_of(
    st.text(),
    st.tuples(SAFE_COUNTS, st.lists(edge_lines, max_size=8)).map(
        lambda parts: "\n".join([f"n {parts[0]}", *parts[1]])),
)


@given(edgelist_texts)
@settings(max_examples=300, deadline=None)
def test_edgelist_text_parses_or_is_format_error(text):
    count = header_count(text)
    assume(count is None or count <= 64 or count >= 2**63)
    parses_or_format_error(parse_edgelist, text)
