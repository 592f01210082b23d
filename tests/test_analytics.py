import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mglab import analytics as A
from mglab.hypergraph import Hypergraph, complete_uniform


# -- DiscreteDistribution ----------------------------------------------------


def test_distribution_validation():
    with pytest.raises(ValueError):
        A.DiscreteDistribution([0.5, 0.4])
    with pytest.raises(ValueError):
        A.DiscreteDistribution([1.2, -0.2])
    with pytest.raises(ValueError):
        A.DiscreteDistribution([])
    d = A.DiscreteDistribution([0.25, 0.75])
    assert d[1] == 0.75 and d[5] == 0.0 and len(d) == 2
    assert d.mean() == pytest.approx(0.75)
    assert d.tail_ge(1) == pytest.approx(0.75)


def test_tv_distance_pads_support():
    a = A.DiscreteDistribution([1.0])
    b = A.DiscreteDistribution([0.5, 0.5])
    assert a.tv_distance(b) == pytest.approx(0.5)
    assert a.tv_distance(a) == 0.0


# -- basic laws ---------------------------------------------------------------


def test_poisson_binomial_fair_coins():
    assert np.allclose(A.poisson_binomial([0.5, 0.5]).pmf, [0.25, 0.5, 0.25])


def test_poisson_binomial_empty():
    assert A.poisson_binomial([]).pmf.tolist() == [1.0]


def test_poisson_binomial_against_pattern_enumeration():
    probs = [0.2, 0.3, 0.5]
    # independent oracle: walk all 2^3 success patterns
    want = np.zeros(4)
    for pattern in product([0, 1], repeat=3):
        w = math.prod(p if bit else 1 - p for p, bit in zip(probs, pattern))
        want[sum(pattern)] += w
    assert np.max(np.abs(A.poisson_binomial(probs).pmf - want)) < 1e-12


def test_poisson_binomial_rejects_bad_probability():
    with pytest.raises(ValueError):
        A.poisson_binomial([0.5, 1.01])


@pytest.mark.parametrize("m", [0, 1, 2, 5, 13, 30])
def test_equal_probability_collapses_to_binomial(m):
    for q in [0.0, 0.17, 0.5, 1.0]:
        a = A.poisson_binomial([q] * m).pmf
        b = A.binomial_distribution(m, q).pmf
        assert np.max(np.abs(a - b)) < 1e-12


def test_binomial_tail():
    assert A.binomial_tail_ge1(0, 0.9) == 0.0
    assert A.binomial_tail_ge1(2, 0.5) == pytest.approx(0.75)
    assert A.binomial_tail_ge1(7, 0.0) == 0.0


def test_hypergeometric_small():
    d = A.hypergeometric(4, 2, 2)
    assert d[1] == pytest.approx(2 / 3)
    assert A.hypergeometric(9, 0, 4).pmf.tolist() == [1.0]


def test_hypergeometric_against_sample_enumeration():
    N, M, a = 10, 4, 3
    want = np.zeros(min(M, a) + 1)
    for sample in combinations(range(N), a):
        want[sum(1 for x in sample if x < M)] += 1
    want /= math.comb(N, a)
    assert np.max(np.abs(A.hypergeometric(N, M, a).pmf - want)) < 1e-12


# -- float kernels against exact rationals --------------------------------------
# The references are exact rationals kept as integer numerators over one
# denominator: reducing each to a Fraction would cost a gcd of numbers
# 270,000 bits long per term at Bin(5000, 1/3).


def _exact_float(num: int, den: int) -> float:
    """num / den for huge integers, from 64-bit heads (relative error < 2^-60)."""
    sn, sd = max(num.bit_length() - 64, 0), max(den.bit_length() - 64, 0)
    return math.ldexp((num >> sn) / (den >> sd), sn - sd)


def _exact_binomial(m, q):
    """Bin(m, q) for the rational a/d the float q holds exactly: term j is
    C(m,j) a^j b^(m-j) over d^m, with b = d - a."""
    a, d = q.as_integer_ratio()
    b = d - a
    terms = [b**m]
    for j in range(m):  # exact integer division
        terms.append(terms[-1] * (m - j) * a // ((j + 1) * b))
    mid = m // 2
    assert terms[mid] == math.comb(m, mid) * a**mid * b ** (m - mid)
    return terms, d**m


def _exact_hypergeometric(N, M, a):
    lo, hi = max(0, a - (N - M)), min(M, a)
    terms = [0] * lo + [math.comb(M, lo) * math.comb(N - M, a - lo)]
    for j in range(lo, hi):
        terms.append(terms[-1] * (M - j) * (a - j) // ((j + 1) * (N - M - a + j + 1)))
    assert terms[hi] == math.comb(M, hi) * math.comb(N - M, a - hi)
    return terms, math.comb(N, a)


def _assert_matches_exact(pmf, exact):
    terms, den = exact
    assert sum(terms) == den
    want = np.array([_exact_float(t, den) if t else 0.0 for t in terms])
    assert len(pmf) == len(want)
    keep = want > 1e-290
    assert np.all(np.abs(pmf[keep] - want[keep]) <= 1e-12 * want[keep])
    assert np.all(pmf[~keep] <= 1e-290)


@pytest.mark.parametrize("m, q", [
    (1, 0.5), (7, 0.17), (30, 0.9), (2000, 0.999), (3000, 1e-3), (5000, 1 / 3),
])
def test_binomial_matches_exact_rationals(m, q):
    _assert_matches_exact(A.binomial_distribution(m, q).pmf, _exact_binomial(m, q))


@pytest.mark.parametrize("N, M, a", [
    (10, 4, 3), (20, 15, 12), (4060, 27, 999), (4060, 27, 1000),
    (1_313_400, 19_701, 5000), (2**62, 2**40, 3000),
])
def test_hypergeometric_matches_exact_rationals(N, M, a):
    _assert_matches_exact(A.hypergeometric(N, M, a).pmf, _exact_hypergeometric(N, M, a))


def test_kernels_give_exact_point_masses():
    for m in [0, 1, 9]:
        assert A.binomial_distribution(m, 0.0).pmf.tolist() == [1.0] + [0.0] * m
        assert A.binomial_distribution(m, 1.0).pmf.tolist() == [0.0] * m + [1.0]
    assert A.binomial_distribution(0, 0.4).pmf.tolist() == [1.0]
    assert A.hypergeometric(9, 0, 4).pmf.tolist() == [1.0]
    assert A.hypergeometric(9, 3, 0).pmf.tolist() == [1.0]
    assert A.hypergeometric(9, 3, 9).pmf.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert A.hypergeometric(6, 6, 4).pmf.tolist() == [0.0] * 4 + [1.0]
    assert A.hypergeometric(2**62, 2**62, 5).pmf.tolist() == [0.0] * 5 + [1.0]


def test_kernels_refuse_supports_too_wide_to_hold():
    with pytest.raises(ValueError):
        A.binomial_distribution(A.MAX_SUPPORT, 0.5)
    with pytest.raises(ValueError):
        A.hypergeometric(2**62, 2**40, A.MAX_SUPPORT)


def test_degree_law_binomial_model_at_scan_sizes():
    d = A.degree_law_binomial_model(400, 3, 0.5, 1.0)
    assert len(d) == math.comb(399, 2) + 1
    assert d.mean() == pytest.approx(math.comb(399, 2) / 3, rel=1e-12)


def test_hypergeometric_rejects_bad_bounds():
    with pytest.raises(ValueError):
        A.hypergeometric(4, 5, 2)
    with pytest.raises(ValueError):
        A.hypergeometric(4, 2, 5)


# -- degree and pair laws -----------------------------------------------------


def test_degree_law_isolated_vertex():
    h = Hypergraph(5, [[2, 3, 4]])
    assert A.degree_law(h, 1, 0.8).pmf.tolist() == [1.0]


def test_degree_law_single_triple():
    h = Hypergraph(3, [[1, 2, 3]])
    d = A.degree_law(h, 1, 1.0)
    assert np.allclose(d.pmf, [1 / 3, 2 / 3])


def test_degree_law_complete_collapses_to_binomial():
    d = A.degree_law(complete_uniform(5, 3), 1, 0.5)
    want = A.binomial_distribution(6, 1 / 3)
    assert d.tv_distance(want) < 1e-12


def test_pair_edge_law_cases():
    h = Hypergraph(5, [[3, 4, 5]])
    assert A.pair_edge_law(h, 1, 2, 0.9).pmf.tolist() == [1.0]
    d = A.pair_edge_law(complete_uniform(6, 3), 2, 5, 0.6)
    want = A.binomial_distribution(math.comb(4, 1), 0.6 / 3)
    assert d.tv_distance(want) < 1e-12
    two = A.pair_edge_law(Hypergraph(4, [[1, 2, 3], [1, 2, 4]]), 1, 2, 1.0)
    assert np.allclose(two.pmf, [4 / 9, 4 / 9, 1 / 9])
    with pytest.raises(ValueError):
        A.pair_edge_law(h, 2, 2, 0.5)


def test_pair_law_complete_matches_built_driver():
    for n, k, i, j, p in [(6, 3, 2, 5, 0.6), (7, 4, 1, 7, 0.9), (5, 2, 3, 4, 0.3), (6, 6, 1, 2, 1.0)]:
        built = A.pair_edge_law(complete_uniform(n, k), i, j, p)
        assert A.pair_law_complete(n, k, i, j, p).tv_distance(built) < 1e-12
    with pytest.raises(ValueError):
        A.pair_law_complete(6, 3, 2, 2, 0.5)
    with pytest.raises(ValueError):
        A.pair_law_complete(6, 3, 1, 2, 1.5)


def test_degree_law_binomial_model():
    at_zero = A.degree_law_binomial_model(6, 3, 0.5, 0.0)
    assert at_zero[0] == 1.0 and at_zero.tail_ge(1) == 0.0
    full = A.degree_law_binomial_model(5, 3, 0.5, 1.0)
    assert full.tv_distance(A.degree_law(complete_uniform(5, 3), 1, 0.5)) < 1e-12
    d = A.degree_law_binomial_model(6, 3, 0.5, 0.5)
    assert d.tv_distance(A.binomial_distribution(10, 1 / 6)) < 1e-12


def test_degree_law_uniform_model_extremes():
    assert A.degree_law_uniform_model(6, 3, 0.7, 0).pmf.tolist() == [1.0]
    full = A.degree_law_uniform_model(5, 3, 0.8, 10)
    assert full.tv_distance(A.binomial_distribution(6, 2 * 0.8 / 3)) < 1e-12


def test_degree_law_uniform_model_against_full_enumeration():
    # independent oracle: every hypergraph x every shadow x every coin pattern
    n, k, m, p = 5, 3, 2, 0.7
    triples = list(combinations(range(1, n + 1), 3))
    width = math.comb(n - 1, k - 1)
    want = np.zeros(width + 1)
    hyper_count = 0
    for edges in combinations(triples, m):
        hyper_count += 1
        containing = [e for e in edges if 1 in e]
        doubleton_sets = [list(combinations(e, 2)) for e in containing]
        for selection in product(*doubleton_sets) if doubleton_sets else [()]:
            sel_weight = (1 / 3) ** len(containing)
            for pattern in product([0, 1], repeat=len(containing)):
                w = sel_weight * math.prod(p if b else 1 - p for b in pattern)
                deg = sum(1 in d and b for d, b in zip(selection, pattern))
                want[deg] += w
    want /= hyper_count
    got = A.degree_law_uniform_model(n, k, p, m)
    padded = np.zeros_like(want)
    padded[: len(got.pmf)] = got.pmf
    assert np.max(np.abs(padded - want)) < 1e-12


def test_degree_law_uniform_model_statement_variant_rejected():
    # the published statement's per-trial success p disagrees with
    # enumeration; the proof's 2p/k is the calibrated default
    n, k, m, p = 5, 3, 2, 0.7
    stmt = A.degree_law_uniform_model(n, k, p, m, trial_success=p)
    default = A.degree_law_uniform_model(n, k, p, m)
    assert stmt.tv_distance(default) > 0.1


# -- scalar expectations --------------------------------------------------------


def test_empty_probability():
    assert A.empty_probability(0, 0.3) == 1.0
    assert A.empty_probability(1, 1.0) == 0.0
    assert A.empty_probability(4, 0.5) == pytest.approx(0.0625)


def test_expected_isolated():
    assert A.expected_isolated(7, 3, 0.0) == 7.0
    assert A.expected_isolated(3, 3, 1.0) == pytest.approx(1.0)
    # n=4, k=3: each vertex isolated iff its C(3,2)=3 hyperedges all miss it
    assert A.expected_isolated(4, 3, 1.0) == pytest.approx(4 * (1 / 3) ** 3)


def test_expected_triangles_binomial3_edges():
    assert A.expected_triangles_binomial3(3, 0.5, 0.8) == 0.0
    assert A.expected_triangles_binomial3(8, 0.0, 0.8) == 0.0
    assert A.expected_triangles_binomial3(4, 1.0, 1.0) == pytest.approx(4 / 9, abs=1e-12)


def test_expected_triangles_uniform3_edges():
    assert A.expected_triangles_uniform3(6, 0.7, 0) == 0.0
    assert A.expected_triangles_uniform3(6, 0.0, 7) == 0.0
    # m = C(n,3) is the complete 3-uniform hypergraph = binomial model at q=1
    assert A.expected_triangles_uniform3(5, 1.0, 10) == pytest.approx(
        A.expected_triangles_binomial3(5, 1.0, 1.0), abs=1e-12
    )


def test_expected_triangles_uniform3_default_matches_enumeration():
    # frozen from the arbitration study: full enumeration over all C(10,5)
    # driving hypergraphs, exact shadow/coin enumeration per hypergraph
    assert A.expected_triangles_uniform3(5, 1.0, 5) == pytest.approx(
        0.48353909465020623, abs=1e-9
    )
    assert A.expected_triangles_uniform3(5, 0.5, 3) == pytest.approx(
        0.007716049382716048, abs=1e-9
    )


def test_expected_triangles_uniform3_published_variants_rejected():
    # neither published parameterization survives the oracle: the statement's
    # per-trial success p is off by the doubleton factor, and even with the
    # p/3 correction the single-variable independence template overshoots
    truth = 0.48353909465020623
    stmt = A.expected_triangles_uniform3(5, 1.0, 5, hyp_population=10, trial_success=1.0)
    corrected = A.expected_triangles_uniform3(5, 1.0, 5, hyp_population=10)
    assert abs(stmt - truth) > 4
    assert 0.1 < abs(corrected - truth) < 0.2
    # the proof's population C(n-3,3) cannot even parameterize a valid
    # hypergeometric at this scale (fewer triples than successes)
    with pytest.raises(ValueError):
        A.expected_triangles_uniform3(6, 1.0, 5, hyp_population=math.comb(3, 3))


def test_triangle_chain_row():
    assert A.triangle_chain_row(3, 0.8) == (1.0, 0.0, 0.0, 0.0)
    p = 0.37
    assert A.triangle_chain_row(4, p) == pytest.approx((1 - p / 2, p / 2, 0.0, 0.0))
    assert A.triangle_chain_row(9, 0.0) == (1.0, 0.0, 0.0, 0.0)


def test_triangle_chain_matrix_structure():
    for p in [0.0, 0.3, 1.0]:
        P = A.triangle_chain_matrix(p)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(P[3], [0, 0, 0, 1])
        assert np.allclose(P, np.triu(P))
        assert np.count_nonzero(P - np.diag(np.diag(P))) <= 3


def test_triangle_chain_row_properties():
    for n in range(3, 12):
        for p in np.linspace(0, 1, 6):
            row = A.triangle_chain_row(n, float(p))
            assert all(x >= -1e-15 for x in row)
            assert sum(row) == pytest.approx(1.0, abs=1e-12)
    # absorption probability grows with n and with p
    for p in [0.2, 0.6, 1.0]:
        p3 = [A.triangle_chain_row(n, p)[3] for n in range(3, 12)]
        assert all(b >= a - 1e-15 for a, b in zip(p3, p3[1:]))
    for n in [5, 8, 11]:
        p3 = [A.triangle_chain_row(n, float(p))[3] for p in np.linspace(0, 1, 11)]
        assert all(b >= a - 1e-15 for a, b in zip(p3, p3[1:]))


def test_expected_triangles_complete4_edges():
    for p in np.linspace(0, 1, 7):
        assert A.expected_triangles_complete4(4, float(p)) == pytest.approx(0.0, abs=1e-14)
    assert A.expected_triangles_complete4(7, 0.0) == 0.0
    assert A.expected_triangles_complete4(5, 1.0) == pytest.approx(65 / 144, abs=1e-12)


def test_expected_triangles_monotone_in_p():
    grid = [i / 10 for i in range(11)]
    for fn in [
        lambda p: A.expected_triangles_binomial3(7, p, 0.8),
        lambda p: A.expected_triangles_uniform3(7, p, 12),
        lambda p: A.expected_triangles_complete4(7, p),
    ]:
        values = [fn(p) for p in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# -- distribution sanity under random parameters -------------------------------


@given(st.lists(st.floats(0, 1), max_size=25))
@settings(max_examples=300, deadline=None)
def test_poisson_binomial_is_distribution(probs):
    pmf = A.poisson_binomial(probs).pmf
    assert abs(pmf.sum() - 1.0) < 1e-12
    assert np.all(pmf >= 0.0)


@given(
    st.integers(3, 9),
    st.floats(0, 1),
    st.floats(0, 1),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_model_laws_are_distributions(n, p, q, data):
    k = data.draw(st.integers(2, n))
    m = data.draw(st.integers(0, math.comb(n, k)))
    for dist in [
        A.degree_law_binomial_model(n, k, p, q),
        A.degree_law_uniform_model(n, k, p, m),
        A.hypergeometric(math.comb(n, k), math.comb(n - 1, k - 1), m),
    ]:
        assert abs(dist.pmf.sum() - 1.0) < 1e-12
        assert np.all(dist.pmf >= 0.0)


def test_degree_law_binomial_model_monte_carlo():
    # quenched sampling: fresh binomial driver each trial, then the graph
    from mglab.experiments import substream
    from mglab.generator import generate
    from mglab.hypergraph import binomial_hypergraph

    n, k, p, q = 6, 3, 0.5, 0.5
    trials = 100_000
    hist = np.zeros(math.comb(n - 1, k - 1) + 1)
    for t in range(trials):
        rng = substream(271, t)
        h = binomial_hypergraph(n, k, q, rng)
        hist[generate(h, p, rng).degree(1)] += 1
    law = A.degree_law_binomial_model(n, k, p, q)
    assert law.tv_distance(A.binomial_distribution(10, 1 / 6)) < 1e-12
    tv = 0.5 * np.abs(hist / trials - law.pmf).sum()
    assert tv < 0.02
