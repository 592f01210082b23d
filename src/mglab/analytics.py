"""Closed-form laws for the hyperedge-driven random multigraph.

Degree and pair-multiplicity distributions, empty/isolated expectations, and
the three expected-triangle formulas (including the absorbing four-state
chain used for 4-uniform driving hypergraphs). The enumeration oracle is the
ground truth these formulas are tested against.

The binomial and hypergeometric pmfs under every law are float64 kernels,
not products of big-integer binomial coefficients (compare Loader, "Fast
and Accurate Computation of Binomial Probabilities", 2000): each starts at
the mode with weight 1, walks outward by the ratio of consecutive terms and
divides by the sum. A term k steps from the mode carries about k roundings;
the tests hold every term above 1e-290 to 1e-12 relative of the exact
rational, for Bin(5000, 1/3) and hypergeometrics up to N = 2^62.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .hypergraph import Hypergraph, check_nk, check_pair, check_probability

__all__ = [
    "DiscreteDistribution",
    "poisson_binomial",
    "binomial_distribution",
    "binomial_tail_ge1",
    "hypergeometric",
    "degree_law",
    "pair_edge_law",
    "pair_law_complete",
    "degree_law_binomial_model",
    "degree_law_uniform_model",
    "empty_probability",
    "expected_isolated",
    "expected_triangles_binomial3",
    "expected_triangles_uniform3",
    "triangle_chain_matrix",
    "triangle_chain_row",
    "expected_triangles_complete4",
]

SUM_TOL = 1e-12
# Widest pmf the kernels build (8 MB of float64): the exact laws are held
# and printed in full.
MAX_SUPPORT = 1 << 20


class DiscreteDistribution:
    """A finite pmf over {0, 1, ..., len-1}.

    Entries must be non-negative and sum to one within 1e-12; violating
    inputs are rejected rather than renormalized.
    """

    __slots__ = ("pmf",)

    def __init__(self, pmf: Sequence[float] | np.ndarray):
        arr = np.asarray(pmf, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("pmf must be a non-empty 1-d array")
        if np.any(arr < -SUM_TOL) or np.any(arr > 1.0 + SUM_TOL):
            raise ValueError("pmf entries must lie in [0, 1]")
        if abs(float(arr.sum()) - 1.0) > SUM_TOL:
            raise ValueError(f"pmf sums to {arr.sum()!r}, not 1")
        arr.flags.writeable = False
        self.pmf = arr

    def __len__(self) -> int:
        return len(self.pmf)

    def __getitem__(self, j: int) -> float:
        return float(self.pmf[j]) if 0 <= j < len(self.pmf) else 0.0

    def __repr__(self) -> str:
        return f"DiscreteDistribution({self.pmf.tolist()})"

    def mean(self) -> float:
        return float(np.arange(len(self.pmf)) @ self.pmf)

    def tail_ge(self, j: int) -> float:
        """P(X >= j)."""
        return float(self.pmf[max(j, 0):].sum())

    def tv_distance(self, other: "DiscreteDistribution") -> float:
        """Total-variation distance, padding the shorter support with zeros."""
        width = max(len(self.pmf), len(other.pmf))
        a = np.zeros(width)
        b = np.zeros(width)
        a[: len(self.pmf)] = self.pmf
        b[: len(other.pmf)] = other.pmf
        return 0.5 * float(np.abs(a - b).sum())

    @classmethod
    def point_mass(cls, j: int, width: int | None = None) -> "DiscreteDistribution":
        pmf = np.zeros((width if width is not None else j + 1))
        pmf[j] = 1.0
        return cls(pmf)


def poisson_binomial(probs: Sequence[float]) -> DiscreteDistribution:
    """Distribution of the success count over independent heterogeneous trials.

    Computed by the usual O(m^2) convolution: fold one Bernoulli factor into
    the pmf at a time.
    """
    ps = np.asarray(probs, dtype=np.float64)
    if np.any(ps < 0.0) or np.any(ps > 1.0):
        raise ValueError("trial probabilities must lie in [0, 1]")
    pmf = np.array([1.0])
    for p in ps:
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return DiscreteDistribution(pmf)


def binomial_distribution(m: int, q: float) -> DiscreteDistribution:
    """Bin(m, q) pmf by the term ratio (m-j)/(j+1) · q/(1-q), walked out
    from the mode (see ``_from_mode``)."""
    if m < 0:
        raise ValueError(f"trial count must be non-negative, got {m}")
    check_probability(q, "q")
    _check_support(m)
    if q in (0.0, 1.0):
        return DiscreteDistribution.point_mass(m if q == 1.0 else 0, m + 1)
    j = np.arange(m, dtype=np.float64)
    mode = min(int((m + 1) * q), m)
    return DiscreteDistribution(_from_mode((m - j) * q, (j + 1.0) * (1.0 - q), mode))


def binomial_tail_ge1(m: int, q: float) -> float:
    """P(Bin(m, q) >= 1) = 1 - (1 - q)^m."""
    if m < 0:
        raise ValueError(f"trial count must be non-negative, got {m}")
    check_probability(q, "q")
    return 1.0 - (1.0 - q) ** m


def hypergeometric(N: int, M: int, a: int) -> DiscreteDistribution:
    """Successes when drawing a items without replacement from a population
    of N containing M successes.

    Built from the term ratio (M-j)(a-j) / ((j+1)(N-M-a+j+1)) walked out
    from the mode (see ``_from_mode``). Every factor is a float before it is
    multiplied, so no product overflows however large N is.
    """
    if not 0 <= M <= N:
        raise ValueError(f"need 0 <= M <= N, got M={M}, N={N}")
    if not 0 <= a <= N:
        raise ValueError(f"need 0 <= a <= N, got a={a}, N={N}")
    lo, hi = max(0, a - (N - M)), min(M, a)
    _check_support(hi)
    mode = min(max((a + 1) * (M + 1) // (N + 2), lo), hi)
    j = np.arange(lo, hi, dtype=np.float64)
    pmf = np.zeros(hi + 1)
    pmf[lo:] = _from_mode(
        (float(M) - j) * (float(a) - j), (j + 1.0) * (float(N - M - a + 1) + j), mode - lo
    )
    return DiscreteDistribution(pmf)


def _from_mode(num: np.ndarray, den: np.ndarray, mode: int) -> np.ndarray:
    """The pmf whose consecutive terms have ratios f(j+1)/f(j) = num[j]/den[j].

    The walk starts at the mode with weight 1 and runs outward with running
    products of ratios below one, so no partial product overflows and the
    terms that matter only underflow to zero far in the tails; the sum then
    normalizes. Each term carries one rounding per step from the mode
    (relative error near steps x 2^-53; the tests check 1e-12 against
    exact rationals up to thousands of steps).
    """
    w = np.empty(len(num) + 1)
    w[mode] = 1.0
    w[mode + 1:] = np.cumprod(num[mode:] / den[mode:])
    w[:mode] = np.cumprod(den[:mode][::-1] / num[:mode][::-1])[::-1]
    return w / w.sum()


def _check_support(top: int) -> None:
    """Refuse a pmf over 0..top too wide to hold and print."""
    if top >= MAX_SUPPORT:
        raise ValueError(f"pmf over 0..{top} is wider than {MAX_SUPPORT} entries")


def degree_law(h: Hypergraph, v: int, p: float) -> DiscreteDistribution:
    """Distribution of the (multiplicity-counting) degree of vertex v.

    One trial per hyperedge containing v, succeeding with probability
    2p/|H|: the chance the chosen doubleton touches v times the coin.
    """
    if not 1 <= v <= h.n:
        raise ValueError(f"vertex {v} outside 1..{h.n}")
    check_probability(p, "p")
    return poisson_binomial([2.0 * p / len(e) for e in h.edges if v in e])


def pair_edge_law(h: Hypergraph, i: int, j: int, p: float) -> DiscreteDistribution:
    """Distribution of the number of edges between vertices i and j.

    One trial per hyperedge containing both, succeeding with probability
    p / C(|H|, 2): the doubleton must be exactly {i, j}.
    """
    check_pair(i, j, h.n)
    check_probability(p, "p")
    probs = [p / math.comb(len(e), 2) for e in h.edges if i in e and j in e]
    return poisson_binomial(probs)


def pair_law_complete(n: int, k: int, i: int, j: int, p: float) -> DiscreteDistribution:
    """``pair_edge_law`` on the complete k-uniform driver without building
    it: C(n-2, k-2) hyperedges hold the pair, so Bin(C(n-2, k-2), p/C(k,2))."""
    check_nk(n, k)
    check_pair(i, j, n)
    check_probability(p, "p")
    return binomial_distribution(math.comb(n - 2, k - 2), p / math.comb(k, 2))


def degree_law_binomial_model(n: int, k: int, p: float, q: float) -> DiscreteDistribution:
    """Vertex degree when the driving hypergraph includes each k-subset with
    probability q: Bin(C(n-1, k-1), 2pq/k)."""
    check_nk(n, k)
    check_probability(p, "p")
    check_probability(q, "q")
    return binomial_distribution(math.comb(n - 1, k - 1), 2.0 * p * q / k)


def degree_law_uniform_model(
    n: int, k: int, p: float, m: int, *, trial_success: float | None = None
) -> DiscreteDistribution:
    """Vertex degree when the driving hypergraph is a uniform choice of m
    distinct k-subsets.

    The hyperedge count at the vertex is Hyp(C(n,k), C(n-1,k-1), m) and each
    of those hyperedges contributes an edge with probability 2p/k, so the
    degree is the corresponding binomial mixture. ``trial_success``
    overrides the per-hyperedge probability (the source theorem's statement
    uses p where its own proof, and the enumeration oracle, give 2p/k; the
    calibrated default is 2p/k).
    """
    total = check_nk(n, k)
    check_probability(p, "p")
    if not 0 <= m <= total:
        raise ValueError(f"edge count {m} outside 0..C({n},{k})={total}")
    s = 2.0 * p / k if trial_success is None else trial_success
    check_probability(s, "trial_success")
    weights = hypergeometric(total, math.comb(n - 1, k - 1), m)
    width = len(weights) - 1
    pmf = np.zeros(width + 1)
    for w, hw in enumerate(weights.pmf):
        if hw > 0.0:
            pmf[: w + 1] += hw * binomial_distribution(w, s).pmf
    return DiscreteDistribution(pmf)


def empty_probability(edge_count: int, p: float) -> float:
    """Probability the generated multigraph has no edge: (1-p)^edges."""
    if edge_count < 0:
        raise ValueError(f"edge count must be non-negative, got {edge_count}")
    check_probability(p, "p")
    return (1.0 - p) ** edge_count


def expected_isolated(n: int, k: int, p: float) -> float:
    """Expected number of isolated vertices under the complete k-uniform
    driving hypergraph: n * (1 - 2p/k)^C(n-1, k-1)."""
    check_nk(n, k)
    check_probability(p, "p")
    return n * (1.0 - 2.0 * p / k) ** math.comb(n - 1, k - 1)


def expected_triangles_binomial3(n: int, p: float, q: float) -> float:
    """Expected triangle count when each triple of 1..n drives the model
    independently with probability q.

    With t = P(Bin(n-3, pq/3) >= 1), the per-triple probability is
    (1 - pq) t^3 + pq t^2; multiply by C(n, 3).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    check_probability(p, "p")
    check_probability(q, "q")
    t = binomial_tail_ge1(n - 3, p * q / 3.0)
    return math.comb(n, 3) * ((1.0 - p * q) * t**3 + p * q * t**2)


def expected_triangles_uniform3(
    n: int,
    p: float,
    m: int,
    *,
    hyp_population: int | None = None,
    hyp_successes: int | None = None,
    hyp_sample: int | None = None,
    trial_success: float | None = None,
) -> float:
    """Expected triangle count when the driving hypergraph is a uniform
    choice of m distinct triples of 1..n.

    With no hypergeometric overrides this integrates the three pair-coverage
    counts of a triple under their exact joint sampling-without-replacement
    law, conditioned on whether the triple itself drives a trial; the
    per-hyperedge hit probability is ``trial_success`` (default p/3: the
    doubleton must be the shared pair, then the coin). That default was
    fixed against the enumeration oracle, which rejects both published
    variants of this quantity: their per-hyperedge success p is off by the
    doubleton factor, and treating the three counts as independent
    hypergeometrics overshoots badly at small n however the population is
    chosen (see tests/test_analytics.py for the arbitration numbers).

    Supplying any of ``hyp_population`` / ``hyp_successes`` / ``hyp_sample``
    switches to that single-variable template,
    C(n,3) * {(1 - pm/C(n,3)) t^3 + (pm/C(n,3)) t^2} with
    t = E[1 - (1 - s)^W], W ~ Hyp(population, successes, sample);
    unsupplied knobs default to population C(n,3), successes n-3, sample m.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    check_probability(p, "p")
    total = math.comb(n, 3)
    if not 0 <= m <= total:
        raise ValueError(f"edge count {m} outside 0..C({n},3)={total}")
    s = p / 3.0 if trial_success is None else trial_success
    check_probability(s, "trial_success")

    if hyp_population is None and hyp_successes is None and hyp_sample is None:
        return _uniform3_exact_joint(n, p, m, s)

    N = total if hyp_population is None else hyp_population
    M = n - 3 if hyp_successes is None else hyp_successes
    a = m if hyp_sample is None else hyp_sample
    w_law = hypergeometric(N, M, a)
    t = sum(hw * binomial_tail_ge1(w, s) for w, hw in enumerate(w_law.pmf) if hw > 0.0)
    frac = p * m / total
    return total * ((1.0 - frac) * t**3 + frac * t**2)


def _uniform3_exact_joint(n: int, p: float, m: int, s: float) -> float:
    """Exact per-triple adjacency probability, times C(n,3).

    Fix a triple T. Among the other C(n,3)-1 triples, each pair of T is
    contained in exactly n-3 of them (three disjoint classes), so given the
    class counts (w1, w2, w3) of the driving hyperedges the pairs of T are
    covered independently with probabilities 1-(1-s)^wi. The counts follow
    a multivariate hypergeometric whose sample size is m-1 or m depending
    on whether T itself was drawn; T's own trial covers one uniform pair
    with probability p.
    """
    total = math.comb(n, 3)
    cls = n - 3
    rest = total - 1 - 3 * cls

    def branch(sample: int) -> tuple[float, float]:
        # Nested conditionals: w1 ~ Hyp(total-1, cls, sample), then
        # w2 | w1, then w3 | w1, w2, shrinking population and sample.
        cond: dict[int, list[float]] = {}

        def law(population: int, draw: int) -> list[float]:
            key = population * (total + 1) + draw
            if key not in cond:
                cond[key] = hypergeometric(population, cls, draw).pmf.tolist()
            return cond[key]

        all_cov = 0.0
        two_cov = 0.0
        pmf1 = law(total - 1, sample)
        for w1, q1 in enumerate(pmf1):
            if q1 <= 0.0:
                continue
            f1 = 1.0 - (1.0 - s) ** w1
            pmf2 = law(total - 1 - cls, sample - w1)
            for w2, q2 in enumerate(pmf2):
                if q2 <= 0.0:
                    continue
                f2 = 1.0 - (1.0 - s) ** w2
                pmf3 = law(total - 1 - 2 * cls, sample - w1 - w2)
                for w3, q3 in enumerate(pmf3):
                    if q3 <= 0.0:
                        continue
                    f3 = 1.0 - (1.0 - s) ** w3
                    weight = q1 * q2 * q3
                    all_cov += weight * f1 * f2 * f3
                    two_cov += weight * (f1 * f2 + f1 * f3 + f2 * f3) / 3.0
        return all_cov, two_cov

    frac = m / total
    prob = 0.0
    if m >= 1:
        all_in, two_in = branch(m - 1)
        prob += frac * ((1.0 - p) * all_in + p * two_in)
    if m < total:
        all_out, _ = branch(m)
        prob += (1.0 - frac) * all_out
    return total * prob


def triangle_chain_matrix(p: float) -> np.ndarray:
    """Transition matrix of the covered-pair count of one triple while the
    hyperedges containing the whole triple are processed one by one.

    States 0..3 count how many of the triple's pairs are joined so far;
    a step advances with probability (3-state)/6 * p and state 3 absorbs.
    """
    check_probability(p, "p")
    return np.array(
        [
            [1.0 - p / 2.0, p / 2.0, 0.0, 0.0],
            [0.0, 1.0 - p / 3.0, p / 3.0, 0.0],
            [0.0, 0.0, 1.0 - p / 6.0, p / 6.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def triangle_chain_row(n: int, p: float) -> tuple[float, float, float, float]:
    """Row 0 of the chain's (n-3)-th power: the covered-pair distribution of
    one triple after all n-3 fully containing hyperedges are processed."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    P = triangle_chain_matrix(p)
    row = np.array([1.0, 0.0, 0.0, 0.0])
    for _ in range(n - 3):
        row = row @ P
    return tuple(float(x) for x in row)


def expected_triangles_complete4(n: int, p: float) -> float:
    """Expected triangle count under the complete 4-uniform driving
    hypergraph.

    Condition on how many of a triple's pairs the n-3 containing hyperedges
    covered (the chain row); each still-missing pair must then be covered by
    one of its C(n-3, 2) two-vertex-sharing hyperedges, each hitting with
    probability p/6.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    check_probability(p, "p")
    p00, p01, p02, _ = triangle_chain_row(n, p)
    x = binomial_tail_ge1(math.comb(n - 3, 2), p / 6.0)
    covered_all = 1.0 - (p00 + p01 + p02)
    return math.comb(n, 3) * (covered_all + p00 * x**3 + p01 * x**2 + p02 * x)

