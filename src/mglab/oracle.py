"""Exact probabilities by brute-force enumeration, at desk scale.

The generated multigraph is a mixture: condition on the shadow (one
doubleton choice per hyperedge) and the conditional law is just independent
coins on the chosen doubletons. The oracle walks that mixture exactly -- a
mixed-radix counter over per-hyperedge doubleton indices, and for generic
predicates an inner loop over all coin patterns -- and is the ground truth
the closed-form analytics and the Monte Carlo harness are checked against.

Costs are estimated before enumerating (in logs, to dodge overflow) and
refused above the caller's budget.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Callable

import numpy as np

from .analytics import DiscreteDistribution, binomial_distribution
from .hypergraph import Hypergraph, check_pair, check_probability
from .multigraph import PROPERTIES, Multigraph, property_evaluator

__all__ = [
    "PropertyPredicate",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "SIMPLE",
    "CONNECTED",
    "NO_ISOLATED",
    "HAS_EDGE",
    "HAS_TRIANGLE",
    "pair_adjacent",
    "predicate_by_name",
    "exact_property_probability",
    "exact_expected_triangles",
    "exact_edge_count_distribution",
    "enumeration_states",
    "triangle_enumeration_states",
    "check_uniform_budget",
]

DEFAULT_BUDGET = 10**9

# Selections enumerated per vectorized block; partial sums combine
# associatively, so the result is independent of the partitioning.
ENUM_CHUNK = 1 << 18


class BudgetExceededError(RuntimeError):
    """Raised when an exact enumeration would exceed the evaluation budget."""


@dataclass(frozen=True)
class PropertyPredicate:
    """A named deterministic boolean function of a multigraph."""

    name: str
    fn: Callable[[Multigraph], bool]

    def __call__(self, g: Multigraph) -> bool:
        return self.fn(g)


@lru_cache(maxsize=None)
def _table_predicate(name: str) -> PropertyPredicate:
    evaluate = property_evaluator(name)
    return PropertyPredicate(name, lambda g: evaluate(g)[0])


def predicate_by_name(
    name: str, i: int | None = None, j: int | None = None, n: int | None = None
) -> PropertyPredicate:
    """The property table's entry as a predicate; a pair property is bound
    to (i, j), which must be two distinct vertices of 1..n."""
    if name not in PROPERTIES or not PROPERTIES[name].pair:
        return _table_predicate(name)
    evaluate = property_evaluator(name, n, i, j)
    return PropertyPredicate(f"{name}({i},{j})", lambda g: evaluate(g)[0])


def pair_adjacent(i: int, j: int, n: int | None = None) -> PropertyPredicate:
    """At least one edge between the two given vertices of 1..n."""
    return predicate_by_name("pair-adjacent", i, j, n)


SIMPLE, CONNECTED, NO_ISOLATED, HAS_EDGE, HAS_TRIANGLE = map(
    _table_predicate, ("simple", "connected", "no-isolated", "has-edge", "triangle-count")
)


def enumeration_states(h: Hypergraph, p: float) -> int:
    """Elementary evaluations of the full double enumeration: shadow
    selections times coin patterns (one pattern when p is 0 or 1)."""
    sel = math.prod(math.comb(len(e), 2) for e in h.edges)
    return sel * (1 if p in (0.0, 1.0) else 2 ** len(h.edges))


def _check_budget(radix_counts: dict[int, int], npatterns_log2: int, budget: int) -> None:
    """Refuse shadow selections over hyperedges with these doubleton counts
    (radix -> hyperedges), times 2^npatterns_log2 coin patterns, above the
    budget; compared in logs to dodge overflow."""
    log_states = sum(c * math.log(r) for r, c in radix_counts.items())
    if log_states + npatterns_log2 * math.log(2.0) > math.log(budget) + 1e-12:
        raise BudgetExceededError(
            f"enumeration needs more than the budget of {budget} evaluations"
        )


def check_uniform_budget(
    quantity: str,
    n: int,
    k: int,
    m: int | None,
    p: float,
    budget: int,
    pair: tuple[int, int] | None = None,
) -> None:
    """Refuse an over-budget enumeration on a built-in k-uniform driver
    before it is built: complete(n, k) when m is None, else m distinct
    k-subsets.

    Every hyperedge offers C(k, 2) doubletons, so the budget test needs only
    hyperedge counts. For complete(n, k) they are the ones the enumeration
    tests first. For the uniform driver ``prob`` counts all m, ``triangles``
    the average over triples (the busiest triple has at least that many) and
    ``pair-dist`` the fewest that the draw can put on the pair. So this
    refuses only what the enumeration would refuse, and the argument checks
    the enumeration makes first come first here too.
    """
    check_probability(p, "p")
    total = math.comb(n, k)
    edges = total if m is None else m
    patterns = 0
    if quantity == "prob":
        relevant = edges
        patterns = 0 if p in (0.0, 1.0) else edges
    elif quantity == "triangles":
        if n < 3:
            return
        # Hyperedges of complete(n, k) sharing two or three vertices with a triple.
        per_triple = 3 * math.comb(n - 3, k - 2) + (math.comb(n - 3, k - 3) if k >= 3 else 0)
        relevant = -(-edges * per_triple // total)
    elif quantity == "pair-dist":
        check_pair(*pair, n)
        relevant = max(0, edges - total + math.comb(n - 2, k - 2))
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    # Like the enumeration, test every prob run but no triple or pair that no
    # hyperedge reaches.
    if relevant or quantity == "prob":
        _check_budget({math.comb(k, 2): relevant}, patterns, budget)


def exact_property_probability(
    h: Hypergraph, p: float, pred: PropertyPredicate, budget: int = DEFAULT_BUDGET
) -> float:
    """P(generated multigraph satisfies ``pred``), exactly.

    Outer loop: every shadow selection, weighted by the uniform doubleton
    choices. Inner loop: every coin pattern, weighted p^s (1-p)^(m-s). For
    p = 0 or p = 1 only the single possible pattern is visited.
    """
    check_probability(p, "p")
    m = len(h.edges)
    radices = [math.comb(len(e), 2) for e in h.edges]
    degenerate = p in (0.0, 1.0)
    _check_budget(Counter(radices), 0 if degenerate else m, budget)
    choice_lists = [list(combinations(e, 2)) for e in h.edges]

    if degenerate:
        patterns = [(1 << m) - 1 if p == 1.0 else 0]
        weights = [1.0]
    else:
        patterns = list(range(1 << m))
        weights = [p ** b.bit_count() * (1.0 - p) ** (m - b.bit_count()) for b in patterns]

    total = 0.0
    for selection in product(*choice_lists):
        for bits, w in zip(patterns, weights):
            kept = [d for idx, d in enumerate(selection) if bits >> idx & 1]
            if pred(Multigraph.from_pairs(h.n, kept)):
                total += w
    return total / (math.prod(radices) if radices else 1)


def exact_expected_triangles(h: Hypergraph, p: float, budget: int = DEFAULT_BUDGET) -> float:
    """Exact expected number of triangles, by linearity over vertex triples.

    Per triple only hyperedges sharing at least two of its vertices can
    place an edge inside it, so the shadow enumeration is restricted to
    those. Given a selection, the triple's three pairs are covered by
    disjoint coin groups, so the coin loop collapses to the exact product
    of per-pair success probabilities (the budget counts selections only).
    """
    check_probability(p, "p")
    total = 0.0
    for triple in combinations(range(1, h.n + 1), 3):
        total += _triple_adjacency_probability(h, p, triple, budget)
    return total


def triangle_enumeration_states(h: Hypergraph, p: float) -> int:
    """Shadow selections visited by ``exact_expected_triangles``."""
    states = 0
    for triple in combinations(range(1, h.n + 1), 3):
        relevant = [e for e in h.edges if len(set(triple) & set(e)) >= 2]
        states += math.prod(math.comb(len(e), 2) for e in relevant)
    return states


def _triple_adjacency_probability(
    h: Hypergraph, p: float, triple: tuple[int, int, int], budget: int
) -> float:
    pairs = list(combinations(triple, 2))
    relevant = [e for e in h.edges if len(set(triple) & set(e)) >= 2]
    if not relevant:
        return 0.0
    radices = [math.comb(len(e), 2) for e in relevant]
    _check_budget(Counter(radices), 0, budget)

    # hit[e][r]: which of the triple's pairs (0..2) doubleton r of hyperedge
    # e lands on, 3 when it misses the triple.
    hits = []
    for e in relevant:
        row = []
        for d in combinations(e, 2):
            row.append(pairs.index(d) if d in pairs else 3)
        hits.append(np.array(row, dtype=np.int8))

    n_sel = math.prod(radices)
    # 1 - (1-p)^c for coverage counts c, precomputed up to len(relevant).
    cover = 1.0 - (1.0 - p) ** np.arange(len(relevant) + 1)

    total = 0.0
    chunk = ENUM_CHUNK
    places = np.array([math.prod(radices[i + 1:]) for i in range(len(radices))], dtype=np.int64)
    radix_arr = np.array(radices, dtype=np.int64)
    for lo in range(0, n_sel, chunk):
        flat = np.arange(lo, min(lo + chunk, n_sel), dtype=np.int64)
        digits = (flat[:, None] // places[None, :]) % radix_arr[None, :]
        sel_hits = np.empty_like(digits, dtype=np.int8)
        for col, row in enumerate(hits):
            sel_hits[:, col] = row[digits[:, col]]
        prob = np.ones(len(flat))
        for pair_idx in range(3):
            counts = (sel_hits == pair_idx).sum(axis=1)
            prob *= cover[counts]
        total += float(prob.sum())
    return total / n_sel


def exact_edge_count_distribution(
    h: Hypergraph, p: float, pair: tuple[int, int], budget: int = DEFAULT_BUDGET
) -> DiscreteDistribution:
    """Exact pmf of the edge multiplicity on one vertex pair.

    Only hyperedges containing both endpoints can select that doubleton;
    per shadow selection the multiplicity is Bin(#matching choices, p).
    """
    check_probability(p, "p")
    i, j = pair
    check_pair(i, j, h.n)
    key = (i, j) if i < j else (j, i)
    relevant = [e for e in h.edges if i in e and j in e]
    if not relevant:
        return DiscreteDistribution.point_mass(0)
    radices = [math.comb(len(e), 2) for e in relevant]
    _check_budget(Counter(radices), 0, budget)

    match_flags = [[d == key for d in combinations(e, 2)] for e in relevant]
    width = len(relevant)
    pmf = np.zeros(width + 1)
    bin_cache = {c: binomial_distribution(c, p).pmf for c in range(width + 1)}
    for selection in product(*match_flags):
        c = sum(selection)
        pmf[: c + 1] += bin_cache[c]
    return DiscreteDistribution(pmf / math.prod(radices))

