from itertools import combinations

import numpy as np
import pytest

from mglab import analytics as A
from mglab import oracle as O
from mglab.generator import generate
from mglab.hypergraph import Hypergraph, complete_uniform
from mglab.experiments import substream, wilson_interval


def test_single_triple_pair_adjacency():
    h = Hypergraph(3, [[1, 2, 3]])
    assert O.exact_property_probability(h, 1.0, O.pair_adjacent(1, 2)) == pytest.approx(1 / 3)
    assert O.exact_property_probability(h, 1.0, O.HAS_EDGE) == pytest.approx(1.0)


def test_empty_probability_matches_closed_form():
    h = complete_uniform(4, 3)
    got = O.exact_property_probability(h, 0.5, O.HAS_EDGE)
    assert got == pytest.approx(1 - 0.5**4, abs=1e-12)


def test_p_zero_reduces_to_empty_graph_predicate():
    h = complete_uniform(5, 3)
    assert O.exact_property_probability(h, 0.0, O.SIMPLE) == 1.0
    assert O.exact_property_probability(h, 0.0, O.HAS_EDGE) == 0.0
    assert O.exact_property_probability(h, 0.0, O.CONNECTED) == 0.0


def test_monotone_predicates_nondecreasing_in_p():
    h = complete_uniform(4, 3)
    grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    for pred in [O.HAS_EDGE, O.CONNECTED, O.NO_ISOLATED, O.HAS_TRIANGLE]:
        values = [O.exact_property_probability(h, p, pred) for p in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    simple = [O.exact_property_probability(h, p, O.SIMPLE) for p in grid]
    assert all(b <= a + 1e-12 for a, b in zip(simple, simple[1:]))


def test_two_uniform_hypergraph_reduces_to_independent_edges():
    # a 2-uniform driver has a single shadow: plain per-pair coin flips
    h = complete_uniform(3, 2)
    p = 0.45
    got = O.exact_property_probability(h, p, O.CONNECTED)
    want = 3 * p * p * (1 - p) + p**3
    assert got == pytest.approx(want, abs=1e-12)


def test_expected_triangles_small_cases():
    assert O.exact_expected_triangles(complete_uniform(4, 3), 1.0) == pytest.approx(
        4 / 9, abs=1e-12
    )
    assert O.exact_expected_triangles(complete_uniform(4, 3), 0.0) == 0.0
    assert O.exact_expected_triangles(complete_uniform(5, 4), 1.0) == pytest.approx(
        65 / 144, abs=1e-12
    )


def test_expected_triangles_against_double_enumeration():
    # validates the collapsed coin loop against the generic full enumeration
    def all_pairs_of(triple):
        pairs = list(combinations(triple, 2))
        return O.PropertyPredicate(
            "triple-adjacent", lambda g: all(g.multiplicity(*d) >= 1 for d in pairs)
        )

    rng = np.random.default_rng(0)
    for _ in range(4):
        edges = []
        for _ in range(rng.integers(2, 5)):
            size = int(rng.integers(2, 5))
            edges.append(rng.choice(np.arange(1, 6), size=size, replace=False).tolist())
        h = Hypergraph(5, edges)
        for p in [0.3, 1.0]:
            want = sum(
                O.exact_property_probability(h, p, all_pairs_of(t))
                for t in combinations(range(1, 6), 3)
            )
            got = O.exact_expected_triangles(h, p)
            assert got == pytest.approx(want, abs=1e-12)


def test_edge_count_distribution():
    none = O.exact_edge_count_distribution(Hypergraph(4, [[3, 4]]), 0.7, (1, 2))
    assert none.pmf.tolist() == [1.0]
    two = O.exact_edge_count_distribution(Hypergraph(4, [[1, 2, 3], [1, 2, 4]]), 1.0, (1, 2))
    assert np.allclose(two.pmf, [4 / 9, 4 / 9, 1 / 9])


def test_edge_count_distribution_matches_pair_law():
    h = complete_uniform(5, 3)
    got = O.exact_edge_count_distribution(h, 0.5, (1, 2))
    want = A.pair_edge_law(h, 1, 2, 0.5)
    assert got.tv_distance(want) < 1e-9


def test_budget_refusal():
    h = complete_uniform(8, 3)
    with pytest.raises(O.BudgetExceededError):
        O.exact_property_probability(h, 0.5, O.SIMPLE, budget=1000)
    with pytest.raises(O.BudgetExceededError):
        O.exact_expected_triangles(complete_uniform(12, 3), 0.5, budget=10**6)
    # p = 1 collapses the coin dimension, so the same budget can pass
    assert O.exact_property_probability(complete_uniform(4, 3), 1.0, O.SIMPLE, budget=100) >= 0


@pytest.mark.parametrize("quantity, n, k, states", [
    ("prob", 4, 3, 3**4 * 2**4),  # all 4 hyperedges, 2^4 coin patterns
    ("triangles", 5, 3, 3**7),  # 3·C(2,1) + C(2,0) hyperedges meet a triple in >= 2
    ("triangles", 5, 4, 6**5),  # 3·C(2,2) + C(2,1)
    ("pair-dist", 6, 3, 3**4),  # C(4,1) hyperedges hold the pair
])
def test_uniform_budget_check_is_the_enumerations_first_test(quantity, n, k, states):
    h = complete_uniform(n, k)
    enumerate_with = {
        "prob": lambda b: O.exact_property_probability(h, 0.5, O.HAS_EDGE, budget=b),
        "triangles": lambda b: O.exact_expected_triangles(h, 0.5, budget=b),
        "pair-dist": lambda b: O.exact_edge_count_distribution(h, 0.5, (1, 2), budget=b),
    }[quantity]
    for budget in (states - 1, states):
        refused = []
        for check in (lambda: O.check_uniform_budget(quantity, n, k, None, 0.5, budget, (1, 2)),
                      lambda: enumerate_with(budget)):
            try:
                check()
                refused.append(False)
            except O.BudgetExceededError:
                refused.append(True)
        assert refused == [budget < states] * 2


def test_enumeration_state_counts():
    h = complete_uniform(4, 3)
    assert O.enumeration_states(h, 0.5) == 3**4 * 2**4
    assert O.enumeration_states(h, 1.0) == 3**4
    per_triple = 3**4  # every triple of n=4 meets every hyperedge in >= 2 vertices
    assert O.triangle_enumeration_states(h, 0.5) == 4 * per_triple


def test_predicate_lookup():
    assert O.predicate_by_name("simple") is O.SIMPLE
    assert O.predicate_by_name("pair-adjacent", 1, 2).name == "pair-adjacent(1,2)"
    with pytest.raises(ValueError):
        O.predicate_by_name("pair-adjacent")
    with pytest.raises(ValueError):
        O.predicate_by_name("girth")


def test_oracle_matches_monte_carlo():
    # |oracle - empirical| within 4 Wilson half-widths
    cases = [
        (complete_uniform(4, 3), 0.35, O.SIMPLE),
        (complete_uniform(4, 3), 0.6, O.CONNECTED),
        (Hypergraph(4, [[1, 2, 3], [1, 2, 4], [2, 3, 4]]), 0.5, O.NO_ISOLATED),
    ]
    trials = 100_000
    for h, p, pred in cases:
        exact = O.exact_property_probability(h, p, pred)
        hits = 0
        for t in range(trials):
            hits += pred(generate(h, p, substream(99, t)))
        lo, hi = wilson_interval(hits, trials)
        half = (hi - lo) / 2
        assert abs(exact - hits / trials) < 4 * half


def test_enumeration_independent_of_partitioning(monkeypatch):
    h = complete_uniform(5, 3)
    baseline = O.exact_expected_triangles(h, 0.4)
    monkeypatch.setattr(O, "ENUM_CHUNK", 7)
    assert O.exact_expected_triangles(h, 0.4) == pytest.approx(baseline, abs=1e-12)
