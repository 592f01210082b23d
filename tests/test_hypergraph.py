import io
import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from mglab.hypergraph import (
    Hypergraph,
    binomial_hypergraph,
    complete_uniform,
    rank_ksubset,
    read_hypergraph,
    uniform_hypergraph,
    unrank_ksubsets,
    write_hypergraph,
)


def test_complete_all_pairs_of_three():
    h = complete_uniform(3, 2)
    assert h.edges == ((1, 2), (1, 3), (2, 3))


def test_complete_single_full_edge():
    h = complete_uniform(4, 4)
    assert h.edges == ((1, 2, 3, 4),)


def test_complete_5_3_degrees_by_enumeration():
    h = complete_uniform(5, 3)
    assert len(h.edges) == 10
    # independent count: subsets of {1..5} of size 3 containing a fixed vertex
    for v in range(1, 6):
        want = sum(1 for s in combinations(range(1, 6), 3) if v in s)
        assert want == math.comb(4, 2) == 6
        assert h.degree([v]) == want


def test_complete_pair_and_empty_degrees():
    h = complete_uniform(6, 3)
    assert h.degree([1, 2]) == math.comb(4, 1)
    assert h.degree([]) == len(h.edges)


def test_edge_validation():
    with pytest.raises(ValueError):
        Hypergraph(4, [[3]])
    with pytest.raises(ValueError):
        Hypergraph(4, [[1, 5]])
    with pytest.raises(ValueError):
        Hypergraph(4, [[2, 2, 3]])
    with pytest.raises(ValueError):
        complete_uniform(3, 4)
    with pytest.raises(ValueError):
        complete_uniform(3, 1)


def test_edges_canonicalized():
    h = Hypergraph(5, [[3, 1, 2], [5, 4]])
    assert h.edges == ((1, 2, 3), (4, 5))


def test_multiplicity_multiset_semantics():
    assert complete_uniform(4, 3).multiplicity([1, 2, 3]) == 1
    assert Hypergraph(4).multiplicity([1, 2]) == 0
    h = Hypergraph(4, [[1, 2, 3], [1, 2, 3]])
    assert h.multiplicity([3, 2, 1]) == 2


def test_multiplicity_sums_to_edge_count():
    rng = np.random.default_rng(0)
    h = binomial_hypergraph(6, 3, 0.4, rng)
    total = sum(h.multiplicity(s) for s in combinations(range(1, 7), 3))
    assert total == len(h.edges)


def test_binomial_q_one_is_complete():
    rng = np.random.default_rng(1)
    h = binomial_hypergraph(6, 3, 1.0, rng)
    assert sorted(h.edges) == sorted(complete_uniform(6, 3).edges)


def test_binomial_q_zero_is_empty():
    rng = np.random.default_rng(1)
    assert binomial_hypergraph(6, 3, 0.0, rng).edges == ()


def test_binomial_mean_edge_count():
    rng = np.random.default_rng(2)
    trials = 10_000
    total = sum(len(binomial_hypergraph(20, 3, 0.5, rng)) for _ in range(trials))
    want = math.comb(20, 3) / 2
    se = math.sqrt(math.comb(20, 3) * 0.25 / trials)
    assert abs(total / trials - want) < 3 * se


def test_binomial_rejects_bad_q():
    with pytest.raises(ValueError):
        binomial_hypergraph(5, 3, 1.5, np.random.default_rng(0))


def test_uniform_extremes():
    rng = np.random.default_rng(3)
    full = uniform_hypergraph(5, 3, 10, rng)
    assert sorted(full.edges) == sorted(complete_uniform(5, 3).edges)
    assert uniform_hypergraph(5, 3, 0, rng).edges == ()
    with pytest.raises(ValueError):
        uniform_hypergraph(5, 3, 11, rng)


def test_uniform_edges_distinct_and_valid():
    rng = np.random.default_rng(4)
    for _ in range(50):
        h = uniform_hypergraph(7, 4, 12, rng)
        assert len(set(h.edges)) == 12
        assert all(len(e) == 4 for e in h.edges)


def test_uniform_inclusion_frequency():
    # symmetry: every fixed triple appears with probability m / C(n,k)
    rng = np.random.default_rng(5)
    trials = 20_000
    hits = sum((1, 2, 3) in uniform_hypergraph(6, 3, 4, rng).edges for _ in range(trials))
    se = math.sqrt(0.2 * 0.8 / trials)
    assert abs(hits / trials - 0.2) < 4 * se


def test_unrank_rank_roundtrip():
    for n, k in [(6, 3), (8, 4), (5, 2)]:
        subsets = [tuple(s) for s in combinations(range(1, n + 1), k)]
        for s in subsets:
            r = rank_ksubset(s)
            assert 0 <= r < math.comb(n, k)
            assert tuple(unrank_ksubsets(n, k, [r])[0].tolist()) == s
        assert len({rank_ksubset(s) for s in subsets}) == len(subsets)


def test_unrank_inverts_rank_up_to_int64():
    # every rank of small spaces, then both ends and random ranks of spaces
    # whose binomial tables pass 2^63 (C(70, 35)) or whose size nearly does;
    # (200, 190) has C < 2^63 but i! overflows a float from i = 171
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, k in [(9, 4), (7, 7), (12, 2), (6, 1), (30, 28)]:
            ranks = np.arange(math.comb(n, k))
            got = unrank_ksubsets(n, k, ranks)
            assert [rank_ksubset(row) for row in got.tolist()] == ranks.tolist()
        rng = np.random.default_rng(7)
        top = 2**63 - 1
        for n, k, extra in [
            (70, 60, []),
            (66, 33, []),
            (1000, 6, []),
            (200, 190, []),
            (70, 35, [top, top - 1, top - 2, top - 1000, *range(top - 50_000, top, 997)]),
            (3000, 3, []),
            (400, 3, rng.choice(math.comb(400, 3), 5000, replace=False).tolist()),
        ]:
            total = math.comb(n, k)
            last = min(total, 2**63) - 1
            ranks = [0, last, *(int(x) for x in rng.integers(0, last, size=200)), *extra]
            got = unrank_ksubsets(n, k, np.array(ranks, dtype=np.int64))
            assert np.all(np.diff(got, axis=1) > 0) and got.min() >= 1 and got.max() <= n
            assert [rank_ksubset(row) for row in got.tolist()] == ranks
        assert unrank_ksubsets(400, 3, [0]).tolist() == [[1, 2, 3]]
        assert unrank_ksubsets(5, 3, np.zeros(0, dtype=np.int64)).shape == (0, 3)


def test_submultiset():
    h1 = Hypergraph(5, [[1, 2, 3], [1, 2, 3]])
    h2 = Hypergraph(5, [[1, 2, 3], [1, 2, 3], [2, 4]])
    assert h1.is_submultiset_of(h2)
    assert not h2.is_submultiset_of(h1)
    h3 = Hypergraph(5, [[1, 2, 3]])
    assert not h1.is_submultiset_of(h3)


def test_serialization_roundtrip():
    h = Hypergraph(6, [[1, 2, 3], [2, 5], [1, 2, 3]])
    buf = io.StringIO()
    write_hypergraph(h, buf)
    buf.seek(0)
    back = read_hypergraph(buf)
    assert back.n == h.n and back.edges == h.edges


def test_read_rejects_bad_header():
    with pytest.raises(ValueError):
        read_hypergraph(io.StringIO("edges=3\n1 2\n"))


def test_random_constructors_produce_valid_hypergraphs():
    rng = np.random.default_rng(6)
    for _ in range(30):
        for h in [
            binomial_hypergraph(7, 3, 0.3, rng),
            uniform_hypergraph(7, 4, 9, rng),
        ]:
            revalidated = Hypergraph(h.n, h.edges)
            assert revalidated.edges == h.edges
