import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mglab import analytics as A
from mglab import experiments as E
from mglab.hypergraph import complete_uniform
from mglab.generator import generate


# -- Wilson interval -----------------------------------------------------------


@given(st.integers(1, 100_000), st.data())
@settings(max_examples=300, deadline=None)
def test_wilson_brackets_estimate(trials, data):
    successes = data.draw(st.integers(0, trials))
    lo, hi = E.wilson_interval(successes, trials)
    phat = successes / trials
    assert 0.0 <= lo <= phat <= hi <= 1.0


def test_wilson_boundary_exact():
    lo, hi = E.wilson_interval(0, 500)
    assert lo == 0.0 and hi > 0.0
    lo, hi = E.wilson_interval(500, 500)
    assert hi == 1.0 and lo < 1.0


def test_wilson_coverage_against_known_truth():
    # 200 replications of a small experiment whose truth is in closed form
    truth = 1 - (1 - 0.3) ** 4  # has-edge on the complete 3-uniform driver, n=4
    h = complete_uniform(4, 3)
    covered = 0
    for rep in range(200):
        hits = 0
        for t in range(300):
            g = generate(h, 0.3, E.substream(1000 + rep, t))
            hits += len(g.edge_mult) > 0
        lo, hi = E.wilson_interval(hits, 300)
        covered += lo <= truth <= hi
    assert covered >= 180


# -- config ---------------------------------------------------------------------


def base_cfg(**kw):
    args = dict(
        model="complete-k", n=6, k=3, p=0.3, property="has-edge", trials=50, seed=1
    )
    args.update(kw)
    return E.ExperimentConfig(**args)


def test_config_json_roundtrip_and_unknown_keys():
    cfg = E.ExperimentConfig.from_json(
        '{"model": "complete-k", "n": 6, "k": 3, "p": [0.1, 0.2],'
        ' "property": "simple", "trials": 10, "seed": 4}'
    )
    assert cfg.p_values() == [0.1, 0.2]
    with pytest.raises(ValueError, match="unknown config keys"):
        E.ExperimentConfig.from_json(
            '{"model": "complete-k", "n": 6, "k": 3, "p": 0.1,'
            ' "property": "simple", "trials": 10, "seed": 4, "bogus": 1}'
        )
    with pytest.raises(ValueError, match="missing config keys"):
        E.ExperimentConfig.from_json('{"model": "complete-k"}')


def test_config_validation():
    with pytest.raises(ValueError):
        base_cfg(model="nonsense").validate()
    with pytest.raises(ValueError):
        base_cfg(property="girth").validate()
    with pytest.raises(ValueError):
        base_cfg(trials=0).validate()
    with pytest.raises(ValueError):
        base_cfg(model="binomial-hk").validate()
    with pytest.raises(ValueError):
        base_cfg(model="uniform-hk").validate()
    with pytest.raises(ValueError):
        base_cfg(model="file").validate()
    with pytest.raises(ValueError):
        base_cfg(property="pair-adjacent").validate()
    with pytest.raises(ValueError):
        base_cfg(p=1.5).validate()
    with pytest.raises(ValueError):
        base_cfg(p=[0.1, 0.1]).validate()
    base_cfg(p={"scale": "logn2", "c": [0.5, 2.0]}).validate()
    with pytest.raises(ValueError):
        base_cfg(p={"scale": "cubic", "c": [1]}).validate()
    with pytest.raises(ValueError):
        base_cfg(p={"scale": "logn2", "c": [], "x": 1}).validate()


def test_sweep_scales():
    cfg = base_cfg(n=10, k=3, p={"scale": "invnk", "c": [2.0]})
    assert cfg.p_values() == [2.0 / 10**3]
    cfg = base_cfg(n=10, k=3, p={"scale": "lognk1", "c": [1.0]})
    assert cfg.p_values() == [math.log(10) / 100]


# -- run_monte_carlo --------------------------------------------------------------


def test_mc_has_edge_matches_closed_form():
    cfg = base_cfg(n=5, p=[0.05, 0.2, 0.5], trials=4000, seed=11)
    for row in E.run_monte_carlo(cfg):
        truth = 1 - (1 - row.p) ** math.comb(5, 3)
        half = (row.ci_high - row.ci_low) / 2
        assert abs(row.estimate - truth) < 4 * max(half, 1e-9)
        assert row.ci_low <= row.estimate <= row.ci_high


def test_mc_single_trial_p_zero():
    cfg = base_cfg(p=0.0, trials=1)
    row = E.run_monte_carlo(cfg)[0]
    assert row.successes == 0 and row.estimate == 0.0


def test_mc_isolated_mean_statistic():
    cfg = base_cfg(n=10, p=[0.03], property="no-isolated", trials=20_000, seed=21)
    row = E.run_monte_carlo(cfg)[0]
    want = A.expected_isolated(10, 3, 0.03)
    # loose three-sigma band using the binomial-per-vertex variance bound
    se = math.sqrt(10 / cfg.trials)
    assert abs(row.mean_statistic - want) < 3 * se


def test_mc_deterministic_and_order_free():
    cfg = base_cfg(p=[0.2, 0.4], trials=400, seed=33)
    a = E.run_monte_carlo(cfg)
    b = E.run_monte_carlo(cfg)
    assert a == b
    # dropping a sweep point must not change the other point's outcome
    solo = E.run_monte_carlo(base_cfg(p=[0.2], trials=400, seed=33))[0]
    assert solo == a[0]


def test_mc_random_hypergraph_models():
    cfg = base_cfg(model="binomial-hk", n=6, q=0.5, p=[0.4], property="has-edge", trials=3000, seed=5)
    row = E.run_monte_carlo(cfg)[0]
    # each triple contributes an edge independently with probability p*q
    truth = 1 - (1 - 0.4 * 0.5) ** math.comb(6, 3)
    half = (row.ci_high - row.ci_low) / 2
    assert abs(row.estimate - truth) < 4 * half

    cfg = base_cfg(model="uniform-hk", n=6, m=7, p=[0.5], property="has-edge", trials=3000, seed=6)
    row = E.run_monte_carlo(cfg)[0]
    truth = 1 - (1 - 0.5) ** 7
    half = (row.ci_high - row.ci_low) / 2
    assert abs(row.estimate - truth) < 4 * half


def test_mc_pair_adjacent_property():
    cfg = base_cfg(property="pair-adjacent", i=1, j=2, p=[1.0], trials=3000, seed=8)
    row = E.run_monte_carlo(cfg)[0]
    truth = A.pair_edge_law(complete_uniform(6, 3), 1, 2, 1.0)[0]
    half = (row.ci_high - row.ci_low) / 2
    assert abs(row.estimate - (1 - truth)) < 4 * half


def test_mc_file_model(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("n=4\n1 2 3\n1 2 4\n")
    cfg = base_cfg(model="file", hypergraph_file=str(path), n=4, p=[1.0], trials=500, seed=9)
    row = E.run_monte_carlo(cfg)[0]
    assert row.estimate == 1.0  # two hyperedges at p=1 always place edges


# -- thinned sampling path ---------------------------------------------------------


def test_sparse_path_matches_dense_distribution(monkeypatch):
    # force the thinned path on a small instance and compare per-pair
    # multiplicity and edge-count histograms against the dense generator
    n, k, p, trials = 6, 3, 0.35, 20_000
    cfg = base_cfg(n=n, p=[p], trials=trials, seed=17)
    sampler_dense = E._TrialSampler(cfg)
    monkeypatch.setattr(E, "DENSE_LIMIT", 0)
    sampler_sparse = E._TrialSampler(cfg)
    assert sampler_sparse.sparse and not sampler_dense.sparse

    def histograms(sampler, seed):
        mult = np.zeros(6)
        edges = np.zeros(len(complete_uniform(n, k).edges) + 1)
        for t in range(trials):
            g = sampler.sample(p, E.substream(seed, t))
            mult[min(g.multiplicity(1, 2), 5)] += 1
            edges[g.total_edges()] += 1
        return mult / trials, edges / trials

    m_dense, e_dense = histograms(sampler_dense, 0)
    m_sparse, e_sparse = histograms(sampler_sparse, 1)
    assert 0.5 * np.abs(m_dense - m_sparse).sum() < 0.02
    assert 0.5 * np.abs(e_dense - e_sparse).sum() < 0.03


def test_sparse_path_exact_closed_form():
    # huge driver: has-edge probability still matches (1-p)^C(n,3)
    cfg = base_cfg(n=120, p=[1.5e-5], trials=2500, seed=23)
    row = E.run_monte_carlo(cfg)[0]
    truth = 1 - (1 - 1.5e-5) ** math.comb(120, 3)
    half = (row.ci_high - row.ci_low) / 2
    assert abs(row.estimate - truth) < 4 * half


def test_distinct_ranks_properties():
    # the one distinct-rank sampler, called as the thinned path and the
    # random-hypergraph models call it
    rng = np.random.default_rng(3)
    for total, count in [(10, 10), (100, 3), (50, 0), (1_000_000, 200)]:
        ranks = rng.choice(total, count, replace=False, shuffle=False)
        assert len(ranks) == count
        assert len(np.unique(ranks)) == count
        assert np.all((ranks >= 0) & (ranks < total))
    with pytest.raises(ValueError):
        rng.choice(3, 4, replace=False, shuffle=False)


def test_subset_unranker_matches_scalar():
    # the vectorized unranker inverts the scalar colex ranker on every rank
    from mglab.hypergraph import rank_ksubset, unrank_ksubsets

    ranks = np.arange(math.comb(9, 4))
    got = unrank_ksubsets(9, 4, ranks)
    for r in ranks:
        assert rank_ksubset(got[r].tolist()) == r


# -- threshold scan ------------------------------------------------------------------


def test_scan_csv_shape_and_order():
    csv_text = E.threshold_scan("has-edge", "invnk", [0.5, 2.0], [8, 10], 3, 200, 31)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "n,k,scale,c,p,property,trials,successes,estimate,ci_low,ci_high"
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), float(r[3])) for r in rows] == [(8, 0.5), (8, 2.0), (10, 0.5), (10, 2.0)]
    assert all(r[5] == "has-edge" for r in rows)


def test_scan_deterministic():
    args = ("connected", "logn2", [0.5, 3.0], [20], 3, 300, 41)
    assert E.threshold_scan(*args) == E.threshold_scan(*args)


def test_scan_rejects_bad_input():
    with pytest.raises(ValueError):
        E.threshold_scan("has-edge", "nope", [1.0], [8], 3, 10, 1)
    with pytest.raises(ValueError):
        E.threshold_scan("has-edge", "invnk", [], [8], 3, 10, 1)


# -- coupling and shadow completeness --------------------------------------------------


def test_coupling_check_equal_levels():
    rep = E.coupling_check(complete_uniform(8, 3), 0.5, 0.5, 300, 51)
    assert rep.ok and rep.identical == rep.trials


def test_coupling_check_zero_level():
    rep = E.coupling_check(complete_uniform(8, 3), 0.0, 0.3, 300, 52)
    assert rep.ok
    assert rep.frequencies["has-edge"][0] == 0.0


def test_coupling_check_monotone_frequencies():
    rep = E.coupling_check(complete_uniform(10, 3), 0.02, 0.2, 2000, 53)
    assert rep.ok and rep.containment_failures == 0
    for name, (f1, f2) in rep.frequencies.items():
        assert f1 <= f2 + 1e-12, name
    text = str(rep)
    assert "PASS" in text and "containment failures: 0" in text


def test_shadow_completeness_smallest_case():
    row = E.shadow_completeness_estimate(3, 3, 200, 61)
    assert row.estimate == 0.0


def test_shadow_completeness_monotone_in_n():
    # frozen pilot (seed 61): estimates rise steeply in n at k=3
    estimates = [
        E.shadow_completeness_estimate(n, 3, 1500, 61).estimate for n in (6, 10, 14, 18)
    ]
    assert all(b > a - 0.04 for a, b in zip(estimates, estimates[1:]))
    assert estimates[-1] > estimates[0] + 0.3


def test_shadow_completeness_frozen_pilot():
    # pilot (seed 20260809, 10^4 trials): 0.8792 at n=20 -- the analytic
    # benchmark exp(-C(n,2)(2/3)^(n-2)) gives 0.879 -- and 0.9950 at n=30,
    # where the all-pairs-covered limit has effectively arrived
    row20 = E.shadow_completeness_estimate(20, 3, 10_000, 20260809)
    assert row20.estimate == pytest.approx(0.8792, abs=0.001)
    row30 = E.shadow_completeness_estimate(30, 3, 10_000, 20260809)
    assert row30.estimate > 0.99


def test_mc_sweep_monotone_within_ci():
    # monotone-increasing property: estimates may dip along the sweep only
    # inside overlapping confidence intervals
    cfg = base_cfg(n=14, property="connected",
                   p=[0.005, 0.01, 0.02, 0.04, 0.08], trials=1500, seed=71)
    rows = E.run_monte_carlo(cfg)
    for a, b in zip(rows, rows[1:]):
        if b.estimate < a.estimate:
            assert a.ci_low <= b.ci_high and b.ci_low <= a.ci_high


def test_scan_zero_multiplier_kills_increasing_properties():
    csv_text = E.threshold_scan("has-edge", "invnk", [0.0, 1.0], [8], 3, 400, 81)
    first = csv_text.strip().splitlines()[1].split(",")
    assert float(first[3]) == 0.0 and float(first[8]) == 0.0
