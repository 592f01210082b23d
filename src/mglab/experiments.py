"""Monte Carlo harness and threshold-scan experiments.

Reproducibility contract: every trial runs on its own RNG stream spawned
from the master seed by a counter-mode key (sweep index, trial index), so
adding sweep points or reordering workers never perturbs existing results,
and reruns with an identical config produce byte-identical CSV.

For the built-in driving-hypergraph models the harness thins before it
materializes: the number of kept hyperedge trials is Bin(#trials, p_eff),
the kept trials are a uniform subset, and each contributes one uniform
doubleton. That is the same multigraph law as materializing the hypergraph
and running the generator, but it stays cheap when C(n, k) has millions of
hyperedges and p sits at threshold scale. Small instances and explicit
hypergraph files take the dense generator path.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Sequence

import numpy as np

from . import generator
from .hypergraph import (
    Hypergraph,
    binomial_hypergraph,
    check_nk,
    check_probability,
    complete_uniform,
    read_hypergraph,
    unrank_ksubsets,
    uniform_hypergraph,
)
from .multigraph import PROPERTIES, Multigraph, property_evaluator

__all__ = [
    "ExperimentConfig",
    "TrialSummary",
    "CouplingReport",
    "run_monte_carlo",
    "threshold_scan",
    "coupling_check",
    "shadow_completeness_estimate",
    "wilson_interval",
    "substream",
    "SCALE_FUNCTIONS",
    "MODELS",
    "check_model",
    "build_hypergraph",
]

Z95 = 1.959963984540054

MODELS = ("complete-k", "binomial-hk", "uniform-hk", "file")
# The parameter each random or file model cannot do without.
_MODEL_PARAMETER = {"binomial-hk": "q", "uniform-hk": "m", "file": "hypergraph_file"}

# Threshold scale functions: p = scale(c, n, k).
SCALE_FUNCTIONS = {
    "invnk": lambda c, n, k: c / n**k,
    "invnk1": lambda c, n, k: c / n ** (k - 1),
    "logn2": lambda c, n, k: c * math.log(n) / n**2,
    "lognk1": lambda c, n, k: c * math.log(n) / n ** (k - 1),
}

# Above this many hyperedges the built-in models switch to the thinned
# sampling path instead of materializing the hypergraph.
DENSE_LIMIT = 20_000

# Ranks of k-subsets are int64, so rank spaces must stay below 2^63.
RANK_LIMIT = 2**63


def check_model(spec) -> int | None:
    """Check the driving-hypergraph model of ``spec`` and its parameters.

    ``spec`` is any object with ``model``, ``n``, ``k``, ``q``, ``m`` and
    ``hypergraph_file`` attributes: an ExperimentConfig or parsed CLI
    arguments. Returns C(n, k) for the built-in models, None for a file.
    """
    if spec.model not in MODELS:
        raise ValueError(f"unknown model {spec.model!r}; choose from {MODELS}")
    needed = _MODEL_PARAMETER.get(spec.model)
    if needed is not None and getattr(spec, needed) is None:
        raise ValueError(f"model {spec.model} needs {needed}")
    if spec.model == "file":
        return None
    if spec.n is None:
        raise ValueError(f"model {spec.model} needs n")
    total = check_nk(spec.n, spec.k)
    if total >= RANK_LIMIT:
        raise ValueError(f"C({spec.n},{spec.k}) = {total} hyperedges is not below 2^63")
    if spec.model == "binomial-hk":
        check_probability(spec.q, "q")
    if spec.model == "uniform-hk" and not 0 <= spec.m <= total:
        raise ValueError(f"edge count {spec.m} outside 0..C({spec.n},{spec.k})={total}")
    return total


def build_hypergraph(spec, rng: np.random.Generator) -> Hypergraph:
    """The driving hypergraph of a ``spec`` that ``check_model`` has passed;
    the random models draw it from ``rng``."""
    if spec.model == "file":
        with open(spec.hypergraph_file) as f:
            return read_hypergraph(f)
    if spec.model == "complete-k":
        return complete_uniform(spec.n, spec.k)
    if spec.model == "binomial-hk":
        return binomial_hypergraph(spec.n, spec.k, spec.q, rng)
    return uniform_hypergraph(spec.n, spec.k, spec.m, rng)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (master seed, counter key)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval; stable when the estimate sits near 0 or 1."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # The score interval always contains phat; rounding must not break that
    # at the 0- and all-success boundaries.
    return min(max(0.0, center - half), phat), max(min(1.0, center + half), phat)


@dataclass(frozen=True)
class TrialSummary:
    """Aggregate of one sweep point."""

    p: float
    successes: int
    trials: int
    estimate: float
    ci_low: float
    ci_high: float
    mean_statistic: float | None = None


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# JSON types of the config keys that are not integers.
_FIELD_TYPES = {"model": str, "property": str, "hypergraph_file": str, "q": (int, float),
                "p": (int, float, list, dict)}


@dataclass
class ExperimentConfig:
    """Declarative Monte Carlo experiment.

    ``p`` is a single probability, an explicit list, or a multiplier sweep
    {"scale": <invnk|invnk1|logn2|lognk1>, "c": [multipliers]}. ``q`` and
    ``m`` parameterize the random-hypergraph models; ``i``/``j`` name the
    pair for the pair-adjacent property.
    """

    model: str
    n: int
    k: int
    p: float | list[float] | dict
    property: str
    trials: int
    seed: int
    q: float | None = None
    m: int | None = None
    hypergraph_file: str | None = None
    i: int | None = None
    j: int | None = None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        spec = {f.name: f for f in fields(cls)}
        unknown = set(data) - set(spec)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {name for name, f in spec.items() if f.default is MISSING} - set(data)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        for key, value in data.items():
            if value is None and spec[key].default is None:
                continue
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES.get(key, int)):
                raise ValueError(f"config key {key!r} has the wrong type: {value!r}")
        return cls(**data)

    def validate(self) -> None:
        """Check the config; a run checks the pair against its graphs' n."""
        check_model(self)
        property_evaluator(self.property, None, self.i, self.j)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        for p in self.p_values():
            check_probability(p, "p")

    def p_values(self) -> list[float]:
        if isinstance(self.p, dict):
            extra = set(self.p) - {"scale", "c"}
            if extra:
                raise ValueError(f"unknown sweep keys: {sorted(extra)}")
            name = self.p.get("scale")
            scale = SCALE_FUNCTIONS.get(name) if isinstance(name, str) else None
            if scale is None:
                raise ValueError(f"unknown scale {self.p.get('scale')!r}")
            cs = self.p.get("c")
            if not isinstance(cs, (list, tuple)) or not cs or not all(map(_is_number, cs)):
                raise ValueError("sweep needs a non-empty list of numbers under 'c'")
            try:
                values = [scale(c, self.n, self.k) for c in cs]
            except ArithmeticError as exc:
                raise ValueError(f"scale {name} fails at n={self.n}, k={self.k}: {exc}")
        elif isinstance(self.p, (list, tuple)):
            if not all(map(_is_number, self.p)):
                raise ValueError(f"swept p values must be numbers, got {self.p!r}")
            values = [float(x) for x in self.p]
        else:
            values = [float(self.p)]
        if len(set(values)) != len(values):
            raise ValueError("sweep p values must be distinct")
        return values


class _TrialSampler:
    """Per-config multigraph sampler choosing the dense or thinned path.

    ``cfg`` is anything ``check_model`` accepts and has passed: an
    ExperimentConfig or parsed ``generate`` arguments.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.total = None if cfg.model == "file" else math.comb(cfg.n, cfg.k)
        self.sparse = self.total is not None and self.total > DENSE_LIMIT
        self.fixed: Hypergraph | None = None
        if cfg.model in ("complete-k", "file") and not self.sparse:
            self.fixed = build_hypergraph(cfg, None)
        # Vertex count of the sampled graphs; a file names its own.
        self.n = cfg.n if self.fixed is None else self.fixed.n

    def sample(self, p: float, rng: np.random.Generator) -> Multigraph:
        cfg = self.cfg
        if self.sparse:
            if cfg.model == "complete-k":
                count = int(rng.binomial(self.total, p))
            elif cfg.model == "binomial-hk":
                count = int(rng.binomial(self.total, p * cfg.q))
            else:
                count = int(rng.binomial(cfg.m, p))
            return self._thinned(count, rng)
        h = self.fixed if self.fixed is not None else build_hypergraph(cfg, rng)
        return generator.generate(h, p, rng)

    def _thinned(self, count: int, rng: np.random.Generator) -> Multigraph:
        """``count`` distinct uniform k-subsets, one uniform doubleton each."""
        cfg = self.cfg
        ranks = rng.choice(self.total, count, replace=False, shuffle=False)
        members = unrank_ksubsets(cfg.n, cfg.k, ranks)
        pairs = generator._local_pairs(cfg.k)
        local = pairs[rng.integers(0, len(pairs), size=count)]
        rows = np.arange(count)
        u = members[rows, local[:, 0]]
        v = members[rows, local[:, 1]]
        return Multigraph._from_arrays(cfg.n, u, v)


def run_monte_carlo(cfg: ExperimentConfig) -> list[TrialSummary]:
    """Estimate P(property) at every swept p; fresh random hypergraph per
    trial for the random-hypergraph models, Wilson 95% intervals."""
    cfg.validate()
    sampler = _TrialSampler(cfg)
    evaluate = property_evaluator(cfg.property, sampler.n, cfg.i, cfg.j)
    out = []
    for p_idx, p in enumerate(cfg.p_values()):
        successes = 0
        stat_sum = 0.0
        have_stat = False
        for trial in range(cfg.trials):
            rng = substream(cfg.seed, p_idx, trial)
            g = sampler.sample(p, rng)
            ok, stat = evaluate(g)
            successes += ok
            if stat is not None:
                stat_sum += stat
                have_stat = True
        lo, hi = wilson_interval(successes, cfg.trials)
        out.append(
            TrialSummary(
                p=p,
                successes=successes,
                trials=cfg.trials,
                estimate=successes / cfg.trials,
                ci_low=lo,
                ci_high=hi,
                mean_statistic=stat_sum / cfg.trials if have_stat else None,
            )
        )
    return out


def summaries_to_csv(rows: Sequence[TrialSummary]) -> str:
    buf = io.StringIO()
    buf.write("p,successes,trials,estimate,ci_low,ci_high,mean_statistic\n")
    for r in rows:
        stat = "" if r.mean_statistic is None else repr(r.mean_statistic)
        buf.write(
            f"{r.p!r},{r.successes},{r.trials},{r.estimate!r},{r.ci_low!r},{r.ci_high!r},{stat}\n"
        )
    return buf.getvalue()


def threshold_scan(
    property_name: str,
    scale: str,
    c_list: Sequence[float],
    n_list: Sequence[int],
    k: int,
    trials: int,
    seed: int,
    model: str = "complete-k",
    q: float | None = None,
    m: int | None = None,
) -> str:
    """Phase-transition scan; returns CSV ordered by (n, c).

    Every (n, c) cell is an independent Monte Carlo estimate at
    p = scale(c, n, k), each n getting its own sweep of multipliers.
    """
    if scale not in SCALE_FUNCTIONS:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALE_FUNCTIONS)}")
    if not c_list:
        raise ValueError("empty multiplier list")
    buf = io.StringIO()
    buf.write("n,k,scale,c,p,property,trials,successes,estimate,ci_low,ci_high\n")
    for n in n_list:
        cfg = ExperimentConfig(
            model=model,
            n=n,
            k=k,
            p={"scale": scale, "c": list(c_list)},
            property=property_name,
            trials=trials,
            seed=seed,
            q=q,
            m=m,
        )
        for c, row in zip(c_list, run_monte_carlo(cfg)):
            buf.write(
                f"{n},{k},{scale},{c!r},{row.p!r},{property_name},{row.trials},"
                f"{row.successes},{row.estimate!r},{row.ci_low!r},{row.ci_high!r}\n"
            )
    return buf.getvalue()


@dataclass(frozen=True)
class CouplingReport:
    """Outcome of a coupled-generation audit."""

    trials: int
    p1: float
    p2: float
    containment_failures: int
    identical: int
    frequencies: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.containment_failures == 0

    def __str__(self) -> str:
        lines = [
            f"coupled trials: {self.trials} at p1={self.p1}, p2={self.p2}",
            f"containment failures: {self.containment_failures}",
            f"identical graphs: {self.identical}",
        ]
        for name, (f1, f2) in self.frequencies.items():
            lines.append(f"P({name}): {f1:.6f} @p1 <= {f2:.6f} @p2")
        lines.append("PASS" if self.ok else "FAIL: containment violated")
        return "\n".join(lines)


def coupling_check(
    h: Hypergraph, p1: float, p2: float, trials: int, seed: int
) -> CouplingReport:
    """Audit the shared-shadow coupling: the level-p1 graph must embed in
    the level-p2 graph in every trial, and the empirical frequency of each
    built-in monotone property must not drop when p rises."""
    if p1 > p2:
        raise ValueError(f"need p1 <= p2, got {p1} > {p2}")
    monotone = {name: entry.evaluate for name, entry in PROPERTIES.items() if entry.increasing}
    failures = 0
    identical = 0
    hits1 = dict.fromkeys(monotone, 0)
    hits2 = dict.fromkeys(monotone, 0)
    for trial in range(trials):
        rng = substream(seed, trial)
        g1, g2 = generator.coupled_generate(h, p1, p2, rng)
        if not g1.is_subgraph(g2):
            failures += 1
        if g1.edge_mult == g2.edge_mult:
            identical += 1
        for name, evaluate in monotone.items():
            hits1[name] += evaluate(g1)[0]
            hits2[name] += evaluate(g2)[0]
    freqs = {name: (hits1[name] / trials, hits2[name] / trials) for name in monotone}
    return CouplingReport(
        trials=trials,
        p1=p1,
        p2=p2,
        containment_failures=failures,
        identical=identical,
        frequencies=freqs,
    )


def shadow_completeness_estimate(n: int, k: int, trials: int, seed: int) -> TrialSummary:
    """Fraction of sampled shadows of the complete k-uniform hypergraph that
    cover every vertex pair at least once."""
    if not 3 <= k <= n:
        raise ValueError(f"need n >= k >= 3, got n={n}, k={k}")
    h = complete_uniform(n, k)
    want = math.comb(n, 2)
    successes = 0
    for trial in range(trials):
        rng = substream(seed, trial)
        shadow = generator.sample_shadow(h, rng)
        if len(set(shadow.doubletons)) == want:
            successes += 1
    lo, hi = wilson_interval(successes, trials)
    return TrialSummary(
        p=1.0,
        successes=successes,
        trials=trials,
        estimate=successes / trials,
        ci_low=lo,
        ci_high=hi,
    )
