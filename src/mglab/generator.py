"""Samplers for the hyperedge-driven random multigraph.

One graph is generated in two phases: first every hyperedge independently
picks one of its doubletons uniformly at random (the shadow), then one coin
of bias p per chosen doubleton decides which of them become edges. The RNG
consumption schedule is fixed and part of the reproducibility contract:
``len(h)`` bounded integer draws for the doubletons, then ``len(h)`` uniform
draws for the coins, in hyperedge list order. ``generate`` is therefore
bit-identical to ``realize(sample_shadow(h, rng), p, rng)`` on a shared
stream.

All samplers are pure functions of the supplied generator's stream state;
parallel trials should each receive an independent stream spawned from
(master seed, trial index).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .hypergraph import Hypergraph, check_probability
from .multigraph import Multigraph

__all__ = [
    "ShadowSelection",
    "sample_shadow",
    "realize",
    "generate",
    "coupled_generate",
    "coupled_generate_nested",
]


@dataclass(frozen=True)
class ShadowSelection:
    """One doubleton per hyperedge of the source hypergraph, in edge order."""

    n: int
    doubletons: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.doubletons)


@lru_cache(maxsize=64)
def _local_pairs(k: int) -> np.ndarray:
    """Index pairs (a, b), a < b, of a size-k hyperedge, lexicographic."""
    return np.array(list(combinations(range(k), 2)), dtype=np.int64)


def _choice_table(h: Hypergraph):
    """Per-hypergraph doubleton lookup, memoized on the (immutable) instance.

    Uniform hypergraphs keep an m-by-k member array; choice r of hyperedge i
    is members[i, local_pairs[r]]. Mixed edge sizes fall back to a flattened
    (offsets, u, v) table.
    """
    cached = getattr(h, "_mglab_choices", None)
    if cached is not None:
        return cached
    sizes = {len(e) for e in h.edges}
    if len(sizes) == 1:
        members = np.array(h.edges, dtype=np.int64)
        table = ("uniform", members, _local_pairs(sizes.pop()), np.arange(len(h.edges)))
    else:
        counts = []
        us: list[int] = []
        vs: list[int] = []
        for edge in h.edges:
            pairs = list(combinations(edge, 2))
            counts.append(len(pairs))
            for a, b in pairs:
                us.append(a)
                vs.append(b)
        num = np.array(counts, dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(num)[:-1])) if counts else num
        table = ("flat", num, starts, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64))
    object.__setattr__(h, "_mglab_choices", table)
    return table


def _draw_doubletons(h: Hypergraph, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Phase one: independent uniform doubleton per hyperedge (exact, via
    bounded integer draws unranked against the choice table)."""
    m = len(h.edges)
    if m == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    table = _choice_table(h)
    if table[0] == "uniform":
        _, members, pairs, rows = table
        local = pairs[rng.integers(0, len(pairs), size=m)]
        return members[rows, local[:, 0]], members[rows, local[:, 1]]
    _, num, starts, us, vs = table
    rows = starts + rng.integers(0, num)
    return us[rows], vs[rows]


def sample_shadow(h: Hypergraph, rng: np.random.Generator) -> ShadowSelection:
    """Choose, independently for each hyperedge, a uniform doubleton from it."""
    u, v = _draw_doubletons(h, rng)
    return ShadowSelection(h.n, tuple(zip(u.tolist(), v.tolist())))


def realize(s: ShadowSelection, p: float, rng: np.random.Generator) -> Multigraph:
    """Keep each chosen doubleton as an edge independently with probability p."""
    check_probability(p, "p")
    keep = rng.random(len(s.doubletons)) < p
    return Multigraph.from_pairs(s.n, (d for d, k in zip(s.doubletons, keep) if k))


def generate(h: Hypergraph, p: float, rng: np.random.Generator) -> Multigraph:
    """Sample one multigraph: a uniform doubleton per hyperedge, kept with
    probability p, multiplicities accumulating over hyperedges."""
    check_probability(p, "p")
    u, v = _draw_doubletons(h, rng)
    keep = rng.random(len(u)) < p
    return Multigraph._from_arrays(h.n, u[keep], v[keep])


def coupled_generate(
    h: Hypergraph, p1: float, p2: float, rng: np.random.Generator
) -> tuple[Multigraph, Multigraph]:
    """Sample (G, G') with G ~ level p1, G' ~ level p2 and G a subgraph of G'.

    Both graphs share one shadow and one batch of level-p1 coins; each failed
    doubleton is then upgraded independently with probability
    (p2 - p1) / (1 - p1), so the union succeeds at rate exactly p2.
    """
    check_probability(p1, "p1")
    check_probability(p2, "p2")
    if p1 > p2:
        raise ValueError(f"need p1 <= p2, got {p1} > {p2}")
    u, v = _draw_doubletons(h, rng)
    m = len(u)
    base = rng.random(m) < p1
    upgrade_draw = rng.random(m)
    p_up = 0.0 if p1 >= 1.0 else (p2 - p1) / (1.0 - p1)
    upgraded = base | (upgrade_draw < p_up)
    return (Multigraph._from_arrays(h.n, u[base], v[base]),
            Multigraph._from_arrays(h.n, u[upgraded], v[upgraded]))


def coupled_generate_nested(
    h1: Hypergraph, h2: Hypergraph, p: float, rng: np.random.Generator
) -> tuple[Multigraph, Multigraph]:
    """Sample (G, G') with G driven by h1, G' by h2 >= h1, and G inside G'.

    G is generated from h1; the hyperedges of h2 minus h1 (as multisets) then
    contribute independent extra doubletons and coins on top of it.
    """
    check_probability(p, "p")
    if h1.n != h2.n:
        raise ValueError(f"vertex counts differ: {h1.n} vs {h2.n}")
    if not h1.is_submultiset_of(h2):
        raise ValueError("h1 is not a sub-multiset of h2")
    surplus = Counter(h2.edges)
    surplus.subtract(Counter(h1.edges))
    extra_edges = [e for e, c in surplus.items() for _ in range(c)]

    u1, v1 = _draw_doubletons(h1, rng)
    keep1 = rng.random(len(u1)) < p
    u1, v1 = u1[keep1], v1[keep1]

    # surplus edges come out of h2 already canonical
    extra = Hypergraph._from_canonical(h2.n, extra_edges)
    u2, v2 = _draw_doubletons(extra, rng)
    keep2 = rng.random(len(u2)) < p
    return Multigraph._from_arrays(h1.n, u1, v1), Multigraph._from_arrays(
        h2.n, np.concatenate((u1, u2[keep2])), np.concatenate((v1, v2[keep2])))

