"""Multi-hypergraphs on the vertex set {1, ..., n}.

Hyperedges are stored as a flat ordered list (multiset semantics: the same
vertex set may appear several times), each edge kept in strictly increasing
canonical form. The flat list lets samplers and the enumeration oracle index
"the trial belonging to hyperedge i" directly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import IO, Iterable, Sequence

import numpy as np

__all__ = [
    "Hypergraph",
    "complete_uniform",
    "binomial_hypergraph",
    "uniform_hypergraph",
    "read_hypergraph",
    "write_hypergraph",
]


@dataclass(frozen=True)
class Hypergraph:
    """A multi-hypergraph on vertices 1..n.

    ``edges`` is an ordered tuple of hyperedges; each hyperedge is a strictly
    increasing tuple of distinct vertex labels with at least two vertices.
    Instances are immutable and safe to share across worker threads.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        canonical = []
        for edge in edges:
            e = tuple(sorted(edge))
            if len(e) < 2:
                raise ValueError(f"hyperedge {e} has fewer than 2 vertices")
            if len(set(e)) != len(e):
                raise ValueError(f"hyperedge {edge} repeats a vertex")
            if e[0] < 1 or e[-1] > n:
                raise ValueError(f"hyperedge {e} leaves the vertex range 1..{n}")
            canonical.append(e)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(canonical))

    @classmethod
    def _from_canonical(cls, n: int, edges: Iterable[tuple[int, ...]]) -> "Hypergraph":
        """Skip validation for edges already in canonical form (internal)."""
        h = cls.__new__(cls)
        object.__setattr__(h, "n", n)
        object.__setattr__(h, "edges", tuple(edges))
        return h

    def __len__(self) -> int:
        return len(self.edges)

    def multiplicity(self, a: Iterable[int]) -> int:
        """Number of hyperedges equal to the vertex set ``a``."""
        key = tuple(sorted(a))
        return sum(1 for e in self.edges if e == key)

    def degree(self, a: Iterable[int]) -> int:
        """Number of hyperedges containing every vertex of ``a``.

        Counted with multiplicity; the empty set is contained in every
        hyperedge, so ``degree(())`` is the edge count.
        """
        key = frozenset(a)
        return sum(1 for e in self.edges if key.issubset(e))

    def is_submultiset_of(self, other: "Hypergraph") -> bool:
        """True when every hyperedge occurs in ``other`` at least as often."""
        if self.n != other.n:
            return False
        mine = Counter(self.edges)
        theirs = Counter(other.edges)
        return all(theirs[e] >= c for e, c in mine.items())


def complete_uniform(n: int, k: int) -> Hypergraph:
    """The simple hypergraph of all k-subsets of {1, ..., n}."""
    check_nk(n, k)
    return Hypergraph._from_canonical(n, combinations(range(1, n + 1), k))


def binomial_hypergraph(n: int, k: int, q: float, rng: np.random.Generator) -> Hypergraph:
    """Include each k-subset of {1, ..., n} independently with probability q.

    Sampled as a binomial count of edges followed by a uniform choice of that
    many distinct subset ranks, which has the same law without touching all
    C(n, k) subsets.
    """
    return uniform_hypergraph(n, k, binomial_edge_count(n, k, q, rng), rng)


def binomial_edge_count(n: int, k: int, q: float, rng: np.random.Generator) -> int:
    """The first draw of ``binomial_hypergraph``: its number of edges,
    Bin(C(n, k), q). Given it, the subsets are ``uniform_hypergraph``'s,
    drawn next from the same stream."""
    total = check_nk(n, k)
    check_probability(q, "q")
    return int(rng.binomial(total, q))


def uniform_hypergraph(n: int, k: int, m: int, rng: np.random.Generator) -> Hypergraph:
    """Exactly m distinct k-subsets, uniform over all such collections."""
    total = check_nk(n, k)
    if not 0 <= m <= total:
        raise ValueError(f"edge count {m} outside 0..C({n},{k})={total}")
    return _distinct_subsets(n, k, total, m, rng)


def _distinct_subsets(n: int, k: int, total: int, count: int, rng: np.random.Generator) -> Hypergraph:
    """``count`` distinct k-subsets, uniform, in colex order. Floyd's
    algorithm (or a tail shuffle when count is a large share of total) in
    ``Generator.choice`` never materializes a huge rank space."""
    ranks = np.sort(rng.choice(total, count, replace=False, shuffle=False))
    if total <= 20_000:
        table = _colex_table(n, k)
        return Hypergraph._from_canonical(n, [table[r] for r in ranks.tolist()])
    return Hypergraph._from_canonical(n, map(tuple, unrank_ksubsets(n, k, ranks).tolist()))


def unrank_ksubsets(n: int, k: int, ranks: np.ndarray) -> np.ndarray:
    """The k-subsets of 1..n with the given colexicographic ranks, one
    increasing row each.

    Inverse of rank = sum_i C(member_i - 1, i) over the sorted 1-based
    members: from i = k down, member_i - 1 is the largest c with
    C(c, i) <= the remaining rank. At i = 1 that c is the rank itself.
    """
    r = np.asarray(ranks, dtype=np.int64).astype(np.uint64)
    out = np.empty((len(r), k), dtype=np.int64)
    tables = _binomial_tables(n, k)
    for i in range(k, 1, -1):
        table = tables[i - 1]
        c = _largest_at_most(table, r, i)
        r -= table[c]
        out[:, i - 1] = c + 1
    out[:, 0] = r + 1
    return out


def _largest_at_most(table: np.ndarray, r: np.ndarray, i: int) -> np.ndarray:
    """For each r, the largest c with table[c] = C(c, i) <= r (i >= 2).

    C(c, i) <= (c - (i-1)/2)^i / i! (arithmetic against geometric mean of
    c, c-1, ..., c-i+1), so solving the right side for r gives an estimate
    that is at most the answer, and within one of it unless i is a large
    share of c. One step up against the exact table fixes it; the rows it
    leaves wrong, rounding included, are searched.
    """
    top = len(table) - 1
    # log(i!) in Python: i! itself overflows a float from i = 171.
    estimate = np.exp((np.log(np.maximum(r, 1)) + math.lgamma(i + 1)) / i) + (i - 1) / 2
    c = np.clip(estimate, i - 1, top - 1).astype(np.int64)
    c += table[c + 1] <= r
    missed = (table[c] > r) | (table[np.minimum(c + 1, top)] <= r)
    if missed.any():
        c[missed] = np.searchsorted(table, r[missed], side="right") - 1
    return c


@lru_cache(maxsize=32)
def _binomial_tables(n: int, k: int) -> tuple[np.ndarray, ...]:
    """C(c, i) for c = 0..n, one uint64 table per i = 1..k, capped at
    2^64 - 1 (ranks are int64, so a capped entry is never selected)."""
    cap = np.iinfo(np.uint64).max
    return tuple(
        np.array([min(math.comb(c, i), cap) for c in range(n + 1)], dtype=np.uint64)
        for i in range(1, k + 1)
    )


@lru_cache(maxsize=32)
def _colex_table(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-subsets of 1..n indexed by colex rank (small spaces only)."""
    return tuple(map(tuple, unrank_ksubsets(n, k, np.arange(math.comb(n, k))).tolist()))


def rank_ksubset(subset: Sequence[int]) -> int:
    """Colexicographic rank of a strictly increasing 1-based k-subset."""
    return sum(math.comb(v - 1, i + 1) for i, v in enumerate(subset))


def check_nk(n: int, k: int) -> int:
    """Reject an edge size outside 2..n; return C(n, k)."""
    if not 2 <= k <= n:
        raise ValueError(f"edge size k={k} outside 2..n={n}")
    return math.comb(n, k)


def check_probability(value: float, name: str) -> None:
    """Reject a probability outside [0, 1], NaN included."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def check_pair(i: int, j: int, n: int | None = None) -> None:
    """Reject a vertex pair that is not two distinct vertices of 1..n."""
    if i == j or min(i, j) < 1 or (n is not None and max(i, j) > n):
        raise ValueError(f"vertex pair ({i}, {j}) must be two distinct vertices of 1..{n or 'n'}")


def write_hypergraph(h: Hypergraph, f: IO[str]) -> None:
    """Serialize: header ``n=<n>``, then one hyperedge per line."""
    f.write(f"n={h.n}\n")
    for e in h.edges:
        f.write(" ".join(str(v) for v in e) + "\n")


def read_hypergraph(f: IO[str]) -> Hypergraph:
    header = f.readline().strip()
    if not header.startswith("n="):
        raise ValueError(f"expected header 'n=<n>', got {header!r}")
    n = int(header[2:])
    edges = []
    for line in f:
        line = line.strip()
        if line:
            edges.append([int(tok) for tok in line.split()])
    return Hypergraph(n, edges)
