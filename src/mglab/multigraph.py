"""Labeled multigraphs and the graph properties the model is probed with."""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import IO, Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .hypergraph import check_pair

__all__ = [
    "Multigraph",
    "is_subgraph",
    "read_multigraph",
    "write_multigraph",
    "PROPERTIES",
    "GraphProperty",
    "property_evaluator",
]

Pair = tuple[int, int]


class Multigraph:
    """A multigraph on vertices 1..n without self-loops.

    A graph keeps one of two storages. A graph built in Python (the
    constructor, ``from_pairs``, ``read_multigraph``) holds ``edge_mult``, a
    dict mapping each present unordered pair (an increasing tuple) to its
    positive multiplicity; absent pairs have multiplicity zero. A sampled
    graph holds its kept doubletons as two int64 arrays with u < v
    elementwise, a repeated pair being a parallel edge; its ``edge_mult`` is
    derived from the arrays on first access and then cached. The edge
    count, isolated-vertex and connectivity queries answer from the arrays
    when there are any. Treat instances as immutable: every property check
    is pure.
    """

    n: int
    # Class defaults: a dict-backed graph sets only ``edge_mult``, an
    # array-backed one ``_u`` and ``_v`` (and ``edge_mult`` once derived).
    _u: np.ndarray | None = None
    _v: np.ndarray | None = None

    def __init__(self, n: int, edge_mult: Mapping[Pair, int] | None = None):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        cleaned: dict[Pair, int] = {}
        for (i, j), mult in (edge_mult or {}).items():
            check_pair(i, j, n)
            if mult <= 0:
                raise ValueError(f"multiplicity of ({i},{j}) must be positive, got {mult}")
            key = (i, j) if i < j else (j, i)
            cleaned[key] = cleaned.get(key, 0) + mult
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_mult", cleaned)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Pair]) -> "Multigraph":
        """Build from a stream of (i, j) pairs, accumulating multiplicities."""
        counts = Counter((i, j) if i < j else (j, i) for i, j in pairs)
        g = cls.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edge_mult", dict(counts))
        return g

    @classmethod
    def _from_arrays(cls, n: int, u: np.ndarray, v: np.ndarray) -> "Multigraph":
        """Array-backed graph of the doubletons (u[t], v[t]) (internal: the
        int64 arrays must satisfy 1 <= u < v <= n and are not copied)."""
        g = cls.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "_u", u)
        object.__setattr__(g, "_v", v)
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"Multigraph is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and self.edge_mult == other.edge_mult

    __hash__ = None

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n!r}, edge_mult={self.edge_mult!r})"

    @cached_property
    def edge_mult(self) -> dict[Pair, int]:
        # A non-data descriptor: a dict-backed graph's own attribute shadows
        # it, so this runs only on an array-backed graph, once.
        order = np.lexsort((self._v, self._u))
        u, v = self._u[order], self._v[order]
        first = np.ones(len(u), dtype=bool)
        first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        counts = np.diff(np.flatnonzero(first), append=len(u))
        return dict(zip(zip(u[first].tolist(), v[first].tolist()), counts.tolist()))

    def total_edges(self) -> int:
        if self._u is not None:
            return len(self._u)
        return sum(self.edge_mult.values())

    def multiplicity(self, i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        return self.edge_mult.get(key, 0)

    def is_simple(self) -> bool:
        """True iff no pair carries more than one edge."""
        return all(m == 1 for m in self.edge_mult.values())

    def degree(self, v: int) -> int:
        """Multiplicity-counting degree of vertex v."""
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} outside 1..{self.n}")
        return sum(m for (i, j), m in self.edge_mult.items() if i == v or j == v)

    def count_isolated(self) -> int:
        if self._u is not None:
            # A set of the edge ends: the cost follows the edges, not n.
            return self.n - len(set(self._u.tolist()).union(self._v.tolist()))
        touched: set[int] = set()
        for i, j in self.edge_mult:
            touched.add(i)
            touched.add(j)
        return self.n - len(touched)

    def is_connected(self) -> bool:
        """Connectivity of the underlying simple graph, on all n vertices.

        The empty and single-vertex graphs count as connected.
        """
        if self.n <= 1:
            return True
        if self._u is not None:
            return len(self._u) >= self.n - 1 and _connected(self.n, self._u, self._v)
        if len(self.edge_mult) < self.n - 1:
            return False
        adj: dict[int, list[int]] = {}
        for i, j in self.edge_mult:
            adj.setdefault(i, []).append(j)
            adj.setdefault(j, []).append(i)
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def count_triangles(self) -> int:
        """Vertex triples whose three pairs each carry at least one edge.

        Multiplicities collapse to presence first; a triple counts once no
        matter how many parallel edges sit on its pairs.
        """
        adj: dict[int, set[int]] = {}
        for i, j in self.edge_mult:
            adj.setdefault(i, set()).add(j)
            adj.setdefault(j, set()).add(i)
        # Each triangle is seen once per edge; common neighbours above j
        # would need an ordering pass, dividing by 3 is simpler.
        triple_count = 0
        for i, j in self.edge_mult:
            triple_count += len(adj[i] & adj[j])
        return triple_count // 3

    def is_subgraph(self, other: "Multigraph") -> bool:
        """True iff every pair's multiplicity here is at most its in ``other``."""
        if self.n != other.n:
            raise ValueError(f"vertex counts differ: {self.n} vs {other.n}")
        theirs = other.edge_mult
        return all(theirs.get(pair, 0) >= m for pair, m in self.edge_mult.items())


def _connected(n: int, u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the edges (u, v), at least n - 1 of them, connect all of
    1..n: no vertex untouched, then min-label propagation with pointer
    jumping (Shiloach and Vishkin, *An O(log n) parallel connectivity
    algorithm*, 1982)."""
    touched = np.zeros(n + 1, dtype=bool)
    touched[u] = True
    touched[v] = True
    if np.count_nonzero(touched) < n:
        return False
    # label[x] <= x always, and after the jumping every label is a root.
    label = np.arange(n + 1)
    # Hook each root that an edge leaves onto the smallest root it reaches;
    # at the start every vertex is a root and u < v.
    hi, lo = v, u
    while True:
        np.minimum.at(label, hi, lo)
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped
        lu, lv = label[u], label[v]
        split = lu != lv
        if not split.any():
            return bool((label[1:] == label[1]).all())
        lu, lv = lu[split], lv[split]
        hi, lo = np.maximum(lu, lv), np.minimum(lu, lv)


def is_subgraph(g1: Multigraph, g2: Multigraph) -> bool:
    """Sub-multigraph order: mult_g1(B) <= mult_g2(B) for every pair B."""
    return g1.is_subgraph(g2)


Evaluation = tuple[bool, float | None]


def _isolated(g: Multigraph) -> Evaluation:
    isolated = g.count_isolated()
    return isolated == 0, float(isolated)


def _triangles(g: Multigraph) -> Evaluation:
    count = g.count_triangles()
    return count > 0, float(count)


class GraphProperty(NamedTuple):
    """One entry of the property table."""

    # g -> (holds, statistic or None); a pair property takes (g, i, j).
    evaluate: Callable[..., Evaluation]
    increasing: bool
    pair: bool = False


# The graph properties by name. Methods are called through the instance so
# wrappers installed on the class see every call. The monotone entries come
# in the order ``couple`` reports them.
PROPERTIES: dict[str, GraphProperty] = {
    "has-edge": GraphProperty(lambda g: (g.total_edges() > 0, None), True),
    "connected": GraphProperty(lambda g: (g.is_connected(), None), True),
    "no-isolated": GraphProperty(_isolated, True),
    "triangle-count": GraphProperty(_triangles, True),
    "simple": GraphProperty(lambda g: (g.is_simple(), None), False),
    "pair-adjacent": GraphProperty(lambda g, i, j: (g.multiplicity(i, j) >= 1, None), False, True),
}


def property_evaluator(
    name: str, n: int | None = None, i: int | None = None, j: int | None = None
) -> Callable[[Multigraph], Evaluation]:
    """The table's evaluator for ``name``, bound to the pair (i, j) for a
    pair property; the pair must be two distinct vertices of 1..n."""
    if name not in PROPERTIES:
        raise ValueError(f"unknown property {name!r}; choose from {tuple(PROPERTIES)}")
    evaluate, _, pair = PROPERTIES[name]
    if not pair:
        return evaluate
    if i is None or j is None:
        raise ValueError(f"property {name} needs vertices i and j")
    check_pair(i, j, n)
    return lambda g: evaluate(g, i, j)


def write_multigraph(g: Multigraph, f: IO[str]) -> None:
    """Serialize: header ``n=<n>``, then ``i j mult`` lines in ascending order."""
    f.write(f"n={g.n}\n")
    for (i, j) in sorted(g.edge_mult):
        f.write(f"{i} {j} {g.edge_mult[(i, j)]}\n")


def read_multigraph(f: IO[str]) -> Multigraph:
    header = f.readline().strip()
    if not header.startswith("n="):
        raise ValueError(f"expected header 'n=<n>', got {header!r}")
    n = int(header[2:])
    mult: dict[Pair, int] = {}
    for line in f:
        line = line.strip()
        if line:
            i, j, m = (int(tok) for tok in line.split())
            mult[(i, j)] = m
    return Multigraph(n, mult)
