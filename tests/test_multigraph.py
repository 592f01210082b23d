import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mglab.multigraph import (
    PROPERTIES,
    Multigraph,
    is_subgraph,
    property_evaluator,
    read_multigraph,
    write_multigraph,
)


def random_multigraph(rng, n=5, max_edges=8):
    pairs = []
    for _ in range(rng.integers(0, max_edges + 1)):
        i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        pairs.append((int(i), int(j)))
    return Multigraph.from_pairs(n, pairs)


def test_validation():
    with pytest.raises(ValueError):
        Multigraph(3, {(1, 1): 1})
    with pytest.raises(ValueError):
        Multigraph(3, {(1, 4): 1})
    with pytest.raises(ValueError):
        Multigraph(3, {(1, 2): 0})


def test_pairs_normalized_and_merged():
    g = Multigraph(4, {(2, 1): 2})
    assert g.edge_mult == {(1, 2): 2}
    g2 = Multigraph.from_pairs(4, [(2, 1), (1, 2), (3, 4)])
    assert g2.edge_mult == {(1, 2): 2, (3, 4): 1}
    assert g2.total_edges() == 3


def test_is_simple():
    assert Multigraph(3).is_simple()
    assert Multigraph(3, {(1, 2): 1}).is_simple()
    assert not Multigraph(3, {(1, 2): 2}).is_simple()


def test_is_connected():
    assert Multigraph(1).is_connected()
    assert Multigraph(3, {(1, 2): 1, (2, 3): 1}).is_connected()
    assert not Multigraph(3, {(1, 2): 1}).is_connected()
    assert Multigraph(0).is_connected()
    assert not Multigraph(2).is_connected()


def test_count_isolated():
    assert Multigraph(4).count_isolated() == 4
    assert Multigraph(3, {(1, 2): 1}).count_isolated() == 1
    complete = Multigraph(4, {(i, j): 1 for i in range(1, 5) for j in range(i + 1, 5)})
    assert complete.count_isolated() == 0


def test_count_triangles():
    tri = Multigraph(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
    assert tri.count_triangles() == 1
    assert Multigraph(3, {(1, 2): 5}).count_triangles() == 0
    k4 = Multigraph(4, {(i, j): 1 for i in range(1, 5) for j in range(i + 1, 5)})
    assert k4.count_triangles() == 4


def test_triangles_ignore_multiplicity():
    rng = np.random.default_rng(0)
    for _ in range(60):
        g = random_multigraph(rng)
        simple = Multigraph(g.n, {pair: 1 for pair in g.edge_mult})
        assert g.count_triangles() == simple.count_triangles()


def test_degree():
    g = Multigraph(5, {(1, 2): 3})
    assert g.degree(1) == 3
    assert g.degree(4) == 0
    star = Multigraph.from_pairs(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    assert star.degree(1) == 4
    with pytest.raises(ValueError):
        g.degree(6)


def test_connected_implies_no_isolated():
    rng = np.random.default_rng(1)
    for _ in range(100):
        g = random_multigraph(rng, n=int(rng.integers(2, 7)))
        if g.is_connected():
            assert g.count_isolated() == 0


def test_is_subgraph():
    g = Multigraph(4, {(1, 2): 2, (3, 4): 1})
    assert Multigraph(4).is_subgraph(g)
    assert g.is_subgraph(g)
    assert not g.is_subgraph(Multigraph(4, {(1, 2): 1, (3, 4): 1}))
    with pytest.raises(ValueError):
        g.is_subgraph(Multigraph(5))


def test_subgraph_partial_order():
    rng = np.random.default_rng(2)
    graphs = [random_multigraph(rng) for _ in range(12)]
    for a in graphs:
        assert is_subgraph(a, a)
        for b in graphs:
            if is_subgraph(a, b) and is_subgraph(b, a):
                assert a.edge_mult == b.edge_mult
            for c in graphs:
                if is_subgraph(a, b) and is_subgraph(b, c):
                    assert is_subgraph(a, c)


def test_serialization_roundtrip():
    g = Multigraph(5, {(1, 2): 2, (2, 5): 1, (1, 4): 3})
    buf = io.StringIO()
    write_multigraph(g, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "n=5"
    assert text.splitlines()[1:] == ["1 2 2", "1 4 3", "2 5 1"]
    back = read_multigraph(io.StringIO(text))
    assert back.n == g.n and back.edge_mult == g.edge_mult


@st.composite
def kept_pairs(draw):
    """A vertex count 0..30 and up to 60 doubletons u < v, repeats allowed."""
    n = draw(st.integers(0, 30))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda t: t[0] != t[1])
    return n, [tuple(sorted(t)) for t in draw(st.lists(pair, max_size=60))]


def _as_arrays(pairs):
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    return u, v


@settings(max_examples=300, deadline=None)
@given(kept_pairs(), st.booleans())
def test_array_backed_graph_agrees_with_dict_backed(case, derive_first):
    n, pairs = case
    by_dict = Multigraph.from_pairs(n, pairs)
    by_arrays = Multigraph._from_arrays(n, *_as_arrays(pairs))
    if derive_first:
        # the array queries must not depend on whether the dict exists yet
        assert by_arrays.edge_mult == by_dict.edge_mult
    for g in (by_dict, by_arrays):
        assert g.total_edges() == len(pairs)
    assert by_arrays.count_isolated() == by_dict.count_isolated()
    assert by_arrays.is_simple() == by_dict.is_simple()
    assert by_arrays.is_connected() == by_dict.is_connected()
    assert by_arrays.count_triangles() == by_dict.count_triangles()
    for a in range(1, n + 1):
        assert by_arrays.degree(a) == by_dict.degree(a)
        for b in range(a + 1, n + 1):
            assert by_arrays.multiplicity(a, b) == by_dict.multiplicity(a, b)
            assert by_arrays.multiplicity(b, a) == by_dict.multiplicity(a, b)
    for name, entry in PROPERTIES.items():
        if entry.pair:
            for i, j in [(1, 2), (2, 1), (1, n), (n - 1, n)] if n >= 3 else []:
                evaluate = property_evaluator(name, n, i, j)
                assert evaluate(by_arrays) == evaluate(by_dict), (name, i, j)
        else:
            assert entry.evaluate(by_arrays) == entry.evaluate(by_dict), name
    assert by_arrays == by_dict
    assert by_arrays.is_subgraph(by_dict) and by_dict.is_subgraph(by_arrays)
    text_dict, text_arrays = io.StringIO(), io.StringIO()
    write_multigraph(by_dict, text_dict)
    write_multigraph(by_arrays, text_arrays)
    assert text_arrays.getvalue() == text_dict.getvalue()


@settings(max_examples=300, deadline=None)
@given(kept_pairs())
def test_array_connectivity_matches_networkx(case):
    nx = pytest.importorskip("networkx")
    n, pairs = case
    g = Multigraph._from_arrays(n, *_as_arrays(pairs))
    reference = nx.Graph()
    reference.add_nodes_from(range(1, n + 1))
    reference.add_edges_from(pairs)
    # networkx leaves the null graph's connectivity undefined
    assert g.is_connected() == (n == 0 or nx.is_connected(reference))


def test_array_connectivity_needs_label_propagation():
    # no isolated vertex and n - 1 edges, yet two components; and a path
    # given from its far end, which takes several rounds of hooking
    two_triangles = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    assert not Multigraph._from_arrays(6, *_as_arrays(two_triangles)).is_connected()
    path = [(a, a + 1) for a in range(50, 0, -1)]
    assert Multigraph._from_arrays(51, *_as_arrays(path)).is_connected()
    zigzag = [(a, 41 - a) for a in range(1, 21)] + [(a + 1, 41 - a) for a in range(1, 20)]
    assert Multigraph._from_arrays(40, *_as_arrays(zigzag)).is_connected()


def test_array_graph_costs_follow_the_edges_not_n():
    # a file driver may name far more vertices than it uses
    n = 10**12
    g = Multigraph._from_arrays(n, *_as_arrays([(1, 2), (5, n), (5, n)]))
    assert g.count_isolated() == n - 4
    assert not g.is_connected() and not g.is_simple()
    assert g.edge_mult == {(1, 2): 1, (5, n): 2}
    assert g.multiplicity(n, 5) == 2
