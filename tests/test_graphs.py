"""Bitset graph type, constructions, and graph6 serialization."""

import pytest

from chiomega.graphs import (
    Graph,
    bits,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    from_graph6,
    mycielski,
    paley_graph,
    path_graph,
    random_graph,
    to_graph6,
)
from conftest import petersen_graph


def test_from_edges_basic():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.num_edges() == 3
    assert g.has_edge(1, 0) and g.has_edge(2, 1) and not g.has_edge(0, 2)
    assert g.degree(1) == 2 and g.degree(0) == 1
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edges(0, [])
    with pytest.raises(ValueError):
        from_edges(65, [])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])


def test_adjacency_is_symmetric_and_loop_free():
    g = random_graph(20, 0.5, seed=7)
    for v in range(g.n):
        assert not g.adj[v] >> v & 1
        for u in bits(g.adj[v]):
            assert g.adj[u] >> v & 1


def test_complement_involution_and_edge_count():
    g = random_graph(12, 0.3, seed=3)
    comp = g.complement()
    assert comp.complement() == g
    assert g.num_edges() + comp.num_edges() == 12 * 11 // 2


def test_induced_subgraph():
    g = cycle_graph(5)
    h = g.induced(0b00111)  # vertices 0, 1, 2 of the cycle: a path
    assert h.n == 3
    assert h.edges() == [(0, 1), (1, 2)]


def test_relabeled_preserves_degrees():
    g = path_graph(6)
    perm = [5, 3, 1, 0, 2, 4]
    h = g.relabeled(perm)
    assert sorted(h.degree(v) for v in range(6)) == sorted(g.degree(v) for v in range(6))
    assert h.num_edges() == g.num_edges()
    for bad in ([0, 0, 1], [-1, 0, 1], [0, 1], [0, 1, 2, 3], [0, 1, 3]):
        with pytest.raises(ValueError, match=r"perm must be a permutation of 0\.\.n-1"):
            path_graph(3).relabeled(bad)


def test_add_isolated_and_disjoint_union():
    g = complete_graph(3).add_isolated(2)
    assert g.n == 5 and g.num_edges() == 3
    u = disjoint_union(cycle_graph(4), complete_graph(3))
    assert u.n == 7 and u.num_edges() == 4 + 3
    assert not any(u.has_edge(i, 4 + j) for i in range(4) for j in range(3))


def test_standard_constructions():
    assert complete_graph(5).num_edges() == 10
    assert cycle_graph(6).num_edges() == 6
    assert all(cycle_graph(6).degree(v) == 2 for v in range(6))
    assert path_graph(4).num_edges() == 3
    assert empty_graph(7).num_edges() == 0
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_petersen_shape():
    p = petersen_graph()
    assert p.n == 10 and p.num_edges() == 15
    assert all(p.degree(v) == 3 for v in range(10))


def test_paley_graph_structure():
    for q in (5, 13, 17):
        g = paley_graph(q)
        assert g.n == q
        assert all(g.degree(v) == (q - 1) // 2 for v in range(q))
    with pytest.raises(ValueError):
        paley_graph(7)  # 7 % 4 == 3: adjacency would not be symmetric
    with pytest.raises(ValueError):
        paley_graph(9)  # prime power, not prime


def test_paley_5_is_the_5_cycle():
    g = paley_graph(5)
    assert all(g.degree(v) == 2 for v in range(5))
    seen = {0}
    v = 0
    for _ in range(4):
        v = next(u for u in bits(g.adj[v]) if u not in seen)
        seen.add(v)
    assert len(seen) == 5  # one 5-cycle, not C3 + C2


def test_mycielski_shape():
    g = mycielski(cycle_graph(5))
    assert g.n == 11
    assert g.num_edges() == 3 * 5 + 5  # tripled edges plus apex spokes
    again = mycielski(g)
    assert again.n == 23


def test_random_graph_determinism():
    a = random_graph(15, 0.5, seed=11)
    b = random_graph(15, 0.5, seed=11)
    c = random_graph(15, 0.5, seed=12)
    assert a == b
    assert a != c
    assert random_graph(10, 0.0, seed=1).num_edges() == 0
    assert random_graph(10, 1.0, seed=1).num_edges() == 45
    with pytest.raises(ValueError):
        random_graph(10, 1.5, seed=1)


def test_graph6_known_values():
    # K2's single byte is 63 + 1 = '@' prefixed by n = 2 -> 'A_'.
    assert to_graph6(complete_graph(2)) == "A_"
    assert to_graph6(empty_graph(1)) == "@"
    assert to_graph6(cycle_graph(5)) == "Dhc"
    # 'DLo' is a relabeling of the 5-cycle (the canonical-enumeration labeling).
    g = from_graph6("DLo")
    assert all(g.degree(v) == 2 for v in range(5)) and g.num_edges() == 5
    # From 63 vertices the size is '~' and three 6-bit digits, high first.
    assert to_graph6(empty_graph(62)).startswith("}")
    assert to_graph6(empty_graph(63)).startswith("~??~")
    assert to_graph6(empty_graph(64)).startswith("~?@?")


def test_graph6_roundtrip_random():
    sizes = [1 + seed % 30 for seed in range(25)] + [63, 63, 64, 64]
    for seed, n in enumerate(sizes):
        g = random_graph(n, 0.4, seed=seed)
        assert from_graph6(to_graph6(g)) == g


def test_graph6_rejects_malformed():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("\x01bad")
    with pytest.raises(ValueError):
        from_graph6("A")  # truncated edge bits
    with pytest.raises(ValueError):
        from_graph6("~??")  # >= 63 vertices needs the long form we refuse
