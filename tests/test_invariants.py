"""Exact invariants against naive oracles, plus the greedy-coloring guarantee."""

import itertools
import random

import pytest

from chiomega.graphs import complete_graph, cycle_graph, empty_graph, random_graph
from chiomega.invariants import (
    BudgetExceeded,
    ColoringCertificate,
    _Counter,
    _exists_clique,
    chromatic_number,
    clique_number,
    greedy_erdos_coloring,
    independence_number,
    is_proper_coloring,
)
from conftest import brute_alpha, brute_chi, brute_first_max_clique, brute_omega, named_graphs


def test_clique_number_against_brute_force():
    for seed in range(30):
        g = random_graph(4 + seed % 7, (0.2, 0.5, 0.8)[seed % 3], seed=seed)
        result = clique_number(g)
        assert result.exact
        assert result.value == brute_omega(g)
        # The witness mask really is a clique of the claimed size.
        members = [v for v in range(g.n) if result.witness >> v & 1]
        assert len(members) == result.value
        assert all(g.has_edge(u, v) for i, u in enumerate(members) for v in members[i + 1:])
        # ... and the first maximum clique in itertools.combinations order.
        assert tuple(members) == brute_first_max_clique(g)


def test_independence_number_against_brute_force():
    for seed in range(30):
        g = random_graph(4 + seed % 7, (0.2, 0.5, 0.8)[seed % 3], seed=100 + seed)
        result = independence_number(g)
        assert result.value == brute_alpha(g)
        members = [v for v in range(g.n) if result.witness >> v & 1]
        assert len(members) == result.value
        assert not any(g.has_edge(u, v) for i, u in enumerate(members) for v in members[i + 1:])
        assert tuple(members) == brute_first_max_clique(g.complement())


def test_exists_clique_against_brute_force():
    # k = 0..3 are decided directly, k >= 4 by the color-sort branch and
    # bound; each is checked on random candidate masks of random graphs.
    rng = random.Random(5)
    for seed in range(60):
        g = random_graph(3 + seed % 10, (0.3, 0.5, 0.7, 0.9)[seed % 4], seed=900 + seed)
        for _ in range(6):
            cand = rng.getrandbits(g.n) | (g.full_mask() if rng.random() < 0.3 else 0)
            verts = [v for v in range(g.n) if cand >> v & 1]
            for k in range(6):
                expected = any(all(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2))
                               for sub in itertools.combinations(verts, k))
                assert _exists_clique(g.adj, cand, k) == expected, (seed, cand, k)


def test_greedy_classes_are_lex_smallest_independent_sets():
    # The combinations oracle is exponential in the set size, so the graphs
    # stay small: on the 23-vertex double Mycielski graph it takes seconds.
    graphs = [random_graph(2 + seed % 8, (0.2, 0.5, 0.8)[seed % 3], seed=600 + seed)
              for seed in range(40)]
    graphs += [g for g in named_graphs().values() if g.n <= 17]
    for g in graphs:
        cert, stats = greedy_erdos_coloring(g, 1)
        remaining = set(range(g.n))
        for color, size in enumerate(stats.extracted_sizes):
            cls = tuple(v for v in range(g.n) if cert.colors[v] == color)
            assert cls == brute_first_max_clique(g.complement(), remaining)
            assert len(cls) == size
            remaining -= set(cls)
        assert not remaining


def test_chromatic_number_against_brute_force():
    for seed in range(20):
        g = random_graph(3 + seed % 5, (0.2, 0.5, 0.8)[seed % 3], seed=200 + seed)
        result = chromatic_number(g)
        assert result.exact
        assert result.value == brute_chi(g)
        assert is_proper_coloring(g, result.witness)
        assert result.witness.num_colors == result.value


def _members(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def test_named_graph_invariants():
    graphs = named_graphs()
    expected = {
        # name: (omega, alpha, chi)
        "k1": (1, 1, 1),
        "k4": (4, 1, 4),
        "k6": (6, 1, 6),
        "c5": (2, 2, 3),
        "c7": (2, 3, 3),
        "path6": (2, 3, 2),
        "petersen": (2, 4, 3),
        "grotzsch": (2, 5, 4),
        "paley13": (3, 3, 5),
        "paley17": (3, 3, 6),
        "two_c5": (2, 4, 3),
        "k33": (2, 3, 2),
    }
    for name, (omega, alpha, chi) in expected.items():
        g = graphs[name]
        assert clique_number(g).value == omega, name
        assert independence_number(g).value == alpha, name
        assert chromatic_number(g).value == chi, name
        # Witnesses are the first maximum sets in itertools.combinations order.
        assert _members(clique_number(g).witness) == brute_first_max_clique(g), name
        assert (_members(independence_number(g).witness)
                == brute_first_max_clique(g.complement())), name


def test_mycielski_raises_chi_but_not_omega():
    g = cycle_graph(5)
    chi = 3
    from chiomega.graphs import mycielski

    for _ in range(2):
        g = mycielski(g)
        chi += 1
        assert clique_number(g).value == 2
        assert chromatic_number(g).value == chi


def test_chi_at_least_omega_everywhere():
    for name, g in named_graphs().items():
        assert chromatic_number(g).value >= clique_number(g).value, name
    for seed in range(20):
        g = random_graph(4 + seed, 0.5, seed=300 + seed)
        if g.n <= 14:
            assert chromatic_number(g).value >= clique_number(g).value


def test_chromatic_budget_degrades_gracefully():
    g = random_graph(14, 0.5, seed=9)
    exact = chromatic_number(g)
    capped = chromatic_number(g, node_budget=1)
    assert capped.value >= exact.value
    assert not capped.exact
    assert is_proper_coloring(g, capped.witness)
    with pytest.raises(ValueError):
        chromatic_number(g, node_budget=-1)


def test_counter_refuses_the_node_past_its_limit():
    counter = _Counter(2)
    counter.tick()
    counter.tick()
    with pytest.raises(BudgetExceeded):
        counter.tick()
    assert counter.count == 2
    with pytest.raises(BudgetExceeded):
        _Counter(0).tick()
    with pytest.raises(ValueError):
        _Counter(-1)


def test_extreme_graphs():
    assert chromatic_number(complete_graph(8)).value == 8
    assert clique_number(empty_graph(8)).value == 1
    assert independence_number(empty_graph(8)).value == 8
    assert chromatic_number(empty_graph(8)).value == 1


def test_is_proper_coloring_detects_conflicts():
    g = cycle_graph(4)
    good = ColoringCertificate(colors=(0, 1, 0, 1), num_colors=2)
    bad = ColoringCertificate(colors=(0, 0, 1, 1), num_colors=2)
    assert is_proper_coloring(g, good)
    assert not is_proper_coloring(g, bad)
    wrong_len = ColoringCertificate(colors=(0, 1, 0), num_colors=2)
    with pytest.raises(ValueError):
        is_proper_coloring(g, wrong_len)


def test_coloring_certificate_validates():
    with pytest.raises(ValueError):
        ColoringCertificate(colors=(0, 1, 2), num_colors=2)


def test_greedy_coloring_contract():
    for seed in range(40):
        g = random_graph(5 + seed % 20, (0.2, 0.5, 0.8)[seed % 3], seed=400 + seed)
        m0 = 1 + seed % 4
        if m0 > g.n:
            m0 = g.n
        cert, stats = greedy_erdos_coloring(g, m0)
        assert is_proper_coloring(g, cert)
        assert stats.m0 == m0
        assert stats.leftover < m0
        assert stats.colors_used == len(stats.extracted_sizes) + stats.leftover
        assert stats.r_observed == min(stats.extracted_sizes)
        bound = -(-g.n // stats.r_observed) + m0
        assert stats.colors_used <= bound
        # Extraction sizes never increase: each set is maximum in what remains.
        assert all(a >= b for a, b in zip(stats.extracted_sizes, stats.extracted_sizes[1:]))


def test_greedy_coloring_m0_validation():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        greedy_erdos_coloring(g, 0)
    with pytest.raises(ValueError):
        greedy_erdos_coloring(g, 6)


def test_greedy_coloring_never_beats_chromatic():
    for seed in range(10):
        g = random_graph(10, 0.5, seed=500 + seed)
        cert, stats = greedy_erdos_coloring(g, 2)
        assert stats.colors_used >= chromatic_number(g).value
