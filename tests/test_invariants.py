"""Exact invariants against naive oracles, plus the greedy-coloring guarantee."""

import gc
import itertools
import random

import pytest

from chiomega import invariants
from chiomega.extremal import _CHI_BUDGET, canonical_graphs, max_ratio_exact
from chiomega.graphs import (complete_graph, cycle_graph, empty_graph, mycielski, paley_graph,
                             random_graph)
from chiomega.invariants import (
    BudgetExceeded,
    ColoringCertificate,
    _chromatic,
    _Counter,
    _dsatur_greedy,
    _exists_clique,
    _max_clique,
    _normalize_colors,
    chromatic_number,
    clique_number,
    greedy_erdos_coloring,
    independence_number,
    is_proper_coloring,
)
from conftest import (brute_alpha, brute_chi, brute_first_max_clique, brute_omega, named_graphs,
                      subset_dp_chi)


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


def _assert_search_from_bounds(g, budget, result):
    # The row-level search, fed the maximum clique and the DSATUR colouring
    # that a caller holds, gives chromatic_number's value, colouring and flag;
    # its colours are 1..k, every one used, so a caller can index classes by them.
    clique = _max_clique(g.adj, g.full_mask())[1]
    k, colors, exact = _chromatic(g.adj, clique, _dsatur_greedy(g.adj, g.n), budget)
    assert (k, exact) == (result.value, result.exact)
    assert sorted(set(colors)) == list(range(1, k + 1))
    assert _normalize_colors(colors) == result.witness


def test_chromatic_number_against_brute_force():
    # Random graphs, and every graph on at most 7 vertices (1,252 classes).
    randoms = [random_graph(3 + seed % 5, (0.2, 0.5, 0.8)[seed % 3], seed=200 + seed)
               for seed in range(20)]
    small = [g for n in range(1, 8) for g in canonical_graphs(n)]
    assert len(small) == 1252
    for g in randoms + small:
        result = chromatic_number(g)
        assert result.exact
        assert result.value == brute_chi(g)
        assert is_proper_coloring(g, result.witness)
        assert result.witness.num_colors == result.value
        _assert_search_from_bounds(g, None, result)


def _mycielski_k2(level):
    g = complete_graph(2)
    for _ in range(level):
        g = mycielski(g)
    return g


def _assert_certified(g, chi, result):
    assert result.exact
    assert result.value == chi
    assert is_proper_coloring(g, result.witness)
    assert result.witness.num_colors == chi


def test_chromatic_number_against_subset_dp():
    # On 8..11 vertices the branch and bound really searches (random graphs
    # on fewer vertices mostly close at the greedy bound); isolated padding
    # keeps chi but weakens the ceil(n / alpha) bound, so the search runs longer.
    graphs = [random_graph(n, p, seed=700 + 10 * n + k)
              for n in range(8, 12) for k, p in enumerate((0.2, 0.35, 0.5, 0.65, 0.8))]
    graphs.append(_mycielski_k2(2))  # Grötzsch, chi 4
    for g in graphs:
        chi = subset_dp_chi(g)
        for pad in range(4):
            padded = g.add_isolated(pad)
            _assert_certified(padded, chi, chromatic_number(padded))


def test_padded_paley_certifies_under_the_search_budget():
    # Isolated padding leaves chi alone but lowers ceil(n / alpha) towards
    # omega; the search budget of f search must still close these.
    paley13 = paley_graph(13)
    chi13 = subset_dp_chi(paley13)
    assert chi13 == 5
    for n in (24, 32, 48):
        padded = paley13.add_isolated(n - 13)
        _assert_certified(padded, chi13, chromatic_number(padded, node_budget=_CHI_BUDGET))
    # Unpadded, the bound ceil(41 / alpha) = 9 stops the search at its first 9-coloring.
    chi41 = chromatic_number(paley_graph(41))
    assert chi41.exact and chi41.value == 9
    padded = paley_graph(41).add_isolated(7)
    _assert_certified(padded, 9, chromatic_number(padded, node_budget=_CHI_BUDGET))


@pytest.mark.parametrize("g, chi, nodes", [
    (paley_graph(17).add_isolated(7), 6, 209),
    (_mycielski_k2(3).add_isolated(1), 5, 894),
    (paley_graph(29).add_isolated(3), 8, 33_898),
])
def test_chromatic_budget_ladder(g, chi, nodes):
    # ``nodes`` is the size of the fixed DSATUR search tree: exactness holds
    # from that budget on and never below it, with the same value throughout;
    # below it the value found so far can only fall as the budget grows.
    values = []
    for budget in (0, 1, nodes // 2, nodes - 1, nodes, nodes + 1, 2 * nodes, None):
        result = chromatic_number(g, node_budget=budget)
        _assert_search_from_bounds(g, budget, result)
        assert result.exact == (budget is None or budget >= nodes), budget
        assert is_proper_coloring(g, result.witness)
        assert result.witness.num_colors == result.value >= chi
        if result.exact:
            assert result.value == chi
        values.append(result.value)
    assert values == sorted(values, reverse=True)


def test_chromatic_budget_threshold_of_padded_mycielski4():
    # f search's n = 48 witness: its 448,613-node tree is too big for the full
    # ladder above, so only the threshold is pinned.
    g = _mycielski_k2(4).add_isolated(1)
    for budget in (448_612, 448_613):
        result = chromatic_number(g, node_budget=budget)
        assert (result.value, result.exact) == (6, budget == 448_613), budget
        assert is_proper_coloring(g, result.witness)


def test_solvers_leave_no_cyclic_garbage():
    # The recursive searches are closures that refer to themselves; each
    # solver breaks that cycle on return, so nothing waits for the collector.
    gc.collect()
    gc.disable()
    try:
        max_ratio_exact(6)
        for level in range(1, 4):
            chromatic_number(_mycielski_k2(level))
        # A search that its budget stops unwinds through BudgetExceeded.
        assert not chromatic_number(paley_graph(37).add_isolated(11), node_budget=100).exact
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    # Mycielski's theorem gives chi 4 and 5 here (Mycielski^2(K2) and
    # Mycielski^3(K2), the latter past the subset DP); isolated padding
    # changes neither chi nor omega, and each padding certifies.
    g = cycle_graph(5)
    chi = 3
    for _ in range(2):
        g = mycielski(g)
        chi += 1
        assert clique_number(g).value == 2
        for pad in range(4):
            padded = g.add_isolated(pad)
            _assert_certified(padded, chi, chromatic_number(padded))


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


def test_chromatic_skips_the_alpha_search_when_greedy_meets_omega(monkeypatch):
    # When the DSATUR colouring uses omega colours, the clique bound alone
    # proves it optimal: no clique search runs on the complement.
    calls = []

    def counted(*args):
        calls.append(args)
        return _max_clique(*args)

    g = complete_graph(6)
    clique = _max_clique(g.adj, g.full_mask())[1]
    greedy = _dsatur_greedy(g.adj, g.n)
    monkeypatch.setattr(invariants, "_max_clique", counted)
    assert _chromatic(g.adj, clique, greedy, None) == (6, greedy, True)
    assert calls == []
    # Where it does not, the alpha bound is still computed.
    c5 = cycle_graph(5)
    _chromatic(c5.adj, _max_clique(c5.adj, c5.full_mask())[1], _dsatur_greedy(c5.adj, 5), None)
    assert len(calls) == 1


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
