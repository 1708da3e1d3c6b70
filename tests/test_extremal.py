"""Exact f(n) enumeration, ratio arithmetic, the construction search, and the table."""

import functools
import hashlib
import itertools
import math
import re

import pytest

from chiomega import extremal
from chiomega.extremal import (
    Ratio,
    RatioRecord,
    SearchMeta,
    _canonical_descendants,
    _cannot_win,
    _child_bounds,
    _classes,
    _construction_portfolio,
    _extend,
    _is_canonical,
    _parent_ups,
    _plan,
    _prefer,
    canonical_graphs,
    load_ratio_table,
    max_ratio_exact,
    max_ratio_search,
    normalized_ratio_lower,
    packaged_ratio_table,
    ratio_csv,
    save_ratio_table,
    verify_ratio_table,
)
from chiomega.graphs import Graph, cycle_graph, from_graph6, random_graph, to_graph6
from chiomega.invariants import (BudgetExceeded, _dsatur_greedy, _max_clique, chromatic_number,
                                 clique_number)


def test_ratio_comparisons_are_exact():
    assert Ratio(3, 2) > Ratio(4, 3)
    assert Ratio(4, 2) == Ratio(2, 1)
    assert hash(Ratio(4, 2)) == hash(Ratio(2, 1))
    assert Ratio(1, 1) < Ratio(3, 2) <= Ratio(3, 2)
    # A comparison that would go wrong in floating point for huge entries.
    assert Ratio(10**18 + 1, 10**18) > Ratio(1, 1)
    with pytest.raises(ValueError):
        Ratio(2, 3)  # chi below omega is impossible
    with pytest.raises(ValueError):
        Ratio(1, 0)


def test_canonical_enumeration_counts():
    # Numbers of isomorphism classes of simple graphs on 1..6 vertices.
    expected = [1, 2, 4, 11, 34, 156]
    for n, count in enumerate(expected, start=1):
        assert sum(1 for _ in canonical_graphs(n)) == count


# SHA-256 of the newline-joined graph6 strings of canonical_graphs(n), in yield
# order. The counts alone would not notice a change of which labelling of a
# class is accepted, or of the order in which the classes come out.
_CANONICAL_SHA256 = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
    3: "f78b1e961185bb637907c0c3de52876ceb3eb2fee4073e88b23fc8308cee8ad4",
    4: "d8e1fee983736b5675a742e48dd3d88a123bb4491e8c646808b757ee9ca7f09c",
    5: "a1648ecf47e851e463f0debacf845da6e1dfc0e13962fa0cd931bea02eb3d74b",
    6: "937945bcbd08d9fc1f64a55ddbb6b5b1eb3c917c4d7e826404845566b3ae5237",
    7: "6f4ee8007a8683bc24a7af466af521e3307d0b6ab5eb746ea02347f5b0a1617e",
}


def test_canonical_enumeration_pins_labelled_representatives():
    for n, digest in _CANONICAL_SHA256.items():
        text = "\n".join(to_graph6(g) for g in canonical_graphs(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n


def _brute_canonical(adj: tuple[int, ...]) -> tuple[bool, tuple[int, ...]]:
    """Whether the identity's string is the least over all n! relabelings, and the
    least relabeling; strings are column-major upper triangles, row 0 first."""
    n = len(adj)
    pairs = [(u, v) for v in range(n) for u in range(v)]

    def string(p):
        return tuple(adj[p[u]] >> p[v] & 1 for u, v in pairs)

    best = min(itertools.permutations(range(n)), key=string)
    least = tuple(sum(1 << j for j in range(n) if adj[best[i]] >> best[j] & 1)
                  for i in range(n))
    return string(best) == string(range(n)), least


@functools.lru_cache(maxsize=None)
def _labelled_cases() -> tuple[tuple[tuple[int, ...], bool], ...]:
    """Labelled graphs with whether each is least under ``_brute_canonical``."""
    cases = []
    for n in range(1, 6):  # every labelled graph: 1 + 2 + 8 + 64 + 1024
        pairs = [(u, v) for v in range(n) for u in range(v)]
        for m in range(1 << len(pairs)):
            rows = [0] * n
            for k, (u, v) in enumerate(pairs):
                if m >> k & 1:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
            adj = tuple(rows)
            cases.append((adj, _brute_canonical(adj)[0]))
    # Exactly one labelling per class is least: 1 + 2 + 4 + 11 + 34 classes.
    assert len(cases) == 1099 and sum(expected for _, expected in cases) == 52
    # Random labelled graphs are almost never canonical and their least
    # relabelings always are, so both answers are tested at n = 6, 7.
    graphs = [random_graph(n, 0.5, seed=seed).adj
              for n, count in ((6, 25), (7, 8)) for seed in range(count)]
    # Graphs with twins, where the canonicity test skips tied vertices:
    # isolated vertices added, or two vertices duplicated, the first copy
    # joined to its original in every other graph.
    graphs += [random_graph(n, 0.5, seed=seed).add_isolated(8 - n).adj
               for n in (6, 7) for seed in range(3)]
    for n, seed in ((5, 0), (5, 1), (6, 2), (6, 3)):
        rows = list(random_graph(n, 0.5, seed=seed).adj)
        for x in (0, n - 1):
            rows = [row | 1 << len(rows) if row >> x & 1 else row for row in rows] + [rows[x]]
        if seed % 2:
            rows[0] |= 1 << n
            rows[n] |= 1
        graphs.append(tuple(rows))
    for adj in graphs:
        is_least, least = _brute_canonical(adj)
        cases += [(adj, is_least), (least, True)]
    return tuple(cases)


def test_is_canonical_agrees_with_brute_force():
    for adj, expected in _labelled_cases():
        assert _is_canonical(adj) == expected, adj


def _relabel(adj: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """The graph whose vertex i is ``adj``'s vertex perm[i]."""
    n = len(adj)
    return tuple(sum(1 << j for j in range(n) if adj[perm[i]] >> perm[j] & 1) for i in range(n))


def test_plan_cells_are_the_twin_classes_of_each_prefix():
    # At every depth w of every canonical graph on at most 7 vertices, the
    # cells partition positions 0..w-1 into the twin classes of G[0..w-1],
    # each of one kind, and a plan extended by one vertex is the plan built
    # from scratch.
    for n in range(1, 8):
        for g in canonical_graphs(n):
            plan = _plan(())
            for w in range(n + 1):
                assert plan == _plan(g.adj[:w]), (g.adj, w)
                steps, cells, last = plan
                assert last is not None and len(steps) == w
                assert sorted(p for cell in cells for p in cell) == list(range(w))
                low = (1 << w) - 1
                cell_of = {p: cell for cell in cells for p in cell}
                for p, q in itertools.combinations(range(w), 2):
                    twins = not (g.adj[p] ^ g.adj[q]) & low & ~(1 << p | 1 << q)
                    assert twins == (cell_of[p] is cell_of[q]), (g.adj, w, p, q)
                for cell in cells:
                    kinds = {g.adj[p] >> q & 1 for p, q in itertools.combinations(cell, 2)}
                    assert len(kinds) <= 1, (g.adj, w, cell)
                if w < n:
                    plan = _plan(g.adj[:w + 1], plan)


def test_is_canonical_accepts_exactly_the_canonical_relabelling():
    # Every relabelling of every class on 6 vertices, and of graphs on 7
    # vertices whose twin classes have three or more members of either kind:
    # K_{3,4}, K_{2,2,3}, 2K_3 + K_1 and their complements.
    perms = list(itertools.permutations(range(6)))
    for g in canonical_graphs(6):
        for perm in perms:
            adj = _relabel(g.adj, perm)
            assert _is_canonical(adj) == (adj == g.adj), (g.adj, perm)
    parts = [(3, 4), (2, 2, 3)]
    graphs = []
    for sizes in parts:
        part = [i for i, size in enumerate(sizes) for _ in range(size)]
        graphs.append(tuple(sum(1 << j for j in range(7) if part[i] != part[j])
                            for i in range(7)))
    blocks = [0, 0, 0, 1, 1, 1, 2]
    graphs.append(tuple(sum(1 << j for j in range(7) if j != i and blocks[i] == blocks[j] < 2)
                        for i in range(7)))
    graphs += [tuple(~row & 127 & ~(1 << i) for i, row in enumerate(adj)) for adj in graphs]
    for g in graphs:
        least = _brute_canonical(g)[1]
        for perm in itertools.permutations(range(7)):
            adj = _relabel(g, perm)
            assert _is_canonical(adj) == (adj == least), (g, perm)


def test_last_column_check_rejects_only_non_canonical_graphs(monkeypatch):
    # Each labelled graph is offered as the one child of itself minus its last
    # vertex. A child that never reaches _is_canonical was rejected by the
    # check on its last two columns before it was built.
    tested = []
    monkeypatch.setattr(extremal, "_is_canonical",
                        lambda adj, *rest: tested.append(adj) or _is_canonical(adj, *rest))
    rejected = 0
    for adj, is_least in _labelled_cases():
        k = len(adj) - 1
        if k < 1:
            continue
        parent = tuple(row & ~(1 << k) for row in adj[:k])
        tested.clear()
        walk = list(_canonical_descendants(parent, k + 1, lambda p: (adj[k],)))
        assert walk[1:] == ([adj] if is_least else []), adj
        if not tested:
            assert not is_least, adj
            rejected += 1
    # 493 of the 1,184 graphs on two or more vertices.
    assert rejected == 493


def test_canonical_enumeration_yields_distinct_invariant_profiles():
    # On 4 vertices the 11 classes split into known degree-sequence buckets.
    seqs = sorted(tuple(sorted(g.degree(v) for v in range(4))) for g in canonical_graphs(4))
    assert len(seqs) == 11
    assert seqs[0] == (0, 0, 0, 0)
    assert seqs[-1] == (3, 3, 3, 3)


def test_max_ratio_exact_small_values():
    for n in (1, 2, 3, 4):
        rec = max_ratio_exact(n)
        assert rec.exhaustive
        assert rec.value == Ratio(1, 1)
    rec = max_ratio_exact(5)
    assert rec.exhaustive
    assert rec.value.num == 3 and rec.value.den == 2
    witness = rec.witness
    assert all(witness.degree(v) == 2 for v in range(5))  # C5
    assert chromatic_number(witness).value == 3
    assert clique_number(witness).value == 2


def test_child_bounds_hold_for_every_child_of_small_parents():
    # Every canonical parent on up to 6 vertices, every neighbourhood of a new
    # vertex: chi(parent) <= chi(child) <= up and omega(child) >= lo, for the
    # child's own bounds and for the parent's greedy ones.
    children = 0
    for k in range(1, 7):
        for parent in canonical_graphs(k):
            clique = _max_clique(parent.adj, parent.full_mask())[1]
            size = clique.bit_count()
            assert parent.induced(clique).num_edges() == size * (size - 1) // 2
            assert size == clique_number(parent).value
            *greedy, (exact_up, classes) = _parent_ups(parent.adj, clique)
            greedy_ups = [up for up, _ in greedy]
            # The classes partition the vertices into independent sets, as
            # many as chi, and the greedy bounds are never tighter.
            assert len(classes) == chromatic_number(parent).value == exact_up - 1
            assert sorted(v for c in classes for v in range(k) if c >> v & 1) == list(range(k))
            assert all(parent.induced(c).num_edges() == 0 for c in classes)
            assert len(greedy_ups) == 2 and min(greedy_ups) >= exact_up
            for mask in range(1 << k):
                child = Graph(k + 1, _extend(parent.adj, mask))
                chi, omega = chromatic_number(child).value, clique_number(child).value
                bounds = [_child_bounds(mask, classes, clique)] + [(up, size) for up in greedy_ups]
                for up, lo in bounds:
                    assert len(classes) <= chi <= up, (parent.adj, mask)
                    assert omega >= lo, (parent.adj, mask)
                children += 1
    assert children == 11290


def test_cannot_win_never_skips_a_child_that_prefer_would_take():
    # Every child of every canonical parent on up to 6 vertices against
    # incumbents of its order: the record, and the first canonical graph of
    # each (ratio, edges) key, so ratio ties come with fewer, equal and more
    # edges. Wherever the skip fires (per parent on its grandparent's DSATUR
    # classes and clique, on a greedy colouring or on the exact one, per mask,
    # after omega or after chi), _prefer with the child's true ratio must
    # refuse the child.
    skips = grand_skips = 0
    for k in range(1, 7):
        incumbents = {}
        for g in canonical_graphs(k + 1):
            key = (Ratio(chromatic_number(g).value, clique_number(g).value), g.num_edges())
            incumbents.setdefault(key, g)
        rec = max_ratio_exact(k + 1)
        bests = [(rec.value, rec.witness)] + [(r, g) for (r, _), g in incumbents.items()]
        bars = [(r.num, r.den, g.num_edges()) for r, g in bests]
        for parent in canonical_graphs(k):
            clique = _max_clique(parent.adj, parent.full_mask())[1]
            *greedy, (exact_up, classes) = _parent_ups(parent.adj, clique)
            greedy_ups = [up for up, _ in greedy]
            greedy_lo = clique.bit_count()
            edges = parent.num_edges()
            # The parent as its grandparent sees it: the last vertex's mask
            # against the DSATUR classes and clique of the first k - 1.
            grand = None
            if k > 1:
                rows = tuple(row & ~(1 << (k - 1)) for row in parent.adj[:-1])
                grand = _child_bounds(parent.adj[-1], _classes(_dsatur_greedy(rows, k - 1)),
                                      _max_clique(rows, (1 << (k - 1)) - 1)[1])
            for mask in range(1 << k):
                child = Graph(k + 1, _extend(parent.adj, mask))
                omega = clique_number(child).value
                cand = (Ratio(chromatic_number(child).value, omega), child)
                up, lo = _child_bounds(mask, classes, clique)
                child_edges = edges + mask.bit_count()
                assert child_edges == child.num_edges()
                for best, bar in zip(bests, bars):
                    grand_skip = grand is not None and _cannot_win(grand[0] + 1, grand[1], edges, bar)
                    if (grand_skip
                            or any(_cannot_win(g, greedy_lo, edges, bar) for g in greedy_ups)
                            or _cannot_win(exact_up, greedy_lo, edges, bar)
                            or _cannot_win(up, lo, child_edges, bar)
                            or _cannot_win(up, omega, child_edges, bar)
                            or _cannot_win(cand[0].num, omega, child_edges, bar)):
                        assert not _prefer(cand, best), (parent.adj, mask, bar)
                        skips += 1
                        grand_skips += grand_skip
    assert skips > grand_skips > 0
    # No incumbent skips nothing.
    assert not _cannot_win(1, 9, 99, None)


def test_max_ratio_exact_equals_unbounded_maximum():
    # The plain maximum under the tie-break, every graph scored in full: no
    # bound, no skip and no floor.
    for n in range(1, 8):
        best = None
        for g in canonical_graphs(n):
            cand = (Ratio(chromatic_number(g).value, clique_number(g).value), g)
            if _prefer(cand, best):
                best = cand
        rec = max_ratio_exact(n)
        assert (str(rec.value), to_graph6(rec.witness)) == (str(best[0]), to_graph6(best[1])), n


def test_max_ratio_exact_rejects_big_n():
    # The exhaustive range is 1 <= n <= 9, and n = 9 needs no opt-in: a
    # budget cuts it short into a non-exhaustive record.
    rec = max_ratio_exact(9, node_budget=1000)
    assert rec.n == 9 and not rec.exhaustive and rec.meta.nodes == 1000
    for n in (0, 10):
        with pytest.raises(ValueError):
            max_ratio_exact(n)
    with pytest.raises(TypeError):
        max_ratio_exact(9, allow_nine=True)
    with pytest.raises(ValueError):
        max_ratio_exact(5, workers=0)


# max_ratio_exact(7) under a budget: (budget, value, witness graph6, extension
# tests, exhaustive). The budget is spent depth first: the first graph on 7
# vertices is scored at test 6, the witness at test 654, and test 3034 ends
# the enumeration. Parents that cannot beat the witness take no test.
_F7_BUDGETED = [
    (6, "1/1", "F????", 6, False),
    (653, "1/1", "F????", 653, False),
    (654, "3/2", "F?Ch_", 654, False),
    (3033, "3/2", "F?Ch_", 3033, False),
    (3034, "3/2", "F?Ch_", 3034, True),
    (20000, "3/2", "F?Ch_", 3034, True),
]


def test_max_ratio_exact_budget():
    for budget in (0, 5):
        with pytest.raises(BudgetExceeded):
            max_ratio_exact(7, node_budget=budget)
    with pytest.raises(ValueError):
        max_ratio_exact(7, node_budget=-1)
    partial = max_ratio_exact(6, node_budget=200)
    assert not partial.exhaustive
    assert partial.value >= Ratio(1, 1)
    for budget, value, witness, nodes, exhaustive in _F7_BUDGETED:
        rec = max_ratio_exact(7, node_budget=budget)
        got = (str(rec.value), to_graph6(rec.witness), rec.meta.nodes, rec.exhaustive)
        assert got == (value, witness, nodes, exhaustive), budget
        # The last order tests canonicity only for a would-be incumbent; a
        # budgeted record is canonically labelled all the same.
        assert _is_canonical(rec.witness.adj), budget


# SHA-256 of one line per budget, "budget value witness exhaustive nodes" or
# "budget over" when the budget ends before any graph is scored: every budget
# of max_ratio_exact(n) for n = 1..5 up to its 0, 2, 10, 42 and 154 extension
# tests, and every 5th budget of max_ratio_exact(6) plus its full 634. Pins
# where each budget stops the walk and which incumbent it keeps, not only the
# end points.
_BUDGET_FOLD_SHA256 = {
    (1, range(1)): "cb9a5e7b0f722f5d1105632dd95fc082959362e4e45268ed8094370986344387",
    (2, range(3)): "e87b2510ad2576aac60d995b2d69f556095b156400e5d665815373eac8e202c5",
    (3, range(11)): "06d7944c7c7ba6e7b2e0feffb7be00195a8ad6e1d669c6f84969d546ebea8124",
    (4, range(43)): "3116f3fcdeaf05640d43b916125282fa22954d3ccbd68a3a37b6c3f635d72a48",
    (5, range(155)): "13404a8a640bb1db5cec4348eaa3a6fa0f3d1186c072c68f5bb085ef7159e5c5",
    (6, (*range(0, 634, 5), 634)):
        "7b4116a843bea22696a0994467cdcb15f345468a91d1bd9023d6e77fe558833a",
}


def test_max_ratio_exact_budget_fold_is_pinned():
    for (n, budgets), digest in _BUDGET_FOLD_SHA256.items():
        lines = []
        for budget in budgets:
            try:
                rec = max_ratio_exact(n, node_budget=budget)
            except BudgetExceeded:
                lines.append(f"{budget} over")
                continue
            assert _is_canonical(rec.witness.adj), (n, budget)
            lines.append(f"{budget} {rec.value} {to_graph6(rec.witness)} "
                         f"{rec.exhaustive} {rec.meta.nodes}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, n


def test_max_ratio_exact_recomputes_packaged_f9():
    # The packaged f(9) record, recomputed in full.
    rec = max_ratio_exact(9)
    shipped = next(r for r in packaged_ratio_table() if r.n == 9)
    assert rec.to_json_obj() == shipped.to_json_obj()
    assert rec.meta.nodes == 284954


def test_max_ratio_exact_floor_changes_no_record():
    # A budget that is never reached takes the path without the floor: the
    # record and its labelling are the same, and the floor spares exact chi
    # solves. A parent that cannot beat the floor takes no extension test,
    # so the floored run makes no more of them than the bare one.
    solves = []

    def counted(g, *args, **kwargs):
        solves[-1] += 1
        return chromatic_number(g, *args, **kwargs)

    for n in range(1, 9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extremal, "chromatic_number", counted)
            solves.append(0)
            floored = max_ratio_exact(n)
            solves.append(0)
            bare = max_ratio_exact(n, node_budget=10**9)
        assert floored.to_json_obj() == bare.to_json_obj(), n
        assert floored.meta.nodes <= bare.meta.nodes, n
        assert floored.exhaustive and bare.exhaustive, n
    # (floored, bare) solves for n = 1..8. The floor's own portfolio solves
    # count too, so at n = 5 it costs more than it saves.
    pairs = list(zip(solves[::2], solves[1::2]))
    assert all(a < b for a, b in pairs[5:]), pairs


def test_max_ratio_exact_fails_loudly_when_the_floor_beats_every_graph(monkeypatch):
    # A floor no graph reaches leaves no incumbent: that is a fault, not a
    # budget that ran out.
    def too_high(n):
        return RatioRecord(n, Ratio(n, 1), Graph(n, (0,) * n), exhaustive=False)

    monkeypatch.setattr(extremal, "max_ratio_search", too_high)
    with pytest.raises(RuntimeError, match="floor"):
        max_ratio_exact(5)
    # A budgeted run takes no floor.
    assert max_ratio_exact(5, node_budget=10**9).value == Ratio(3, 2)


def test_max_ratio_exact_worker_independence():
    base = max_ratio_exact(6)
    for workers in (2, 4):
        other = max_ratio_exact(6, workers=workers)
        assert other.value == base.value
        assert other.meta.nodes == base.meta.nodes
        assert to_graph6(other.witness) == to_graph6(base.witness)


def test_max_ratio_exact_tie_break_is_deterministic():
    a = max_ratio_exact(7)
    b = max_ratio_exact(7)
    assert to_graph6(a.witness) == to_graph6(b.witness)
    assert a.meta.nodes == b.meta.nodes


def test_ratio_record_validates_vertex_count():
    with pytest.raises(ValueError):
        RatioRecord(n=4, value=Ratio(1, 1), witness=cycle_graph(5), exhaustive=True)


def test_ratio_record_json_roundtrip():
    rec = max_ratio_exact(5)
    obj = rec.to_json_obj()
    assert set(obj) == {"n", "chi", "omega", "witness_graph6", "exhaustive"}
    again = RatioRecord.from_json_obj(obj)
    assert again.n == rec.n and again.value == rec.value
    assert to_graph6(again.witness) == obj["witness_graph6"]
    # Tables written before the always-0 "seed" key was dropped still load.
    assert RatioRecord.from_json_obj(dict(obj, seed=0)).to_json_obj() == obj
    with pytest.raises(ValueError):
        RatioRecord.from_json_obj({"n": 5})
    for bad, message in (
        (dict(obj, chi=3.9), "record: field 'chi' must be int, got 3.9"),
        (dict(obj, exhaustive="false"), "record: field 'exhaustive' must be bool, got 'false'"),
        (dict(obj, n=5.0), "record: field 'n' must be int, got 5.0"),
        (dict(obj, witness_graph6=None), "record: field 'witness_graph6' must be str, got None"),
        ([5, 3, 2, "DLo", True], "record: expected an object, got list"),
        ({"n": 5}, "record: missing field 'chi'"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            RatioRecord.from_json_obj(bad)
    # A record's own checks keep the place prefix.
    with pytest.raises(ValueError, match="record 3: need num >= den"):
        RatioRecord.from_json_obj(dict(obj, chi=1), where="record 3")


def test_max_ratio_search_strategies():
    # The search scores the construction portfolio only: both accepted
    # strategy names, any seed and any worker count give the same record.
    base = max_ratio_search(12, strategy="constructions")
    assert not base.exhaustive
    assert base.witness.n == 12
    # The reported value is certified: recomputing reproduces it.
    assert chromatic_number(base.witness).value == base.value.num
    assert clique_number(base.witness).value == base.value.den
    for strategy in ("constructions", "hybrid"):
        for seed in (0, 1, 7):
            rec = max_ratio_search(12, strategy=strategy, seed=seed, workers=3)
            assert rec.value == base.value
            assert to_graph6(rec.witness) == to_graph6(base.witness)
            assert rec.meta == base.meta
    for strategy in ("anneal", "quantum"):
        with pytest.raises(ValueError, match="unknown strategy"):
            max_ratio_search(12, strategy=strategy)
    with pytest.raises(ValueError):
        max_ratio_search(12, workers=0)
    with pytest.raises(TypeError):
        max_ratio_search(12, node_budget=5)


def test_max_ratio_search_finds_mycielski_level():
    # On 11 vertices the constructions include the triangle-free chi = 4 graph.
    rec = max_ratio_search(11, strategy="constructions")
    assert rec.value == Ratio(4, 2)


def test_max_ratio_search_determinism():
    a = max_ratio_search(13, strategy="hybrid", seed=5)
    b = max_ratio_search(13, strategy="constructions", seed=0)
    assert a.value == b.value and to_graph6(a.witness) == to_graph6(b.witness)
    assert a.meta.nodes == b.meta.nodes == 5  # portfolio graphs scored at n = 13
    c = max_ratio_search(13, strategy="hybrid", seed=5, workers=3)
    assert c.value == a.value and to_graph6(c.witness) == to_graph6(a.witness)
    assert c.meta.nodes == a.meta.nodes


def test_portfolio_has_no_repeated_or_dominated_graph():
    # _prefer never takes a graph already scored, nor one with the (chi, omega)
    # of an earlier entry and more edges: such an entry only costs a chi solve.
    for n in range(5, 25):
        seen: dict[tuple[int, int], int] = {}
        codes = []
        for name, g in _construction_portfolio(n):
            codes.append(to_graph6(g))
            chi = chromatic_number(g)
            assert chi.exact, (n, name)
            key, edges = (chi.value, clique_number(g).value), g.num_edges()
            assert edges <= seen.get(key, edges), (n, name)
            seen[key] = edges
        assert len(set(codes)) == len(codes), n


def test_max_ratio_search_agrees_with_exhaustion_and_is_monotone():
    # Up to n = 9 the portfolio reaches the exhaustive maximum that the
    # package ships, and never beats its record under the tie-break, which
    # max_ratio_exact's floor needs; beyond it, padding with an isolated
    # vertex keeps every witness, so the bound never decreases. Every witness
    # is re-verified with the unbudgeted solvers.
    exact = {r.n: r for r in packaged_ratio_table()}
    prev = None
    for n in range(1, 33):
        rec = max_ratio_search(n)
        assert rec.witness.n == n
        assert chromatic_number(rec.witness).value == rec.value.num, n
        assert clique_number(rec.witness).value == rec.value.den, n
        if n <= 9:
            shipped = exact[n]
            assert rec.value == shipped.value == (Ratio(1, 1) if n <= 4 else Ratio(3, 2)), n
            assert shipped.exhaustive, n
            assert not _prefer((rec.value, rec.witness), (shipped.value, shipped.witness)), n
        else:
            assert rec.value >= prev, n
        prev = rec.value


def test_normalized_ratio_lower():
    report = normalized_ratio_lower(cycle_graph(5))
    assert report.alpha == 2 and report.omega == 2 and report.chi == 3
    assert abs(report.g_lower - math.log2(5) ** 2 / 4) <= 1e-12
    with pytest.raises(ValueError):
        normalized_ratio_lower(cycle_graph(5).induced(0b1).add_isolated(0))


def test_verify_ratio_table_passes_shipped_and_catches_tampering():
    records = packaged_ratio_table()
    assert verify_ratio_table(records).ok
    tampered = list(records)
    good = tampered[4]
    tampered[4] = RatioRecord(n=good.n, value=Ratio(good.value.num + 1, good.value.den),
                              witness=good.witness, exhaustive=good.exhaustive,
                              meta=good.meta)
    verdict = verify_ratio_table(tampered)
    assert not verdict.ok
    assert any("n = 5" in p or "n=5" in p for p in verdict.problems)


def test_verify_ratio_table_checks_monotonicity_and_gaps():
    records = packaged_ratio_table()
    swapped = [records[0], records[2]]  # n jumps from 1 to 3
    verdict = verify_ratio_table(swapped)
    assert not verdict.ok
    assert verify_ratio_table([]).ok


def test_ratio_table_roundtrip_and_csv(tmp_path):
    records = packaged_ratio_table()
    path = tmp_path / "f.json"
    save_ratio_table(records, path)
    again = load_ratio_table(path)
    assert [r.to_json_obj() for r in again] == [r.to_json_obj() for r in records]
    csv = ratio_csv(records)
    lines = csv.strip().split("\n")
    assert lines[0] == "n,f,exhaustive"
    assert lines[5] == "5,3/2,true"
    assert len(lines) == 10


def test_packaged_ratio_table_values():
    records = packaged_ratio_table()
    assert [r.n for r in records] == list(range(1, 10))
    assert all(r.exhaustive for r in records)
    values = [(r.value.num, r.value.den) for r in records]
    assert values[:4] == [(1, 1)] * 4
    assert all(v == (3, 2) for v in values[4:])


def test_search_meta_defaults():
    meta = SearchMeta()
    assert meta.nodes == 0
    assert not hasattr(meta, "strategy") and not hasattr(meta, "seed")
