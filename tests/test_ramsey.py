"""Ramsey search, bound records, table closure, and the shipped table."""

import collections
import itertools
import json
import re
import sys
import time
from pathlib import Path

import pytest

import chiomega
from chiomega.extremal import _canonical_descendants, canonical_graphs
from chiomega.graphs import Graph, complete_graph, from_graph6, paley_graph, to_graph6
from chiomega.invariants import _Counter, clique_number, independence_number
from chiomega.ramsey import (
    BoundsTable,
    RamseyBoundRecord,
    _ColoringSearch,
    _ramsey_masks,
    _search_size,
    erdos_szekeres_bound,
    load_bounds_table,
    lower_bound_from_graph,
    packaged_bounds_table,
    query_bound,
    ramsey_exact_small,
    recurrence_closure,
    save_bounds_table,
    trivial_lower_bound,
)


def test_erdos_szekeres_bound_values():
    assert erdos_szekeres_bound(3, 3) == 6
    assert erdos_szekeres_bound(3, 4) == 10
    assert erdos_szekeres_bound(4, 4) == 20
    assert erdos_szekeres_bound(2, 9) == 9
    assert erdos_szekeres_bound(5, 3) == erdos_szekeres_bound(3, 5) == 15
    with pytest.raises(ValueError):
        erdos_szekeres_bound(0, 3)


def test_trivial_lower_bound_values():
    assert trivial_lower_bound(3, 3) == 5
    assert trivial_lower_bound(4, 4) == 10
    assert trivial_lower_bound(1, 7) == 1
    assert trivial_lower_bound(2, 6) == 6


def test_bound_record_validation():
    rec = RamseyBoundRecord(3, 5, 14, 14, "x")
    assert rec.exact
    assert not RamseyBoundRecord(5, 5, 43, 48, "x").exact
    with pytest.raises(ValueError):
        RamseyBoundRecord(5, 3, 14, 14, "x")  # s > t is not canonical
    with pytest.raises(ValueError):
        RamseyBoundRecord(3, 5, 15, 14, "x")  # lower above upper
    with pytest.raises(ValueError):
        RamseyBoundRecord(0, 3, 1, 1, "x")
    with pytest.raises(ValueError):
        RamseyBoundRecord(1, 4, 2, 2, "x")  # R(1,t) = 1 forced
    with pytest.raises(ValueError):
        RamseyBoundRecord(2, 4, 3, 5, "x")  # R(2,t) = t forced


def test_bound_record_json_roundtrip_and_swap():
    rec = RamseyBoundRecord(3, 6, 18, 18, "src")
    assert RamseyBoundRecord.from_json_obj(rec.to_json_obj()) == rec
    swapped = dict(rec.to_json_obj(), s=6, t=3)
    assert RamseyBoundRecord.from_json_obj(swapped) == rec
    with pytest.raises(ValueError):
        RamseyBoundRecord.from_json_obj({"s": 3})


def test_table_add_merges_and_detects_contradiction():
    table = BoundsTable()
    table.add(RamseyBoundRecord(4, 6, 30, 50, "a"))
    table.add(RamseyBoundRecord(4, 6, 36, 45, "b"))
    rec = table.get(4, 6)
    assert (rec.lower, rec.upper) == (36, 45)
    assert "a" in rec.source and "b" in rec.source
    with pytest.raises(ValueError):
        table.add(RamseyBoundRecord(4, 6, 46, 60, "c"))  # lower above merged upper


def test_table_add_joins_distinct_sources_in_first_seen_order():
    table = BoundsTable([RamseyBoundRecord(3, 5, 14, 14, "")])
    table.add(RamseyBoundRecord(3, 5, 14, 14, "paley"))
    assert table.get(3, 5).source == "paley"
    table.add(RamseyBoundRecord(3, 5, 14, 14, ""))
    assert table.get(3, 5).source == "paley"
    table = BoundsTable([RamseyBoundRecord(4, 6, 30, 50, "a")])
    table.add(RamseyBoundRecord(4, 6, 36, 45, "a + b"))
    table.add(RamseyBoundRecord(4, 6, 36, 45, "b"))
    table.add(RamseyBoundRecord(4, 6, 36, 45, "c + a"))
    assert table.get(4, 6).source == "a + b + c"


def test_table_get_is_symmetric():
    table = BoundsTable()
    table.add(RamseyBoundRecord(3, 5, 14, 14, "x"))
    assert table.get(5, 3) == table.get(3, 5)
    assert query_bound(table, 5, 3).lower == 14
    assert query_bound(table, 9, 9) is None
    with pytest.raises(ValueError):
        query_bound(table, 0, 1)


def test_table_hash_is_order_independent():
    records = [
        RamseyBoundRecord(3, 3, 6, 6, "x"),
        RamseyBoundRecord(3, 4, 9, 9, "x"),
        RamseyBoundRecord(4, 4, 18, 18, "x"),
    ]
    a, b = BoundsTable(), BoundsTable()
    for rec in records:
        a.add(rec)
    for rec in reversed(records):
        b.add(rec)
    assert a.sha256() == b.sha256()


def test_save_load_roundtrip(tmp_path):
    table = BoundsTable()
    table.add(RamseyBoundRecord(3, 4, 9, 9, "x"))
    table.add(RamseyBoundRecord(5, 5, 43, 48, "y"))
    path = tmp_path / "bounds.json"
    save_bounds_table(table, path)
    again = load_bounds_table(path)
    assert again.sha256() == table.sha256()


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[{}\n", encoding="ascii")
    with pytest.raises(ValueError, match="line"):
        load_bounds_table(path)
    path.write_text(json.dumps([{"s": 3, "t": 3, "lower": 6, "upper": 6, "source": ""},
                                {"s": 3, "t": 4, "lower": 9}]), encoding="ascii")
    with pytest.raises(ValueError, match="record 2"):
        load_bounds_table(path)
    path.write_text("{}", encoding="ascii")
    with pytest.raises(ValueError, match="array"):
        load_bounds_table(path)
    # Fields need exact JSON types: no float, bool or string stands in for an int.
    good = {"s": 3, "t": 3, "lower": 6, "upper": 6, "source": ""}
    for bad, message in (
        (dict(good, lower=2.7), "record 2: field 'lower' must be int, got 2.7"),
        (dict(good, s=True), "record 2: field 's' must be int, got True"),
        (dict(good, upper="6"), "record 2: field 'upper' must be int, got '6'"),
        (dict(good, source=None), "record 2: field 'source' must be str, got None"),
        ([3, 3, 6, 6], "record 2: expected an object, got list"),
        ({"s": 3, "t": 4, "lower": 9}, "record 2: missing field 'upper'"),
    ):
        path.write_text(json.dumps([good, bad]), encoding="ascii")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_bounds_table(path)


def test_recurrence_closure_derives_uppers():
    table = BoundsTable()
    table.add(RamseyBoundRecord(2, 4, 4, 4, "base"))
    closed = recurrence_closure(table)
    assert closed.get(3, 3).upper == 6
    assert closed.get(3, 4).upper == 9  # 4 + 6 - 1, both even
    assert closed.get(4, 4).upper == 18
    assert closed.get(1, 3).lower == 1
    assert closed.get(3, 3).lower == trivial_lower_bound(3, 3)


def test_recurrence_closure_is_idempotent_and_conservative():
    table = packaged_bounds_table()
    closed = recurrence_closure(table)
    assert closed.sha256() == recurrence_closure(closed).sha256()
    for rec in table.records():
        after = closed.get(rec.s, rec.t)
        assert after.lower >= rec.lower
        assert after.upper <= rec.upper


def test_recurrence_closure_surfaces_contradictions():
    table = BoundsTable()
    table.add(RamseyBoundRecord(3, 3, 6, 6, "x"))
    table.add(RamseyBoundRecord(4, 4, 100, 120, "wrong"))
    with pytest.raises(ValueError):
        recurrence_closure(table)


def test_recurrence_closure_refuses_a_pair_above_the_vertex_cap():
    # The closure fills every pair s <= t <= max t, so one record far out
    # would make it close t^2/2 pairs; past the cap of 64 it is refused.
    at_cap = BoundsTable([RamseyBoundRecord(1, 64, 1, 1)])
    assert len(recurrence_closure(at_cap)) == 64 * 65 // 2
    for t in (65, 1500):
        table = BoundsTable([RamseyBoundRecord(3, 3, 6, 6), RamseyBoundRecord(1, t, 1, 1)])
        with pytest.raises(ValueError, match=rf"^R\(1,{t}\) .* cap of 64"):
            recurrence_closure(table)


def test_lower_bound_from_paley_17():
    rec = lower_bound_from_graph(paley_graph(17), source="paley")
    assert (rec.s, rec.t, rec.lower) == (4, 4, 18)
    assert rec.upper == erdos_szekeres_bound(4, 4)


# Search nodes spent by ramsey_exact_small(2, t), t = 2..6.
_R2T_NODES = {2: 1, 3: 4, 4: 8, 5: 13, 6: 19}


def test_ramsey_r2t_is_t():
    # The (2, t)-graphs are the empty graphs, whose vertices are all twins:
    # the canonicity test must not try their (t-1)! labellings.
    start = time.monotonic()
    for t in range(2, 13):
        result = ramsey_exact_small(2, t)
        assert result.exact and result.value == t
        # The witness on t-1 vertices: red empty, blue complete.
        assert result.witness_red.num_edges() == 0
        if t in _R2T_NODES:
            assert result.nodes == _R2T_NODES[t], t
    assert time.monotonic() - start < 1.0


def test_ramsey_validation():
    with pytest.raises(ValueError):
        ramsey_exact_small(1, 3)
    with pytest.raises(ValueError):
        ramsey_exact_small(4, 3)
    with pytest.raises(ValueError):
        ramsey_exact_small(3, 3, workers=0)


def test_ramsey_refuses_a_starting_witness_above_the_cap():
    # (s-1)(t-1) = 72 > 64: refused before any graph is built.
    with pytest.raises(ValueError, match=r"^\(9, 10\) needs a starting witness on "
                                         r"\(s-1\)\(t-1\) = 72 vertices, above the cap of 64$"):
        ramsey_exact_small(9, 10)
    # At exactly 64 vertices no size is left to search: the open interval.
    result = ramsey_exact_small(2, 65)
    assert (result.lower, result.upper, result.nodes) == (65, None, 0)
    assert result.witness_red.n == 64


def test_ramsey_33_with_verified_witness():
    result = ramsey_exact_small(3, 3)
    assert result.exact and result.value == 6
    assert result.nodes == 71
    red = result.witness_red
    blue = result.witness_blue
    assert red.n == 5
    assert clique_number(red).value <= 2
    assert clique_number(blue).value <= 2
    # The only triangle-free self-complementary-coloring on 5 vertices: C5.
    assert all(red.degree(v) == 2 for v in range(5))


def test_ramsey_verifies_each_witness_once(monkeypatch):
    import chiomega.ramsey as ramsey

    calls = []

    def counting(g):
        calls.append(g.n)
        return clique_number(g)

    monkeypatch.setattr(ramsey, "clique_number", counting)
    # Red and blue check of the start witness, then of each witness the search
    # finds; the exhausted size adds none.
    for s, t, sizes in ((3, 3, [4, 4, 5, 5]), (3, 4, [6, 6, 7, 7, 8, 8])):
        calls.clear()
        assert ramsey_exact_small(s, t).value == sizes[-1] + 1
        assert calls == sizes
    # The start witness is still checked: a red triangle, or a blue K_4 here.
    for tampered in (complete_graph(6), Graph(6, (0,) * 6)):
        monkeypatch.setattr(ramsey, "_multipartite_witness", lambda s, t, g=tampered: g)
        with pytest.raises(RuntimeError, match="witness verification failed"):
            ramsey_exact_small(3, 4)


def _brute_arrowing(n: int, s: int, t: int) -> bool:
    """True if some red/blue coloring of K_n avoids red K_s and blue K_t."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        red = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}

        def has_clique(edge_set, k):
            return any(
                all(tuple(sorted((a, b))) in edge_set for a, b in itertools.combinations(sub, 2))
                for sub in itertools.combinations(range(n), k)
            )

        if not has_clique(red, s) and not has_clique(set(pairs) - red, t):
            return True
    return False


def test_ramsey_33_against_brute_force():
    assert _brute_arrowing(5, 3, 3)
    assert not _brute_arrowing(6, 3, 3)


# ramsey_exact_small(3, 5) under a budget: (budget, lower, nodes, red witness).
_R35_BUDGETED = [
    (50, 9, 50, "G?~vf_"),
    (5000, 12, 5000, "J?CaCFCyF_?"),
    (20000, 13, 20000, "K?CaJAHceg\\?"),
    (100000, 14, 100000, "L?CaJPoakiUOr?"),
]


# ramsey_exact_small(3, 4) under a budget: (budget, lower, nodes, red witness).
_R34_BUDGETED = [
    (1, 7, 1, "EFz_"),
    (10, 7, 10, "EFz_"),
    (100, 8, 100, "F@QM?"),
    (1000, 9, 1000, "G@QMf?"),
]


def test_ramsey_budget_returns_certified_interval():
    for t, pins in ((5, _R35_BUDGETED), (4, _R34_BUDGETED)):
        for budget, lower, nodes, red in pins:
            result = ramsey_exact_small(3, t, node_budget=budget)
            assert result.upper is None
            assert result.budget_exhausted
            assert result.lower >= trivial_lower_bound(3, t)
            assert result.witness_red.n == result.lower - 1
            assert ((result.lower, result.nodes, to_graph6(result.witness_red))
                    == (lower, nodes, red)), (t, budget)


# ramsey_exact_small(3, t): (least budget that reaches lower, lower). All
# sizes share one walk, so lower reaches n + 1 exactly when the budget covers
# the walk up to its first graph on n vertices.
_RAMSEY_STEPS = {
    4: ((85, 8), (134, 9)),
    5: ((229, 10), (372, 11), (503, 12)),
}


def _nodes_to_first_graph(s: int, t: int, n: int) -> int:
    """Nodes a fresh walk of the (s, t)-graphs spends up to its first graph on n vertices."""
    counter = _Counter()
    walk = _canonical_descendants((0,), n, _ramsey_masks(s, t, counter))
    next(adj for adj in walk if len(adj) == n)
    return counter.count


def test_ramsey_budget_is_spent_in_search_order():
    for t, budgets in ((4, range(0, 4700, 97)), (5, (0, 1, 10, 100, 1000, 3000, 20000))):
        prev = 0
        for budget in budgets:
            result = ramsey_exact_small(3, t, node_budget=budget)
            assert result.nodes <= budget, (t, budget)
            assert result.lower >= prev, (t, budget)
            prev = result.lower
    for t, steps in _RAMSEY_STEPS.items():
        for budget, lower in steps:
            assert budget == _nodes_to_first_graph(3, t, lower - 1), (t, lower)
            assert ramsey_exact_small(3, t, node_budget=budget - 1).lower == lower - 1
            assert ramsey_exact_small(3, t, node_budget=budget).lower == lower
    # R(3,4) = 9 is certified by 1386 nodes in all, and not by one fewer.
    full = ramsey_exact_small(3, 4, node_budget=1386)
    assert full.exact and full.nodes == 1386 and not full.budget_exhausted
    short = ramsey_exact_small(3, 4, node_budget=1385)
    assert (short.upper, short.nodes, short.budget_exhausted) == (None, 1385, True)
    with pytest.raises(ValueError):
        ramsey_exact_small(3, 4, node_budget=-1)


# (3, t)-graphs on n vertices up to isomorphism, n = 1, 2, ..., counted by
# the generator; they agree with Radziszowski & Kreher, "On R(3,k) Ramsey
# graphs" (1988). For t = 6 the walk stops at 10 vertices (338,449 mask
# nodes); there the twin cells of the canonicity test are widest.
_R3T_CLASS_COUNTS = {
    4: [1, 2, 3, 6, 9, 15, 9, 3],
    5: [1, 2, 3, 7, 13, 32, 71, 179, 290, 313, 105, 12, 1],
    6: [1, 2, 3, 7, 14, 37, 100, 356, 1407, 6657],
}


def _class_counts(s: int, t: int, n: int) -> list[int]:
    """Classes of (s, t)-graphs per order up to n, counted along one walk of the tree."""
    walk = _canonical_descendants((0,), n, _ramsey_masks(s, t, _Counter()))
    per_order = collections.Counter(len(adj) for adj in walk)
    return [per_order[k] for k in range(1, len(per_order) + 1)]


def test_ramsey_masks_generate_the_st_graphs():
    for t, counts in _R3T_CLASS_COUNTS.items():
        assert _class_counts(3, t, len(counts)) == counts, t
    # The pruned generator yields exactly the (s, t)-graphs among all graphs,
    # with the same labellings in the same order.
    for s, t in ((3, 5), (4, 4)):
        for n in range(1, 8):
            masks = _ramsey_masks(s, t, _Counter())
            got = [Graph(n, adj) for adj in _canonical_descendants((0,), n, masks)
                   if len(adj) == n]
            want = [g for g in canonical_graphs(n)
                    if clique_number(g).value < s and independence_number(g).value < t]
            assert got == want, (s, t, n)


# _search_size witnesses for (3, t) at n vertices, the first (3, t)-graph
# on n vertices that the generator reaches. They are the labellings that the
# row search it replaced found.
_R3T_WITNESSES = {
    4: ["D@O", "E@Q?", "F@QM?", "G@QMf?"],
    5: ["H?CaCF?", "I?CaCFCw?", "J?CaCFCyF_?", "K?CaJAHceg\\?", "L?CaJPoakiUOr?"],
}


def test_search_size_witnesses():
    for t, pins in _R3T_WITNESSES.items():
        # One search per t, resumed at each size in ascending order.
        search = _ColoringSearch(3, t, _Counter())
        for pin in pins:
            n = from_graph6(pin).n
            rows, over = _search_size(search, n)
            assert not over and to_graph6(Graph(n, rows)) == pin, (t, n)


def test_ramsey_35_from_scratch():
    result = ramsey_exact_small(3, 5)
    assert (result.lower, result.upper, result.nodes) == (14, 14, 121925)
    assert to_graph6(result.witness_red) == "L?CaJPoakiUOr?"


def test_row_search_does_not_recurse_per_bit():
    # A search that recursed per bit would need a frame for each of the 36
    # edges of K_9, the size R(3,4) exhausts. Orderly generation nests one
    # generator per vertex and the canonicity test one call per position;
    # with the filter that resumes the walk at each size, under pytest on
    # CPython 3.11 that takes 27 frames.
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 28)
    try:
        result = ramsey_exact_small(3, 4)
        # One parent's masks come from a loop too: 40 bit decisions on the
        # empty (2, 64)-graph on 40 vertices, which has only the empty mask.
        counter = _Counter()
        masks = list(_ramsey_masks(2, 64, counter)((0,) * 40))
    finally:
        sys.setrecursionlimit(limit)
    assert (result.value, result.nodes) == (9, 1386)
    assert (masks, counter.count) == ([0], 41)


def test_ramsey_stopped_search_returns_interval():
    # 40 of the 71 nodes find the 5-vertex witness but not the exhaustion of 6.
    result = ramsey_exact_small(3, 3, node_budget=40)
    assert (result.lower, result.upper, result.nodes) == (6, None, 40)
    assert result.budget_exhausted and result.witness_red.n == 5


def test_ramsey_worker_independence():
    base = ramsey_exact_small(3, 4)
    assert base.exact and base.value == 9
    for workers in (2, 3):
        other = ramsey_exact_small(3, 4, workers=workers)
        assert other.value == base.value
        assert other.nodes == base.nodes
        assert other.witness_graph6() == base.witness_graph6()


def test_packaged_table_contents():
    table = packaged_bounds_table()
    assert len(table.records()) == 55  # the full box 1 <= s <= t <= 10
    for (s, t), value in ((3, 3), 6), ((3, 4), 9), ((3, 5), 14), ((4, 4), 18), ((4, 5), 25):
        rec = table.get(s, t)
        assert rec.exact and rec.lower == value, (s, t)
    five = table.get(5, 5)
    assert (five.lower, five.upper) == (43, 48)
    # Every record is internally consistent and within the classical bound.
    for rec in table.records():
        assert rec.lower <= rec.upper
        assert rec.upper <= erdos_szekeres_bound(rec.s, rec.t)
        assert rec.lower >= trivial_lower_bound(rec.s, rec.t)


def test_packaged_table_hash_is_frozen():
    # Provenance pin: any edit to the shipped data must be deliberate.
    assert packaged_bounds_table().sha256() == (
        "9599dd9cdf6b2427b13355eb931431aebf902cdd934993a4818e73035ddcb140"
    )


def test_shipped_search_records_match_the_search():
    # Every record the shipped table credits to the search is what the
    # search returns today, and its one witness row is what the witness gives.
    records = packaged_bounds_table().records()
    searched = [rec for rec in records if rec.source.startswith("search:")]
    assert [(rec.s, rec.t) for rec in searched] == [(3, 3), (3, 4), (3, 5)]
    for rec in searched:
        assert rec.source == "search: orderly generation of (s,t)-graphs"
        result = ramsey_exact_small(rec.s, rec.t)
        assert (rec.lower, rec.upper) == (result.lower, result.upper), (rec.s, rec.t)
    (witnessed,) = [rec for rec in records if rec.source.startswith("witness:")]
    rec = lower_bound_from_graph(paley_graph(17))
    assert (rec.s, rec.t, rec.lower) == (witnessed.s, witnessed.t, witnessed.lower) == (4, 4, 18)


def test_shipped_data_file_holds_only_primary_facts():
    # packaged_bounds_table() derives every other row and every tightened
    # upper; the file counts the inputs, 14 of them from the literature.
    raw = load_bounds_table(Path(chiomega.__file__).parent / "data" / "ramsey_bounds.json")
    assert len(raw) == 18
    for rec in raw.records():
        assert not rec.source.startswith("derived:") and "recurrence" not in rec.source, rec
    prefixes = collections.Counter(rec.source.split(":")[0] for rec in raw.records())
    assert prefixes == {"search": 3, "witness": 1, "published": 7, "lower": 7}
    intervals = [(rec.s, rec.t, rec.lower, rec.upper) for rec in raw.records()
                 if not rec.exact and rec.upper != erdos_szekeres_bound(rec.s, rec.t)]
    assert intervals == [(3, 10, 40, 42), (5, 5, 43, 48)]


def test_witness_graphs_roundtrip():
    result = ramsey_exact_small(3, 4)
    red6, blue6 = result.witness_graph6()
    assert from_graph6(red6) == result.witness_red
    assert from_graph6(blue6) == result.witness_blue
