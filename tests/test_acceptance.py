"""Acceptance gates: one criterion per test, one PASS/FAIL line per criterion.

Each criterion re-derives its expected values from scratch (brute force,
independent constructions, or published exact constants) rather than trusting
the module under test. Runtime limits are part of the contract and are
asserted where the criterion states one.
"""

import math
import time

from chiomega.extremal import (
    Ratio,
    canonical_graphs,
    max_ratio_exact,
    packaged_ratio_table,
    verify_ratio_table,
)
from chiomega.graphs import paley_graph, random_graph
from chiomega.invariants import (
    chromatic_number,
    clique_number,
    greedy_erdos_coloring,
    is_proper_coloring,
)
from chiomega.conjectures import (
    check_mult_rdc,
    check_rdc,
    check_weak_mult_rdc,
    empirical_rates,
    fact23_report,
    implication_quadruples,
)
from chiomega.ramsey import (
    BoundsTable,
    RamseyBoundRecord,
    lower_bound_from_graph,
    packaged_bounds_table,
    ramsey_exact_small,
    recurrence_closure,
)
from chiomega.rates import (
    RateParams,
    diagonal_constant,
    entropy_binomial_sweep,
    maximize_rate,
    min_product_binomial,
    ratio_envelope,
)
from conftest import named_graphs, run_cli


def _criterion(num: int, name: str, limit_s: float, body) -> None:
    start = time.monotonic()
    failure = None
    try:
        body()
    except BaseException as exc:  # noqa: BLE001 - verdict line must still print
        failure = exc
    elapsed = time.monotonic() - start
    ok = failure is None and elapsed <= limit_s
    budget = "" if math.isinf(limit_s) else f", limit {limit_s:.0f}s"
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} [{elapsed:.2f}s{budget}]")
    if failure is not None:
        raise failure
    assert elapsed <= limit_s, f"runtime {elapsed:.2f}s exceeds the {limit_s:.0f}s limit"


def test_criterion_1_constants_reproduction():
    def body():
        report = maximize_rate()
        assert 3.7190 < report.phi_max_sq < 3.71943
        assert abs(report.diagonal_constant - 3.70831) <= 1e-4
        flat = maximize_rate(RateParams(delta=0.0))
        assert abs(flat.phi_max_sq - 4.0) <= 1e-9
        assert diagonal_constant(RateParams(delta=0.0)) == 4.0
        lower, _ = ratio_envelope(1024, m_sq=4.0)
        assert abs(lower - 0.25 * 1024 / math.log2(1024) ** 2) <= 1e-12

    _criterion(1, "constants reproduction", 1.0, body)


def test_criterion_2_ramsey_exactness():
    def body():
        t0 = time.monotonic()
        for t in range(2, 11):
            result = ramsey_exact_small(2, t)
            assert result.exact and result.value == t
        assert time.monotonic() - t0 < 1.0

        t0 = time.monotonic()
        r33 = ramsey_exact_small(3, 3)
        assert r33.exact and r33.value == 6
        assert time.monotonic() - t0 < 1.0

        r34 = ramsey_exact_small(3, 4)
        assert r34.exact and r34.value == 9
        # Witness verification with the independent clique solver: the size-8
        # coloring has no red triangle and no blue K4.
        red, blue = r34.witness_red, r34.witness_blue
        assert red.n == 8
        assert clique_number(red).value <= 2
        assert clique_number(blue).value <= 3
        assert clique_number(r33.witness_red).value <= 2
        assert clique_number(r33.witness_blue).value <= 2

        # R(4,4) = 18 pinned with no external data: recurrence upper from the
        # two search results, lower from the Paley graph on 17 vertices.
        table = BoundsTable()
        table.add(RamseyBoundRecord(3, 3, 6, 6, "search"))
        table.add(RamseyBoundRecord(3, 4, 9, 9, "search"))
        table.add(lower_bound_from_graph(paley_graph(17), source="paley"))
        closed = recurrence_closure(table)
        r44 = closed.get(4, 4)
        assert r44.upper <= 18
        assert r44.lower >= 18
        assert r44.exact and r44.lower == 18

    _criterion(2, "Ramsey exactness", 300.0, body)


def test_criterion_3_f_oracle_values():
    def body():
        t0 = time.monotonic()
        for n in (1, 2, 3, 4):
            rec = max_ratio_exact(n)
            assert rec.exhaustive and rec.value == Ratio(1, 1)
        rec5 = max_ratio_exact(5)
        assert rec5.exhaustive
        assert (rec5.value.num, rec5.value.den) == (3, 2)
        assert all(rec5.witness.degree(v) == 2 for v in range(5))  # C5
        assert time.monotonic() - t0 < 1.0

        assert sum(1 for _ in canonical_graphs(6)) == 156
        assert sum(1 for _ in canonical_graphs(7)) == 1044
        rec6 = max_ratio_exact(6)
        rec7 = max_ratio_exact(7)
        assert rec6.exhaustive and rec6.value == Ratio(3, 2)
        assert rec7.exhaustive and rec7.value == Ratio(3, 2)

        verdict = verify_ratio_table(packaged_ratio_table())
        assert verdict.ok, verdict.problems

    _criterion(3, "f(n) oracle values", 600.0, body)


def test_criterion_4_greedy_coloring_property_suite():
    def body():
        suite = []
        for seed in range(500):
            n = 5 + (seed * 7) % 36  # sizes 5..40
            p = (0.2, 0.5, 0.8)[seed % 3]
            suite.append((random_graph(n, p, seed=seed), 1 + seed % 5))
        for name, g in named_graphs().items():
            suite.append((g, 1))
        chi_checked = 0
        for g, m0 in suite:
            m0 = min(m0, g.n)
            cert, stats = greedy_erdos_coloring(g, m0)
            assert is_proper_coloring(g, cert)
            bound = -(-g.n // stats.r_observed) + m0
            assert stats.colors_used <= bound
            if g.n <= 12:
                assert stats.colors_used >= chromatic_number(g).value
                chi_checked += 1
        assert chi_checked >= 100

    _criterion(4, "greedy coloring property suite", 300.0, body)


def test_criterion_5_entropy_bound_sweep():
    def body():
        assert entropy_binomial_sweep(2000) is None

    _criterion(5, "entropy bound sweep", 30.0, body)


def test_criterion_6_arithmetic_facts():
    def body():
        def brute_min_product(n: int) -> int:
            best = None
            s = 1
            while best is None or s * s <= best:
                t = s
                while math.comb(s + t, t) < n:
                    t += 1
                if best is None or s * t < best:
                    best = s * t
                s += 1
            return best

        for n in range(1, 10_001):
            assert min_product_binomial(n)[1] == brute_min_product(n), n
        assert implication_quadruples(60) is None

    _criterion(6, "arithmetic facts", 120.0, body)


def test_criterion_7_conjecture_consistency():
    def body():
        table = packaged_bounds_table()
        for checker in (check_rdc, check_mult_rdc, check_weak_mult_rdc):
            verdicts = checker(table, 10)
            assert verdicts
            violated = [v for v in verdicts if v.status == "violated"]
            assert not violated, (checker.__name__, violated[:3])
        for entry in fact23_report(table):
            assert entry.holds is not False, (entry.s, entry.t, entry.k)
        rates = empirical_rates(table)
        assert abs(rates.max_diagonal_rate - 1.0425) <= 1e-4

    _criterion(7, "conjecture consistency", math.inf, body)


def test_criterion_8_chi_at_least_omega():
    def body():
        pool = list(named_graphs().values())
        for seed in range(60):
            pool.append(random_graph(4 + seed % 9, (0.2, 0.5, 0.8)[seed % 3], seed=900 + seed))
        for result in (ramsey_exact_small(3, 3), ramsey_exact_small(3, 4)):
            pool.append(result.witness_red)
            pool.append(result.witness_blue)
        for n in range(1, 6):
            pool.append(max_ratio_exact(n).witness)
        for g in pool:
            chi = chromatic_number(g).value
            omega = clique_number(g).value
            assert chi >= omega, (g.n, chi, omega)

    _criterion(8, "chi >= omega invariant", math.inf, body)


def test_criterion_9_cli_determinism():
    def body():
        commands = [
            ["constants"],
            ["phi", "--x", "0.3"],
            ["minprod", "--n", "252"],
            ["graph", "stats", "--graph6", "Dhc"],
            ["graph", "color", "--graph6", "Dhc"],
            ["graph", "greedy", "--graph6", "Dhc", "--m0", "2"],
            ["ramsey", "small", "--s", "3", "--t", "3"],
            ["ramsey", "bound", "--s", "4", "--t", "4"],
            ["ramsey", "table"],
            ["ramsey", "small", "--s", "3", "--t", "4"],
            ["f", "exact", "--n", "5"],
            ["f", "exact", "--n", "6"],
            ["f", "search", "--n", "10", "--seed", "3"],
            ["f", "search", "--n", "12"],
            ["f", "verify"],
            ["f", "curve"],
            ["conjecture", "rdc", "--s-max", "6"],
            ["conjecture", "mult", "--s-max", "6"],
            ["conjecture", "weak-mult", "--s-max", "6"],
            ["conjecture", "implication", "--n-max", "20"],
            ["conjecture", "rates"],
            ["conjecture", "fact23"],
            ["report", "envelope", "--n-max", "6"],
        ]
        for argv in commands:
            assert run_cli(argv) == run_cli(argv), argv
        # Removed flags are bad flags: exit 1 before any output.
        for argv in (
            ["ramsey", "small", "--s", "3", "--t", "4", "--threads", "2"],
            ["f", "exact", "--n", "6", "--threads", "2"],
            ["f", "search", "--n", "12", "--threads", "2"],
            ["constants", "--tol", "1e-10"],
        ):
            assert run_cli(argv) == (1, ""), argv

    _criterion(9, "CLI determinism", math.inf, body)
