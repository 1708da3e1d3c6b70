"""Rate-function constants, entropy bounds, and the supporting arithmetic facts."""

import math

import pytest

from chiomega.ramsey import BoundsTable, RamseyBoundRecord, packaged_bounds_table
from chiomega.rates import (
    DEFAULT_DELTA,
    MAX_TOL,
    MIN_TOL,
    RateParams,
    diagonal_constant,
    diagonal_ramsey_index,
    entropy,
    entropy_binomial_check,
    entropy_binomial_sweep,
    maximize_rate,
    min_product_binomial,
    rate_function,
    ratio_envelope,
    stationarity_residual,
)


def test_entropy_basics():
    assert abs(entropy(0.5) - 1.0) <= 1e-12
    assert entropy(0.0) == 0.0 and entropy(1.0) == 0.0
    for x in (0.1, 0.25, 0.4):
        assert abs(entropy(x) - entropy(1 - x)) <= 1e-12
        assert 0 < entropy(x) < 1
    with pytest.raises(ValueError):
        entropy(-0.1)
    with pytest.raises(ValueError):
        entropy(1.1)


def test_entropy_binomial_check_spot_values():
    assert entropy_binomial_check(10, 5)
    assert entropy_binomial_check(2000, 1000)
    assert entropy_binomial_check(7, 0)
    assert entropy_binomial_check(7, 7)
    assert entropy_binomial_sweep(300) is None


def test_rate_function_delta_zero_peaks_at_half():
    flat = RateParams(delta=0.0)
    assert abs(rate_function(0.5, flat) - 2.0) <= 1e-12
    for x in (0.1, 0.3, 0.49):
        assert rate_function(x, flat) < 2.0
    with pytest.raises(ValueError):
        rate_function(0.0, flat)
    with pytest.raises(ValueError):
        rate_function(1.0, flat)
    for delta in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta must be finite and nonnegative"):
            RateParams(delta=delta)


def test_maximize_rate_reproduces_constants():
    report = maximize_rate()
    assert report.delta == DEFAULT_DELTA == 0.14 / math.e
    assert 3.7190 < report.phi_max_sq < 3.71943
    assert abs(report.diagonal_constant - 3.70831) <= 1e-4
    assert report.diagonal_constant < report.phi_max_sq
    assert report.bracket[0] <= report.x_star <= report.bracket[1]
    # Local-maximum property and dominance over the interior endpoint.
    f = lambda x: rate_function(x, RateParams())
    tol = report.tol
    assert report.phi_max >= f(report.x_star - tol)
    assert report.phi_max >= f(min(0.5, report.x_star + tol))
    assert report.phi_max >= f(0.5)


def test_maximize_rate_delta_zero_recovers_four():
    report = maximize_rate(RateParams(delta=0.0))
    assert abs(report.phi_max_sq - 4.0) <= 1e-9
    assert abs(report.x_star - 0.5) <= 1e-6
    assert diagonal_constant(RateParams(delta=0.0)) == 4.0


def test_maximize_rate_rejects_unusable_inputs():
    # A search with tol = 1e-16 still ends without the check; 1e-20 would not,
    # so test_cli runs that one in a subprocess with a timeout.
    for tol in (0.0, 1e-16, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be finite and at least 1e-15"):
            maximize_rate(tol=tol)
    # A wider bracket loses digits of the constant; at tol 1 nothing is bisected.
    for tol in (1e-6 * (1 + 1e-15), 1e-4, 0.1, 1.0):
        with pytest.raises(ValueError, match="tol must be at most 1e-06"):
            maximize_rate(tol=tol)
    # The residual's sign change lies below 1e-12 for so large a delta.
    with pytest.raises(ValueError, match="no sign change"):
        maximize_rate(RateParams(delta=100.0))
    # The floor itself still ends, with the same constants.
    report = maximize_rate(tol=MIN_TOL)
    assert report.bracket[1] - report.bracket[0] <= MIN_TOL
    assert abs(report.phi_max_sq - maximize_rate().phi_max_sq) <= 1e-12
    # So does the ceiling, within 1e-12 of the maximum.
    report = maximize_rate(tol=MAX_TOL)
    assert report.bracket[1] - report.bracket[0] <= MAX_TOL
    assert abs(report.phi_max_sq - maximize_rate().phi_max_sq) <= 1e-12


@pytest.mark.parametrize("delta", [0.0, DEFAULT_DELTA, 1.0, 20.0])
def test_maximize_rate_bracket_certifies_a_grid_maximum(delta):
    """An oracle independent of the search: the bracket is a sign change of
    the residual, and no point of a fine grid beats the reported maximum."""
    params = RateParams(delta=delta)
    report = maximize_rate(params)
    a, b = report.bracket
    assert b - a <= report.tol
    assert a <= report.x_star <= b
    if delta == 0.0:
        assert b == report.x_star == 0.5
    else:
        assert stationarity_residual(a, params) > 0.0 >= stationarity_residual(b, params)
    assert report.phi_max == rate_function(report.x_star, params)
    assert report.phi_max_sq == report.phi_max * report.phi_max
    steps = 20_001
    best = max(rate_function(0.5 * k / steps, params) for k in range(1, steps + 1))
    assert best <= report.phi_max + 1e-12, (best, report.phi_max)


def test_stationarity_residual_has_one_sign_change():
    params = RateParams()
    signs = []
    x = 0.01
    while x < 0.5:
        r = stationarity_residual(x, params)
        signs.append(r > 0)
        x += 1e-3
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes == 1


def test_ratio_envelope_values():
    lower, upper = ratio_envelope(1024, l_rate=0.5, m_sq=4.0)
    assert abs(lower - 2.56) <= 1e-12
    assert abs(upper - 40.96) <= 1e-12
    _, default_upper = ratio_envelope(1024)
    assert abs(default_upper - 3.71943 * 10.24) < 0.01
    with pytest.raises(ValueError):
        ratio_envelope(1)


def _brute_min_product(n: int) -> int:
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


def test_min_product_binomial_spot_values():
    assert min_product_binomial(2) == (2, 1)
    assert min_product_binomial(20) == (6, 9)
    assert min_product_binomial(70) == (8, 16)
    # The balanced-split formula first fails at n = 21: C(7,5) = 21 gives
    # s*t = 10 while floor/ceil halves of k = 7 give 12.
    assert min_product_binomial(21) == (7, 10)
    assert min_product_binomial(127) == (10, 24)
    assert min_product_binomial(1)[1] == 1
    with pytest.raises(ValueError):
        min_product_binomial(0)


def test_min_product_binomial_against_brute_force():
    for n in range(1, 1500):
        assert min_product_binomial(n)[1] == _brute_min_product(n), n


def test_min_product_k_is_minimal():
    for n in (2, 5, 20, 21, 70, 252, 253):
        k, _ = min_product_binomial(n)
        assert math.comb(k, k // 2) >= n
        assert k == 2 or math.comb(k - 1, (k - 1) // 2) < n


def test_diagonal_ramsey_index_examples():
    table = packaged_bounds_table()
    assert diagonal_ramsey_index(1, table).k_min == 1
    assert diagonal_ramsey_index(1, table).exact
    for n, k in ((2, 2), (5, 2), (6, 3), (17, 3), (18, 4), (42, 4)):
        bracket = diagonal_ramsey_index(n, table)
        assert (bracket.k_min, bracket.k_max) == (k, k), n
    # Between the known lower 43 and upper 48 for the 5th diagonal value the
    # index is genuinely ambiguous.
    bracket = diagonal_ramsey_index(45, table)
    assert bracket.k_min == 4 and not bracket.exact


def test_diagonal_ramsey_index_empty_table_is_undecidable_above():
    empty = BoundsTable()
    bracket = diagonal_ramsey_index(5, empty)
    assert bracket.k_min == 2 and bracket.k_max is None
    assert diagonal_ramsey_index(1, empty).exact
    with pytest.raises(ValueError):
        diagonal_ramsey_index(0, empty)


def test_diagonal_ramsey_index_uses_monotone_bounds():
    table = BoundsTable()
    table.add(RamseyBoundRecord(4, 4, 18, 18, "test"))
    # No (3,3) record: the monotone uppers still cap k for small n.
    bracket = diagonal_ramsey_index(3, table)
    assert bracket.k_min == 2
