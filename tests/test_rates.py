"""Rate-function constants, entropy bounds, and the supporting arithmetic facts."""

import math
from decimal import Decimal, localcontext

import pytest

from chiomega.ramsey import BoundsTable, RamseyBoundRecord, packaged_bounds_table
from chiomega.rates import (
    DEFAULT_DELTA,
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


def _entropy_and_phi_reference(x: float, delta: float) -> tuple[float, float]:
    """H(x) and phi(x) at 50 digits, from the exact values of the doubles x and delta."""
    with localcontext() as ctx:
        ctx.prec = 50
        x_, d_, one = Decimal(x), Decimal(delta), Decimal(1)
        ln2 = Decimal(2).ln()
        h = -(x_ * x_.ln() + (one - x_) * (one - x_).ln()) / ln2
        phi = (h - d_ * x_ / ln2) / (x_ * (one - x_)).sqrt()
        return float(h), float(phi)


@pytest.mark.parametrize("x", [1e-12, 1e-9, 1e-4, 0.25, 0.46])
def test_entropy_and_rate_function_keep_their_digits_near_zero(x):
    # (1 - x) * log2(1 - x) cancels for small x unless log1p carries it.
    for delta in (0.0, DEFAULT_DELTA, 24.0):
        h, phi = _entropy_and_phi_reference(x, delta)
        assert abs(entropy(x) - h) <= 1e-13 * h, (x, entropy(x), h)
        got = rate_function(x, RateParams(delta=delta))
        assert abs(got - phi) <= 1e-13 * abs(phi), (x, delta, got, phi)


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
    # The paper's constants, bit for bit.
    assert report.phi_max == 1.9285818324044026
    assert report.phi_max_sq == 3.7194278842803232
    assert report.diagonal_constant == 3.708307786710156
    a, b = report.bracket
    assert math.nextafter(a, 1.0) == b and report.x_star in (a, b)
    assert report.phi_max >= rate_function(0.5, RateParams())


def test_maximize_rate_delta_zero_recovers_four():
    report = maximize_rate(RateParams(delta=0.0))
    assert abs(report.phi_max_sq - 4.0) <= 1e-9
    assert abs(report.x_star - 0.5) <= 1e-6
    assert diagonal_constant(RateParams(delta=0.0)) == 4.0


def test_maximize_rate_rejects_unusable_inputs():
    # The residual's sign change lies below 1e-12 for so large a delta.
    with pytest.raises(ValueError, match="no sign change"):
        maximize_rate(RateParams(delta=100.0))
    # The precision is not a parameter: the bracket always ends at adjacent doubles.
    with pytest.raises(TypeError):
        maximize_rate(tol=1e-10)


@pytest.mark.parametrize("delta", [0.0, DEFAULT_DELTA, 1.0, 20.0, 22.0, 24.0, 26.0])
def test_maximize_rate_bracket_certifies_a_grid_maximum(delta):
    """An oracle independent of the search: the bracket is a sign change of
    the residual between adjacent doubles, and no point of a fine linear grid
    nor of a log scan around the maximizer beats the reported maximum."""
    params = RateParams(delta=delta)
    report = maximize_rate(params)
    a, b = report.bracket
    assert report.x_star in (a, b)
    if delta == 0.0:
        assert a == b == 0.5
    else:
        assert math.nextafter(a, 1.0) == b
        assert stationarity_residual(a, params) > 0.0 >= stationarity_residual(b, params)
    assert report.phi_max == rate_function(report.x_star, params)
    assert report.phi_max_sq == report.phi_max * report.phi_max
    # A fine linear grid over all of (0, 1/2] ...
    steps = 20_001
    best = max(rate_function(0.5 * k / steps, params) for k in range(1, steps + 1))
    assert best <= report.phi_max + 1e-12, (best, report.phi_max)
    # ... and 2,001 log-spaced points over four decades around the maximizer.
    lo, hi = report.x_star / 100, min(0.5, 100 * report.x_star)
    steps = 2000
    best = max(rate_function(lo * (hi / lo) ** (k / steps), params) for k in range(steps + 1))
    assert best <= report.phi_max, (best, report.phi_max)


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
    lower, upper = ratio_envelope(1024, m_sq=4.0)
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
