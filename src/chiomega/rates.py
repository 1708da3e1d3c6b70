"""Rate functions and numerical constants behind the chi/omega ratio bounds.

All logarithms are base 2. The central object is the rate function

    phi(x) = (H(x) - delta * x * log2(e)) / sqrt(x * (1 - x))

whose squared maximum over (0, 1/2] bounds the growth coefficient of the
extremal ratio, and the diagonal constant (log2(4 * exp(-delta)))^2 that the
conditional (conjecture-assuming) bound produces. With delta = 0 both reduce
to the classical constant 4.

The maximum is certified, not sampled: phi' is a positive multiple of the
stationarity residual, which changes sign exactly once on (0, 1/2), so one
bisection bracket of that sign change holds the one maximizer of phi.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

DEFAULT_DELTA = 0.14 / math.e
_LOG2E = math.log2(math.e)


@dataclass(frozen=True)
class RateParams:
    """Rate parameters; ``delta`` is the linear penalty in the exponent."""

    delta: float = DEFAULT_DELTA

    def __post_init__(self) -> None:
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and nonnegative, got {self.delta}")


@dataclass(frozen=True)
class ConstantsReport:
    """Certified maximization output for phi, plus the diagonal constant."""

    delta: float
    x_star: float
    phi_max: float
    phi_max_sq: float
    diagonal_constant: float
    bracket: tuple[float, float]

    def as_dict(self) -> dict:
        return asdict(self)


def entropy(x: float) -> float:
    """Binary entropy H(x) in base 2, with H(0) = H(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log1p(-x) * _LOG2E


def entropy_binomial_check(m: int, j: int) -> bool:
    """Whether log2(C(m, j)) <= H(j/m) * m; true for all valid inputs."""
    if not 0 <= j <= m:
        raise ValueError(f"need 0 <= j <= m, got m={m}, j={j}")
    if m == 0:
        return True
    return math.log2(math.comb(m, j)) <= entropy(j / m) * m


def entropy_binomial_sweep(m_max: int) -> Optional[tuple[int, int]]:
    """Exhaustively check the binomial-entropy bound for all 0 <= j <= m <= m_max.

    Binomials are accumulated exactly in integer arithmetic. Returns the first
    failing (m, j), or None when the bound holds everywhere.
    """
    for m in range(m_max + 1):
        c = 1
        for j in range(m + 1):
            if j:
                c = c * (m - j + 1) // j
            if m and math.log2(c) > entropy(j / m) * m:
                return (m, j)
    return None


def rate_function(x: float, params: RateParams = RateParams()) -> float:
    """The rate function (H(x) - delta*x*log2(e)) / sqrt(x*(1-x)) on (0, 1)."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"phi argument must be in (0, 1), got {x}")
    return (entropy(x) - params.delta * x * _LOG2E) / math.sqrt(x * (1.0 - x))


def stationarity_residual(x: float, params: RateParams = RateParams()) -> float:
    """(1-x)log2(1-x) - x log2(x) - delta*x*log2(e), a positive multiple of phi'(x).

    phi'(x) = residual(x) / (2 * (x * (1 - x))**1.5). The residual tends to 0
    at 0 and its second derivative (1/(1-x) - 1/x) / ln 2 is negative on
    (0, 1/2), so it is positive up to one root and nonpositive after it.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"residual argument must be in (0, 1), got {x}")
    return (1.0 - x) * math.log1p(-x) * _LOG2E - x * math.log2(x) - params.delta * x * _LOG2E


def maximize_rate(params: RateParams = RateParams()) -> ConstantsReport:
    """Maximize phi over (0, 1/2] by bisecting its stationarity residual.

    phi'(x) = residual(x) / (2 * (x * (1 - x))**1.5), and the residual is
    concave on (0, 1/2) with limit 0 at 0, so it changes sign exactly once:
    phi rises up to that root and falls after it. ``bracket`` = (a, b) is a
    sign change residual(a) > 0 >= residual(b), bisected until no double lies
    strictly between a and b. The sign change is certified only up to the
    rounding of the residual, which is not monotone in floats near the root
    (ROADMAP item 1 plans a decimal enclosure). ``x_star`` is the rounded
    midpoint of a and b, so one of the two ends. When the residual at 1/2 is
    >= 0 (delta = 0) phi rises all the way: the maximizer and both bracket
    ends are 1/2 itself.
    """
    res = lambda x: stationarity_residual(x, params)
    if res(0.5) >= 0.0:
        x_star = a = b = 0.5
    else:
        a, b = 0.25, 0.5
        while res(a) <= 0.0:
            a /= 2.0
            if a < 1e-12:
                raise ValueError(f"no sign change of the stationarity residual above 1e-12 "
                                 f"(delta = {params.delta} is too large)")
        while a < (x_star := (a + b) / 2.0) < b:
            if res(x_star) > 0.0:
                a = x_star
            else:
                b = x_star
    phi_max = rate_function(x_star, params)
    return ConstantsReport(
        delta=params.delta,
        x_star=x_star,
        phi_max=phi_max,
        phi_max_sq=phi_max * phi_max,
        diagonal_constant=diagonal_constant(params),
        bracket=(a, b),
    )


def diagonal_constant(params: RateParams = RateParams()) -> float:
    """(log2(4 * exp(-delta)))^2, the squared diagonal growth rate."""
    base = 2.0 - params.delta * _LOG2E
    return base * base


def ratio_envelope(n: int, m_sq: Optional[float] = None) -> tuple[float, float]:
    """Finite evaluation (n/(4 (log2 n)^2), M^2 * n/(log2 n)^2) of the ratio envelope.

    The lower coefficient 1/4 is the square of the diagonal lower-bound rate
    L = 1/2; ``m_sq`` is the squared upper rate M^2 (default: the maximum of
    phi squared at the default delta).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if m_sq is None:
        m_sq = maximize_rate().phi_max_sq
    scale = n / math.log2(n) ** 2
    return (0.25 * scale, m_sq * scale)


def min_product_binomial(n: int) -> tuple[int, int]:
    """Smallest k with C(k, floor(k/2)) >= n, and min of s*t with C(s+t, t) >= n.

    The minimum product is usually attained by the most balanced split of k,
    giving floor(k/2) * ceil(k/2), but not always: the first exception is
    n = 21, where (s, t) = (2, 5) has C(7, 5) = 21 and product 10 < 12. The
    returned product is the true minimum over all s, t >= 1, computed exactly.
    """
    if n < 1:
        raise ValueError("n must be positive")
    k = 2
    while math.comb(k, k // 2) < n:
        k += 1
    best = n - 1 if n > 1 else 1  # s = 1 needs t = n - 1 (and t = 1 when n <= 2)
    s = 2
    while s * s <= best:
        # Minimal t >= s with C(s+t, s) >= n, by binary search (monotone in t).
        lo, hi = s, max(s, 1)
        while math.comb(s + hi, s) < n:
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if math.comb(s + mid, s) >= n:
                hi = mid
            else:
                lo = mid + 1
        best = min(best, s * lo)
        s += 1
    return k, best


@dataclass(frozen=True)
class DiagonalBracket:
    """The set of k consistent with R(k,k) <= n < R(k+1,k+1), as an interval.

    ``k_max`` is None when no diagonal upper bound caps the index — an
    explicitly undecidable upper end. ``exact`` means the table (plus the
    axioms R(1,1) = 1, R(2,2) = 2) pins k uniquely.
    """

    n: int
    k_min: int
    k_max: Optional[int]

    @property
    def exact(self) -> bool:
        return self.k_max == self.k_min


def diagonal_ramsey_index(n: int, table) -> DiagonalBracket:
    """Bracket the diagonal index k of n: R(k,k) <= n < R(k+1,k+1).

    ``table`` is a ramsey.BoundsTable. Diagonal bounds are made monotone
    before use (a lower bound for R(j,j) lower-bounds every later diagonal
    value, an upper bound upper-bounds every earlier one), with R(1,1) = 1
    and R(2,2) = 2 always available. k is consistent with the table iff
    lower(k,k) <= n and n < upper(k+1,k+1); the consistent set is a
    nonempty contiguous interval.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    lowers = {1: 1, 2: 2}
    uppers = {1: 1, 2: 2}
    k_top = 2
    for rec in table.records():
        if rec.s == rec.t:
            lowers[rec.s] = max(lowers.get(rec.s, 1), rec.lower)
            uppers[rec.s] = min(uppers.get(rec.s, rec.upper), rec.upper)
            k_top = max(k_top, rec.s)
    lo_eff, running = {}, 1
    for k in range(1, k_top + 1):
        running = max(running, lowers.get(k, 1))
        lo_eff[k] = running
    up_eff, running = {}, None
    for k in range(k_top, 0, -1):
        cap = uppers.get(k)
        if cap is not None:
            running = cap if running is None else min(running, cap)
        up_eff[k] = running  # None: nothing caps R(k,k) from above

    def consistent(k: int) -> bool:
        if lo_eff.get(k, lo_eff[k_top]) > n:
            return False
        cap = up_eff.get(k + 1)  # beyond k_top nothing caps
        return cap is None or n < cap

    k_min = 1
    while not consistent(k_min):
        k_min += 1
    k_max: Optional[int] = k_min
    while k_max is not None and consistent(k_max + 1):
        k_max = None if k_max + 1 > k_top else k_max + 1
    return DiagonalBracket(n, k_min, k_max)
