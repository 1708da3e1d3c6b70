"""Finite consistency checks of Ramsey monotonicity conjectures against a table.

The conjectures compared here all say that R(s1, t1) <= R(s2, t2) whenever the
pair (s2, t2) is "more balanced" in a precise sense: interleaved orders
s1 <= s2 <= t2 <= t1 together with an additive (s1+t1 <= s2+t2), a
multiplicative (s1*t1 <= s2*t2), or a diagonal-square (s*t <= k*k against
(k, k)) side condition. None of this can be proven from a finite table; the
module reports, per instance, whether the known bounds are consistent with the
claimed inequality, contradict it, or cannot decide — and every report carries
the provenance hash of the table it was judged against.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

from .ramsey import BoundsTable, RamseyBoundRecord, recurrence_closure

__all__ = [
    "ConjectureVerdict",
    "EmpiricalRates",
    "RateEntry",
    "Fact23Entry",
    "check_rdc",
    "check_mult_rdc",
    "check_weak_mult_rdc",
    "implication_quadruples",
    "empirical_rates",
    "fact23_report",
]

CONSISTENT = "consistent"
VIOLATED = "violated"
UNDECIDABLE = "undecidable"


@dataclass(frozen=True)
class ConjectureVerdict:
    """One checked instance R(lhs) <= R(rhs) and what the table says about it.

    ``violated`` requires lower(lhs) > upper(rhs) with both bounds present;
    ``undecidable`` means a needed record is absent. ``confirmed`` marks the
    stronger state upper(lhs) <= lower(rhs), where the inequality itself (not
    just its consistency) follows from the table.
    """

    kind: str
    lhs: tuple[int, int]
    rhs: tuple[int, int]
    status: str
    confirmed: bool
    evidence: dict
    table_hash: str

    def to_json_obj(self) -> dict:
        obj = asdict(self)
        obj["instance"] = {key: obj.pop(key) for key in ("kind", "lhs", "rhs")}
        return obj


def _bounds_evidence(rec: Optional[RamseyBoundRecord]) -> Optional[dict]:
    if rec is None:
        return None
    return {"lower": rec.lower, "upper": rec.upper}


def _judge(kind: str, lhs: tuple[int, int], rhs: tuple[int, int],
           table: BoundsTable, table_hash: str) -> ConjectureVerdict:
    """Interval logic for one instance R(lhs) <= R(rhs)."""
    a = table.get(*lhs)
    b = table.get(*rhs)
    evidence = {"lhs": _bounds_evidence(a), "rhs": _bounds_evidence(b)}
    if a is None or b is None:
        return ConjectureVerdict(kind, lhs, rhs, UNDECIDABLE, False, evidence, table_hash)
    status = VIOLATED if a.lower > b.upper else CONSISTENT
    confirmed = a.upper <= b.lower
    return ConjectureVerdict(kind, lhs, rhs, status, confirmed, evidence, table_hash)


def _prepared(table: BoundsTable) -> tuple[BoundsTable, str]:
    """Close the table under the recurrence (base rows included) for judging;
    reports keep the hash of the table as given."""
    return recurrence_closure(table), table.sha256()


def check_rdc(table: BoundsTable, s_max: int = 10) -> list[ConjectureVerdict]:
    """Instances of: interleaved pairs with s1+t1 <= s2+t2 satisfy R1 <= R2.

    Scans all 1 <= s1 <= s2 <= t2 <= t1 <= s_max meeting the additive side
    condition; this includes every near-diagonal case (t-1, t+1) vs (t, t).
    Each such quadruple provably also meets the multiplicative side condition,
    which is asserted along the way.
    """
    closed, digest = _prepared(table)
    out = []
    for s1, t1, s2, t2 in _interleaved(s_max):
        if s1 + t1 <= s2 + t2:
            # s2*t2 - s1*t1 = (s2-s1)(t2-s1) + s1*((s2+t2)-(s1+t1)) >= 0.
            assert s1 * t1 <= s2 * t2, (s1, t1, s2, t2)
            out.append(_judge("rdc", (s1, t1), (s2, t2), closed, digest))
    return out


def check_mult_rdc(table: BoundsTable, s_max: int = 10) -> list[ConjectureVerdict]:
    """Instances of: interleaved pairs with s1*t1 <= s2*t2 satisfy R1 <= R2."""
    closed, digest = _prepared(table)
    return [
        _judge("mult-rdc", (s1, t1), (s2, t2), closed, digest)
        for s1, t1, s2, t2 in _interleaved(s_max)
        if s1 * t1 <= s2 * t2
    ]


def check_weak_mult_rdc(table: BoundsTable, s_max: int = 10) -> list[ConjectureVerdict]:
    """Instances of: s*t <= k*k implies R(s, t) <= R(k, k).

    For each s <= t <= s_max, every admissible k up to s_max is checked (not
    just the minimal one), so the result does not rely on the table's
    diagonal uppers being monotone.
    """
    closed, digest = _prepared(table)
    out = []
    for s in range(1, s_max + 1):
        for t in range(s, s_max + 1):
            k_min = math.isqrt(s * t - 1) + 1
            for k in range(k_min, s_max + 1):
                out.append(_judge("weak-mult-rdc", (s, t), (k, k), closed, digest))
    return out


def _interleaved(s_max: int):
    """All quadruples 1 <= s1 <= s2 <= t2 <= t1 <= s_max, ascending."""
    for s1 in range(1, s_max + 1):
        for s2 in range(s1, s_max + 1):
            for t2 in range(s2, s_max + 1):
                for t1 in range(t2, s_max + 1):
                    yield s1, t1, s2, t2


def implication_quadruples(n_max: int) -> Optional[tuple[int, int, int, int]]:
    """Check that interleaving plus the additive condition forces the
    multiplicative one, over all quadruples in [1, n_max]^4.

    Returns the first (s1, t1, s2, t2) with s1 <= s2 <= t2 <= t1 and
    s1+t1 <= s2+t2 but s1*t1 > s2*t2, or None. The identity
    s2*t2 - s1*t1 = (s2-s1)(t2-s1) + s1*((s2+t2)-(s1+t1)) makes the scan
    provably empty; running it is a mechanical confirmation. Note the
    converse direction is false: (s1, t1, s2, t2) = (1, 4, 2, 2) has equal
    products but sums 5 > 4.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    for s1, t1, s2, t2 in _interleaved(n_max):
        if s1 + t1 <= s2 + t2 and s1 * t1 > s2 * t2:
            return (s1, t1, s2, t2)
    return None


# -- rate reporting ----------------------------------------------------------


@dataclass(frozen=True)
class RateEntry:
    """Normalized growth rate log2(R)/sqrt(s*t) for one pair, as an interval."""

    s: int
    t: int
    exact: bool
    rate_lo: float
    rate_hi: float

    def to_json_obj(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EmpiricalRates:
    """Per-pair normalized rates plus the exact-entry maxima.

    ``max_rate`` maximizes log2(R(s,t))/sqrt(s*t) over exact entries;
    ``max_diagonal_rate`` maximizes log2(R(k,k))/k over exact diagonal
    entries. Either is None when no exact entry qualifies.
    """

    table_hash: str
    entries: tuple[RateEntry, ...]
    max_rate: Optional[float]
    max_diagonal_rate: Optional[float]

    def to_json_obj(self) -> dict:
        return asdict(self)


def empirical_rates(table: BoundsTable) -> EmpiricalRates:
    """Finite surrogates of the growth-rate constants from the table's entries."""
    closed, digest = _prepared(table)
    entries = []
    max_rate: Optional[float] = None
    max_diag: Optional[float] = None
    for rec in closed.records():
        scale = math.sqrt(rec.s * rec.t)
        lo = math.log2(rec.lower) / scale
        hi = math.log2(rec.upper) / scale
        entries.append(RateEntry(rec.s, rec.t, rec.exact, lo, hi))
        if rec.exact:
            if max_rate is None or lo > max_rate:
                max_rate = lo
            if rec.s == rec.t and (max_diag is None or lo > max_diag):
                max_diag = lo
    return EmpiricalRates(digest, tuple(entries), max_rate, max_diag)


@dataclass(frozen=True)
class Fact23Entry:
    """One instance of log2(R(s,t))/sqrt(st) <= log2(R(k,k))/(k-1).

    k is minimal with (k-1)^2 < s*t <= k^2. ``holds`` is None (undecidable)
    when the diagonal entry R(k, k) is absent or not exact.
    """

    s: int
    t: int
    k: int
    lhs: float
    rhs: Optional[float]
    holds: Optional[bool]

    def to_json_obj(self) -> dict:
        return asdict(self)


def fact23_report(table: BoundsTable) -> tuple[Fact23Entry, ...]:
    """Probe the square-bracketing inequality on every exact off-diagonal rate.

    Pairs with s*t = 1 are skipped (they force k = 1 and a zero divisor).
    """
    closed, _ = _prepared(table)
    out = []
    for rec in closed.records():
        if not rec.exact or rec.s * rec.t == 1:
            continue
        st = rec.s * rec.t
        k = math.isqrt(st - 1) + 1
        lhs = math.log2(rec.lower) / math.sqrt(st)
        diag = closed.get(k, k)
        if diag is None or not diag.exact:
            out.append(Fact23Entry(rec.s, rec.t, k, lhs, None, None))
            continue
        rhs = math.log2(diag.lower) / (k - 1)
        out.append(Fact23Entry(rec.s, rec.t, k, lhs, rhs, lhs <= rhs))
    return tuple(out)
