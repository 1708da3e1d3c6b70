"""Exact small Ramsey numbers and a table of known Ramsey bounds.

R(s, t) is the least n such that every red/blue coloring of the edges of K_n
contains a red K_s or a blue K_t. This module computes small values exactly by
vertex-by-vertex backtracking with lexicographic symmetry breaking, run as one
loop over an explicit stack of rows rather than a recursion, propagates
classical recurrence bounds through a table of known intervals, and derives
lower bounds from explicit witness graphs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Optional

from ._records import load_packaged, read_fields, read_records, write_records
from .graphs import Graph, from_edges, to_graph6
from .invariants import (BudgetExceeded, _Counter, _exists_clique, clique_number,
                         independence_number)

__all__ = [
    "RamseyBoundRecord",
    "BoundsTable",
    "RamseyResult",
    "erdos_szekeres_bound",
    "trivial_lower_bound",
    "ramsey_exact_small",
    "lower_bound_from_graph",
    "recurrence_closure",
    "load_bounds_table",
    "save_bounds_table",
    "packaged_bounds_table",
    "query_bound",
]


def erdos_szekeres_bound(s: int, t: int) -> int:
    """The classical upper bound C(s+t-2, s-1) on R(s, t), exact integer."""
    if s < 1 or t < 1:
        raise ValueError(f"need s, t >= 1, got ({s}, {t})")
    return math.comb(s + t - 2, s - 1)


def trivial_lower_bound(s: int, t: int) -> int:
    """(s-1)(t-1) + 1 <= R(s, t), witnessed by a complete (s-1)-partite red graph."""
    if s < 1 or t < 1:
        raise ValueError(f"need s, t >= 1, got ({s}, {t})")
    if s == 1 or t == 1:
        return 1
    return (s - 1) * (t - 1) + 1


@dataclass(frozen=True)
class RamseyBoundRecord:
    """Best known bounds lower <= R(s, t) <= upper for one canonical pair."""

    s: int
    t: int
    lower: int
    upper: int
    source: str = ""

    def __post_init__(self) -> None:
        if self.s < 1 or self.t < 1:
            raise ValueError(f"need s, t >= 1, got ({self.s}, {self.t})")
        if self.s > self.t:
            raise ValueError(f"record must be canonical (s <= t), got ({self.s}, {self.t})")
        if not 1 <= self.lower <= self.upper:
            raise ValueError(
                f"need 1 <= lower <= upper for R({self.s},{self.t}), "
                f"got [{self.lower}, {self.upper}]"
            )
        if self.s == 1 and not (self.lower == self.upper == 1):
            raise ValueError(f"R(1,{self.t}) = 1 exactly, got [{self.lower}, {self.upper}]")
        if self.s == 2 and not (self.lower == self.upper == self.t):
            raise ValueError(f"R(2,{self.t}) = {self.t} exactly, got [{self.lower}, {self.upper}]")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def to_json_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_obj(cls, obj: dict, where: str = "record") -> "RamseyBoundRecord":
        s, t, lower, upper, source = read_fields(obj, where, ("s", int), ("t", int), ("lower", int),
                                                 ("upper", int), ("source", str, ""))
        if s > t:
            s, t = t, s
        try:
            return cls(s, t, lower, upper, source)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


class BoundsTable:
    """Map from canonical (s, t) pairs to their best known bound records.

    Queries are symmetric in (s, t). Adding a second record for an existing
    pair tightens the stored interval; contradictory records are rejected.
    """

    def __init__(self, records: Iterable[RamseyBoundRecord] = ()) -> None:
        self._by_pair: dict[tuple[int, int], RamseyBoundRecord] = {}
        for rec in records:
            self.add(rec)

    def __len__(self) -> int:
        return len(self._by_pair)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        s, t = pair
        return (min(s, t), max(s, t)) in self._by_pair

    def add(self, rec: RamseyBoundRecord) -> None:
        key = (rec.s, rec.t)
        old = self._by_pair.get(key)
        if old is not None:
            lower = max(old.lower, rec.lower)
            upper = min(old.upper, rec.upper)
            if lower > upper:
                raise ValueError(
                    f"contradictory records for R{key}: [{old.lower}, {old.upper}] "
                    f"vs [{rec.lower}, {rec.upper}]"
                )
            source = old.source if rec.source in ("", old.source) else f"{old.source} + {rec.source}"
            rec = RamseyBoundRecord(rec.s, rec.t, lower, upper, source)
        self._by_pair[key] = rec

    def get(self, s: int, t: int) -> Optional[RamseyBoundRecord]:
        return self._by_pair.get((min(s, t), max(s, t)))

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self._by_pair)

    def records(self) -> list[RamseyBoundRecord]:
        return [self._by_pair[p] for p in self.pairs()]

    def to_json_obj(self) -> list[dict]:
        return [rec.to_json_obj() for rec in self.records()]

    def sha256(self) -> str:
        """Content hash of the canonical serialization, for report provenance."""
        payload = json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("ascii")).hexdigest()


def query_bound(table: BoundsTable, s: int, t: int) -> Optional[RamseyBoundRecord]:
    """The stored record for (s, t) in either order, or None when absent."""
    if s < 1 or t < 1:
        raise ValueError(f"need s, t >= 1, got ({s}, {t})")
    return table.get(s, t)


def load_bounds_table(path) -> BoundsTable:
    """Load a JSON array of bound records, validating every entry."""
    return BoundsTable(RamseyBoundRecord.from_json_obj(obj, where=where)
                       for where, obj in read_records(path))


def save_bounds_table(table: BoundsTable, path) -> None:
    """Write the table as a JSON array, one record per line, sorted by (s, t)."""
    write_records(table.to_json_obj(), path)


def packaged_bounds_table() -> BoundsTable:
    """The bounds table shipped with the package (1 <= s <= t <= 10)."""
    return load_packaged("ramsey_bounds.json", load_bounds_table)


def recurrence_closure(table: BoundsTable) -> BoundsTable:
    """Propagate R(s,t) <= R(s-1,t) + R(s,t-1) (minus 1 when both are even).

    Fills the bounding box 1 <= s <= t <= max(t) with base rows R(1,t) = 1 and
    R(2,t) = t, the trivial lower bound (s-1)(t-1)+1 for created records, and
    upper bounds tightened by the recurrence. Existing lower bounds are never
    changed, existing uppers never loosened; the operation is idempotent.
    """
    if len(table) == 0:
        return BoundsTable()
    t_max = max(t for _, t in table.pairs())
    out: dict[tuple[int, int], RamseyBoundRecord] = {}
    for s in range(1, t_max + 1):
        for t in range(s, t_max + 1):
            existing = table.get(s, t)
            if s <= 2:
                value = 1 if s == 1 else t
                if existing is not None:
                    # Record invariants already force exactness on base rows.
                    out[(s, t)] = existing
                else:
                    out[(s, t)] = RamseyBoundRecord(s, t, value, value, "derived: base row")
                continue
            a = out[(s - 1, t)].upper
            b = out[(min(s, t - 1), max(s, t - 1))].upper
            cand = a + b - (1 if a % 2 == 0 and b % 2 == 0 else 0)
            if existing is None:
                lower = trivial_lower_bound(s, t)
                if lower > cand:
                    raise ValueError(
                        f"inconsistent table: trivial lower {lower} exceeds "
                        f"recurrence upper {cand} for R({s},{t})"
                    )
                out[(s, t)] = RamseyBoundRecord(
                    s, t, lower, cand, "derived: trivial lower, recurrence upper"
                )
            elif cand < existing.upper:
                out[(s, t)] = replace(
                    existing,
                    upper=cand,
                    source=(existing.source + "; upper tightened by recurrence").lstrip("; "),
                )
            else:
                out[(s, t)] = existing
    return BoundsTable(out.values())


def lower_bound_from_graph(g: Graph, source: str = "") -> RamseyBoundRecord:
    """The bound R(omega+1, alpha+1) >= n+1 witnessed by an n-vertex graph.

    The graph itself (red = edges, blue = non-edges) avoids red K_{omega+1}
    and blue K_{alpha+1}. The record's upper bound is the binomial bound.
    """
    omega = clique_number(g).value
    alpha = independence_number(g).value
    s, t = sorted((omega + 1, alpha + 1))
    if not source:
        source = f"lower: witness graph on {g.n} vertices; upper: binomial bound"
    return RamseyBoundRecord(s, t, g.n + 1, erdos_szekeres_bound(s, t), source)


# -- exact search ------------------------------------------------------------


@dataclass(frozen=True)
class RamseyResult:
    """Outcome of an exact search: a certified interval, exact when it closes.

    ``lower`` is always certified by a verified witness coloring on lower - 1
    vertices (``witness_red``; the blue graph is its complement). ``upper`` is
    certified by exhausting all colorings on ``upper`` vertices, and is None
    when the search stopped (budget or size cap) before any exhaustion.
    """

    s: int
    t: int
    lower: int
    upper: Optional[int]
    nodes: int
    witness_red: Optional[Graph]
    budget_exhausted: bool = False

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper

    @property
    def value(self) -> Optional[int]:
        return self.lower if self.exact else None

    @property
    def witness_blue(self) -> Optional[Graph]:
        return None if self.witness_red is None else self.witness_red.complement()

    def witness_graph6(self) -> Optional[tuple[str, str]]:
        """The witness coloring as (red graph6, blue graph6), or None."""
        if self.witness_red is None:
            return None
        return to_graph6(self.witness_red), to_graph6(self.witness_blue)


class _ColoringSearch:
    """DFS for a red/blue coloring of K_n with no red K_s and no blue K_t.

    Vertices are added one at a time; each new vertex's color vector toward
    earlier vertices is built bit by bit with incremental clique pruning.
    After each completed row, transposition symmetry breaking rejects any
    partial coloring that a swap of two labels would make lexicographically
    smaller (blue < red, columns in vertex order), so only one labeled
    representative per tracked symmetry survives. The lexicographically
    smallest valid coloring is never rejected, which keeps both existence and
    nonexistence conclusions sound. Every row step ticks ``counter``, which
    holds the node count and budget of a whole ``ramsey_exact_small`` call.

    ``run_from`` is one loop over an explicit stack, not a recursion: the row
    being built is its two partial masks, whose bits record the color chosen
    at each decided position (a blue bit still has red to try, a red bit is
    done), and each accepted row is committed into the red and blue rows,
    with the label swaps it was checked against pushed on a stack, to be
    restored when the search backs up into it.
    """

    def __init__(self, s: int, t: int, n: int, counter: _Counter) -> None:
        self.s, self.t, self.n = s, t, n
        self.counter = counter
        self.witness: Optional[list[int]] = None

    def run_from(self) -> bool:
        """Search from the empty coloring; True iff a full valid coloring,
        left in ``witness``, was found."""
        n = self.n
        red = [0] * n
        blue = [0] * n
        tick = self.counter.tick
        ks, kt = self.s - 2, self.t - 2
        # With symmetric roles the color swap is a symmetry; fixing the first
        # edge blue halves the tree without losing existence.
        blue_first_edge = self.s == self.t
        v = 0
        pending: list[tuple[int, int]] = []
        # The ties each accepted row below v was checked against.
        accepted: list[list[tuple[int, int]]] = []
        u = rmask = bmask = 0
        while True:
            # Visit the node (v, u, rmask, bmask): bits 0..u-1 of row v are decided.
            tick()
            if u < v:
                # Blue first: blue bits sort lexicographically below red ones.
                blue_ok = not _exists_clique(blue, bmask & blue[u], kt)
                bmask |= 1 << u
                u += 1
                if blue_ok:
                    continue
                # Blue is pruned at u: back up as if its subtree were exhausted.
            else:
                ties = _accept_row(red, v, rmask, pending)
                if ties is not None:
                    red[v] = rmask
                    blue[v] = bmask
                    bit = 1 << v
                    for x in range(v):
                        if rmask >> x & 1:
                            red[x] |= bit
                        else:
                            blue[x] |= bit
                    v += 1
                    if v == n:
                        self.witness = list(red)
                        return True
                    accepted.append(pending)
                    pending = ties
                    u = rmask = bmask = 0
                    continue
            # Back up from an exhausted node to the nearest position whose red
            # child is still untried and not pruned; then visit that child.
            while True:
                if u == 0:
                    if v == 0:
                        return False
                    v -= 1
                    pending = accepted.pop()
                    low = (1 << v) - 1
                    rmask = red[v] & low
                    bmask = blue[v] & low
                    red[v] = blue[v] = 0
                    keep = ~(1 << v)
                    for x in range(v):
                        red[x] &= keep
                        blue[x] &= keep
                    u = v
                    continue
                u -= 1
                bit = 1 << u
                if rmask & bit:
                    rmask ^= bit
                    continue
                bmask ^= bit
                if blue_first_edge and v == 1:
                    continue
                if not _exists_clique(red, rmask & red[u], ks):
                    rmask |= bit
                    u += 1
                    break


def _accept_row(red: list[int], v: int, rmask: int,
                pending: list[tuple[int, int]]) -> Optional[list[tuple[int, int]]]:
    """Symmetry-break the completed row v, whose red bits toward 0..v-1 are ``rmask``.

    Returns None if swapping two labels makes the coloring lexicographically
    smaller (columns 1..v in vertex order, rows ascending, blue < red), or else
    the label swaps still tied, which the next rows must decide. ``red`` holds
    rows 0..v-1, symmetric over those vertices; row v is not yet committed.
    """
    # A swap (i, j) tied before row v is decided by the new column alone, at
    # rows i and j.
    ties = []
    for i, j in pending:
        ci = rmask >> i & 1
        cj = rmask >> j & 1
        if ci == cj:
            ties.append((i, j))
        elif ci:
            return None
    # Under the swap (i v) only positions in rows or columns i and v move. The
    # first in column-major order is the first x < v, x != i, where rows i and
    # v differ (column i's rows x < i come first; at x > i, column x meets rows
    # i and v; column v repeats the same comparisons). The image is smaller iff
    # row i is red there.
    low = (1 << v) - 1
    for i in range(v):
        diff = (red[i] ^ rmask) & low & ~(1 << i)
        if not diff:
            ties.append((i, v))
        elif red[i] & diff & -diff:
            return None
    return ties


def _multipartite_witness(s: int, t: int) -> Graph:
    """Complete (s-1)-partite red graph with parts of size t-1: the classical
    witness that R(s, t) > (s-1)(t-1)."""
    n = (s - 1) * (t - 1)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if i // (t - 1) != j // (t - 1):
                edges.append((i, j))
    return from_edges(n, edges)


def _verify_witness(red: Graph, s: int, t: int) -> None:
    if clique_number(red).value >= s:
        raise RuntimeError(f"witness verification failed: red clique of size {s} present")
    if clique_number(red.complement()).value >= t:
        raise RuntimeError(f"witness verification failed: blue clique of size {t} present")


def _search_size(s: int, t: int, n: int,
                 counter: _Counter) -> tuple[Optional[list[int]], bool]:
    """Decide whether a valid coloring of K_n exists, ticking ``counter`` per row step.

    Returns (witness red rows or None, budget_exhausted)."""
    search = _ColoringSearch(s, t, n, counter)
    try:
        search.run_from()
    except BudgetExceeded:
        return None, True
    return search.witness, False


def ramsey_exact_small(s: int, t: int, n_max: int = 64,
                       node_budget: Optional[int] = None,
                       workers: int = 1) -> RamseyResult:
    """Compute R(s, t) exactly by backtracking search, or a certified interval.

    Starting from the verified multipartite witness on (s-1)(t-1) vertices,
    the search decides one size at a time whether a valid coloring exists.
    The first size with none is the exact value. If the node budget runs out
    or the size cap n_max is passed first, the result is the interval
    certified so far (upper bound None). One budget counts the row-search
    nodes of all sizes in search order, so ``nodes`` never exceeds it and
    equal inputs give equal results on any machine. ``workers`` is validated
    but has no effect: the search runs in the calling thread.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not 2 <= s <= t:
        raise ValueError(f"need 2 <= s <= t, got ({s}, {t})")
    if n_max > 64:
        raise ValueError(f"n_max must be <= 64, got {n_max}")

    counter = _Counter(node_budget)
    witness = _multipartite_witness(s, t)
    _verify_witness(witness, s, t)
    lower = witness.n + 1
    while lower <= n_max:
        rows, over = _search_size(s, t, lower, counter)
        if over:
            return RamseyResult(s, t, lower, None, counter.count, witness, budget_exhausted=True)
        if rows is None:
            return RamseyResult(s, t, lower, lower, counter.count, witness)
        witness = Graph(lower, tuple(rows))
        _verify_witness(witness, s, t)
        lower += 1
    return RamseyResult(s, t, lower, None, counter.count, witness)
