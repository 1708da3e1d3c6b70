"""Exact small Ramsey numbers and a table of known Ramsey bounds.

R(s, t) is the least n such that every red/blue coloring of the edges of K_n
contains a red K_s or a blue K_t. Such a coloring with neither is an
(s, t)-graph (red = edges): no K_s and no independent t-set. This module
computes small values exactly by orderly generation of (s, t)-graphs, one
isomorphism class at a time, with the generator that enumerates all graphs
for f(n); propagates classical recurrence bounds through a table of known
intervals; and derives lower bounds from explicit witness graphs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Iterator, Optional

from ._records import load_packaged, read_fields, read_records, write_records
from .extremal import MaskSource, _canonical_descendants
from .graphs import MAX_VERTICES, Graph, complement_rows, from_edges, to_graph6
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
            # The distinct non-empty " + " fragments of both, in first-seen order.
            parts = f"{old.source} + {rec.source}".split(" + ")
            source = " + ".join(dict.fromkeys(p for p in parts if p))
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
    when the search stopped (node budget or vertex cap) before any exhaustion.
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


def _ramsey_masks(s: int, t: int, counter: _Counter) -> MaskSource:
    """The extension masks that keep a child an (s, t)-graph, in ascending order.

    The new vertex is red-adjacent (an edge) to the vertices inside the mask
    and blue-adjacent to those outside. The child is an (s, t)-graph iff its
    parent is and the mask holds no red K_{s-1} and its outside no blue
    K_{t-1}. Bits are decided from the highest to the lowest vertex, outside
    before inside, and each choice is pruned by one clique decision. The
    depth-first search runs as one loop over an explicit stack of choices,
    not as a recursion per bit. It ticks ``counter`` once per node: the empty
    mask of each parent, and each bit decided.
    """
    ks, kt = s - 2, t - 2
    tick = counter.tick

    def masks(red: tuple[int, ...]) -> Iterator[int]:
        k = len(red)
        blue = complement_rows(red)
        tick()
        # (vertex u, put it inside?, mask so far, outside so far); the top is tried next.
        stack = [(k - 1, True, 0, 0), (k - 1, False, 0, 0)]
        while stack:
            u, inside, mask, out = stack.pop()
            bit = 1 << u
            if inside:
                if _exists_clique(red, mask & red[u], ks):
                    continue
                mask |= bit
            else:
                if _exists_clique(blue, out & blue[u], kt):
                    continue
                out |= bit
            tick()
            if u:
                stack.append((u - 1, True, mask, out))
                stack.append((u - 1, False, mask, out))
            else:
                yield mask

    return masks


class _ColoringSearch:
    """Search for red/blue colorings of K_n with no red K_s and no blue K_t,
    one size n at a time in ascending order.

    Such a coloring is an (s, t)-graph on n vertices (red = edges): a graph
    with no K_s and no independent t-set. The search holds one pre-order walk
    of ``canonical_graphs``'s generator fed with ``_ramsey_masks``, so each
    class is visited once, and each size resumes it: a graph comes after its
    parent, so the first graph on n + 1 vertices comes after the first on n.
    The mask searches tick ``counter``, one budget for all sizes.
    """

    def __init__(self, s: int, t: int, counter: _Counter) -> None:
        self.walk = _canonical_descendants((0,), MAX_VERTICES, _ramsey_masks(s, t, counter))

    def run_from(self, n: int) -> Optional[tuple[int, ...]]:
        """Resume the walk to its first graph on n vertices and return its red
        rows, or None when the walk ends without one."""
        return next((adj for adj in self.walk if len(adj) == n), None)


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


def _search_size(search: _ColoringSearch, n: int) -> tuple[Optional[tuple[int, ...]], bool]:
    """Resume ``search`` to n vertices: (witness red rows or None, budget_exhausted)."""
    try:
        return search.run_from(n), False
    except BudgetExceeded:
        return None, True


def ramsey_exact_small(s: int, t: int, node_budget: Optional[int] = None,
                       workers: int = 1) -> RamseyResult:
    """Compute R(s, t) exactly by orderly generation of (s, t)-graphs, or a
    certified interval.

    Starting from the verified multipartite witness on (s-1)(t-1) vertices,
    the search decides one size at a time whether an (s, t)-graph, that is a
    valid coloring, exists. The first size with none is the exact value. If
    the node budget runs out first, or the search passes MAX_VERTICES, the
    result is the interval certified so far (upper bound None). All sizes
    share one walk of the generation tree, so only the exhausted size walks
    all of it, and one budget counts the nodes of its mask searches in order:
    ``nodes`` never exceeds it and equal inputs give equal results on any
    machine. ``workers`` is validated but has no effect: the search runs in
    the calling thread.

    A pair with (s-1)(t-1) > MAX_VERTICES is a ValueError: its starting
    witness does not fit in a Graph. At (s-1)(t-1) = MAX_VERTICES, for
    example (2, 65), no size is left to search, so the result is the open
    interval [MAX_VERTICES + 1, None] with 0 nodes.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not 2 <= s <= t:
        raise ValueError(f"need 2 <= s <= t, got ({s}, {t})")
    if (s - 1) * (t - 1) > MAX_VERTICES:
        raise ValueError(f"({s}, {t}) needs a starting witness on (s-1)(t-1) = "
                         f"{(s - 1) * (t - 1)} vertices, above the cap of {MAX_VERTICES}")

    counter = _Counter(node_budget)
    search = _ColoringSearch(s, t, counter)
    witness = _multipartite_witness(s, t)
    _verify_witness(witness, s, t)
    for lower in range(witness.n + 1, MAX_VERTICES + 1):
        rows, over = _search_size(search, lower)
        if over or rows is None:
            return RamseyResult(s, t, lower, None if over else lower, counter.count, witness,
                                budget_exhausted=over)
        witness = Graph(lower, rows)
        _verify_witness(witness, s, t)
    return RamseyResult(s, t, witness.n + 1, None, counter.count, witness)
