"""Exact graph invariants: clique number, independence number, chromatic number.

The clique solver is a branch-and-bound over vertex bitmasks with a greedy
coloring upper bound; the chromatic solver is a DSATUR-style branch-and-bound
seeded with the clique lower bound. Both are exact and deterministic: all
tie-breaks are fixed. Clique and independent-set witnesses are the
lexicographically smallest ones. A coloring witness is the first coloring with
chi colors in the fixed DSATUR order (the greedy DSATUR coloring when that is
already optimal), not necessarily the lexicographically smallest: the search
never expands a node that already uses as many colors as the best coloring
found, so a later coloring with as many colors never replaces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .graphs import Graph, _induced_rows, bits, complement_rows


class BudgetExceeded(Exception):
    """Raised internally when a solver runs out of search nodes."""


def _check_budget(budget: Optional[int]) -> None:
    """Refuse a negative budget; None means unlimited."""
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")


class _Counter:
    """Nodes of one budgeted search; ``tick`` refuses the node past ``limit`` (None: unlimited)."""

    __slots__ = ("count", "limit")

    def __init__(self, limit: Optional[int] = None) -> None:
        _check_budget(limit)
        self.count = 0
        self.limit = limit

    def tick(self) -> None:
        if self.count == self.limit:
            raise BudgetExceeded
        self.count += 1


@dataclass(frozen=True)
class ColoringCertificate:
    """A proper-coloring witness: one 0-based color index per vertex."""

    colors: tuple[int, ...]
    num_colors: int

    def __post_init__(self) -> None:
        if self.num_colors != len(set(self.colors)):
            raise ValueError("num_colors does not match the distinct colors present")


@dataclass(frozen=True)
class ExactInvariantResult:
    """An invariant value plus the witness that certifies it.

    ``witness`` is a vertex bitmask for clique/independent-set invariants and a
    ColoringCertificate for the chromatic number. ``exact`` is False only when
    a node budget stopped the search before optimality was proven.
    """

    value: int
    witness: Union[int, ColoringCertificate]
    exact: bool


@dataclass(frozen=True)
class GreedyColoringStats:
    """Per-run record of the extract-maximum-independent-sets coloring."""

    m0: int
    extracted_sizes: tuple[int, ...]
    r_observed: int
    leftover: int
    colors_used: int

    def __post_init__(self) -> None:
        if any(s < 1 for s in self.extracted_sizes):
            raise ValueError("every extracted set must be nonempty")
        if self.leftover >= self.m0:
            raise ValueError("leftover must be below the cutoff")
        if self.colors_used != len(self.extracted_sizes) + self.leftover:
            raise ValueError("colors_used must equal extractions plus leftover")


# -- maximum clique ---------------------------------------------------------


def _color_sort(adj: tuple[int, ...], cand: int) -> tuple[list[int], list[int]]:
    """Greedy-color the candidate set; returns vertices with ascending color bounds."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    rest = cand
    while rest:
        color += 1
        avail = rest
        while avail:
            b = avail & -avail
            v = b.bit_length() - 1
            avail &= ~adj[v]
            avail ^= b
            rest ^= b
            order.append(v)
            bounds.append(color)
    return order, bounds


def _max_clique(adj: tuple[int, ...], cand: int) -> tuple[int, int]:
    """Size and one witness mask of a maximum clique inside ``cand``."""
    best = 0
    best_mask = 0

    def expand(cand: int, size: int, mask: int) -> None:
        nonlocal best, best_mask
        order, bounds = _color_sort(adj, cand)
        remaining = cand
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = order[i]
            remaining ^= 1 << v
            sub = remaining & adj[v]
            if sub:
                expand(sub, size + 1, mask | 1 << v)
            elif size + 1 > best:
                best = size + 1
                best_mask = mask | 1 << v

    if cand:
        expand(cand, 0, 0)
    # expand refers to itself through its closure: break that cycle so that
    # each call is freed at once, not at the next garbage collection.
    del expand
    return best, best_mask


def _exists_clique(adj: tuple[int, ...], cand: int, k: int) -> bool:
    """Decision version: does ``cand`` contain a clique on k vertices?

    Cliques on up to three vertices are looked for directly; from k = 4 on a
    greedy coloring of ``cand`` bounds the branch and bound.
    """
    if k <= 1:
        return k <= 0 or cand != 0
    # For k = 2 and 3, each vertex is tried against the candidates above it only.
    if k == 2:
        while cand:
            b = cand & -cand
            cand ^= b
            if cand & adj[b.bit_length() - 1]:
                return True
        return False
    if k == 3:
        while cand:
            b = cand & -cand
            cand ^= b
            nb = cand & adj[b.bit_length() - 1]
            while nb:
                c = nb & -nb
                nb ^= c
                if nb & adj[c.bit_length() - 1]:
                    return True
        return False
    if cand.bit_count() < k:
        return False
    order, bounds = _color_sort(adj, cand)
    if bounds[-1] < k:
        return False
    remaining = cand
    for i in range(len(order) - 1, -1, -1):
        if bounds[i] < k:
            return False
        v = order[i]
        remaining ^= 1 << v
        if _exists_clique(adj, remaining & adj[v], k - 1):
            return True
    return False


def _lex_smallest_clique(adj: tuple[int, ...], cand: int) -> int:
    """Lexicographically smallest maximum clique in ``cand`` (as a sorted vertex set)."""
    size, _ = _max_clique(adj, cand)
    mask = 0
    for need in range(size, 0, -1):
        for v in bits(cand):
            above = ~((1 << (v + 1)) - 1)
            sub = cand & adj[v] & above
            if need == 1 or _exists_clique(adj, sub, need - 1):
                mask |= 1 << v
                cand = sub
                break
        else:
            raise AssertionError("clique witness reconstruction failed")
    return mask


def clique_number(g: Graph) -> ExactInvariantResult:
    """Exact clique number with the lexicographically smallest maximum clique."""
    witness = _lex_smallest_clique(g.adj, g.full_mask())
    return ExactInvariantResult(value=witness.bit_count(), witness=witness, exact=True)


def independence_number(g: Graph) -> ExactInvariantResult:
    """Exact independence number: the clique number of the complement."""
    return clique_number(g.complement())


# -- chromatic number -------------------------------------------------------


def _dsatur_greedy(adj: tuple[int, ...], n: int) -> list[int]:
    """DSATUR heuristic coloring; colors are 1-based, 0 means uncolored."""
    colors = [0] * n
    neighbor_colors = [0] * n
    for _ in range(n):
        pick = -1
        pick_key = (-1, -1)
        for v in range(n):
            if colors[v]:
                continue
            key = (neighbor_colors[v].bit_count(), adj[v].bit_count())
            if key > pick_key:
                pick_key = key
                pick = v
        used = neighbor_colors[pick]
        c = 1
        while used >> c & 1:
            c += 1
        colors[pick] = c
        for u in bits(adj[pick]):
            neighbor_colors[u] |= 1 << c
    return colors


def _normalize_colors(colors: list[int]) -> ColoringCertificate:
    """Relabel colors to 0-based indices in order of first appearance."""
    remap: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return ColoringCertificate(colors=tuple(out), num_colors=len(remap))


def _chromatic(adj: tuple[int, ...], clique_mask: int, greedy: list[int],
               node_budget: Optional[int]) -> tuple[int, list[int], bool]:
    """``chromatic_number``'s search on rows, from a maximum clique mask and the
    ``_dsatur_greedy`` coloring: (k, colors, exact), colors 1..k all used, optimal
    when ``exact``, else the best coloring found before the budget ran out."""
    n = len(adj)
    omega = clique_mask.bit_count()
    best_k = max(greedy)
    if best_k == omega:
        return best_k, greedy, True  # the clique bound alone is met
    # An isolated vertex is in every maximum independent set, so alpha is their
    # number plus the independence number of the rest; the clique search in the
    # complement then skips them, where padding makes it slowest.
    core = 0
    for v, row in enumerate(adj):
        if row:
            core |= 1 << v
    alpha = n - core.bit_count() + _max_clique(complement_rows(adj), core)[0]
    # Two standard lower bounds: the clique bound and the independence-number
    # bound ceil(n / alpha); the search may stop as soon as either is met.
    lower = max(omega, -(-n // alpha))
    if best_k == lower:
        return best_k, greedy, True

    # The search runs over positions: the vertices relabelled by degree
    # descending, then label ascending, so that among the most saturated
    # uncolored positions the lowest one is DSATUR's pick (saturation, degree,
    # lowest label). near[c] holds the uncolored positions with a neighbor
    # colored c. Bit k of every position's saturation count (its number of
    # distinct neighbor colors) is kept in one int, sat[k]. Counts stay below
    # best_k, so planes = bit length of best_k - 1 suffices.
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    radj = _induced_rows(adj, order)
    planes = (best_k - 1).bit_length()
    up = range(planes)
    down = range(planes - 1, -1, -1)
    sat = [0] * planes
    near = [0] * best_k
    pcolors = [0] * n
    best_pcolors: Optional[list[int]] = None

    # Pre-color a maximum clique with distinct colors; any optimal coloring
    # can be renamed to agree with this, so no solutions are lost.
    free = (1 << n) - 1
    for v in bits(clique_mask):
        free ^= 1 << pos[v]
    for c, v in enumerate(bits(clique_mask), 1):
        p = pos[v]
        pcolors[p] = c
        near[c] = t = radj[p] & free
        carry = t
        for k in up:
            x = sat[k]
            sat[k] = x ^ carry
            carry &= x

    # Nodes are counted inline and only under a budget, not by _Counter.tick:
    # a call per node cost about 5% more CPU on the unbudgeted 448,613-node
    # solve of padded Mycielski^4(K2) that rechecks f search's n = 48 witness.
    nodes = 0
    exact = True

    # Each node owns its saturation planes: a child gets a copy with its
    # increments added, so nothing is undone on the way back. Colors are tried
    # in ascending order. The pick's saturation s says that exactly
    # max_used - s of the colors 1..max_used are free for it; ``left`` counts
    # those not yet tried, and once it is 0 the scan skips to the new color
    # max_used + 1. No position is colored max_used + 1 yet, so
    # near[max_used + 1] is 0.
    def descend(free: int, max_used: int, sat: list[int]) -> None:
        nonlocal best_k, best_pcolors, nodes
        # A node that already uses best_k colors cannot lead to a better coloring.
        if max_used >= best_k or best_k == lower:
            return
        if node_budget is not None:
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded
        if not free:
            best_k = max_used
            best_pcolors = pcolors[:]
            return
        # Narrow the uncolored positions to the highest saturation, plane by
        # plane from the top, taking that saturation off ``left``; the lowest
        # position left is the pick.
        cand = free
        left = max_used
        for k in down:
            x = cand & sat[k]
            if x:
                cand = x
                left -= 1 << k
        b = cand & -cand
        p = b.bit_length() - 1
        free ^= b
        nbrs = radj[p] & free
        c = 0
        while True:
            if left:
                c += 1
                old = near[c]
                if old & b:
                    continue
                left -= 1
            elif c <= max_used:
                c = max_used + 1
                old = 0
            else:
                return
            if c >= best_k:
                return
            pcolors[p] = c
            # Coloring p with c saturates its uncolored neighbors not yet next
            # to c: add one to each of their counts (ripple carry).
            t = nbrs & ~old
            near[c] = old | t
            child = sat[:]
            carry = t
            for k in up:
                x = child[k]
                child[k] = x ^ carry
                carry &= x
                if not carry:
                    break
            descend(free, c if c > max_used else max_used, child)
            near[c] = old
            if best_k == lower:
                return

    try:
        descend(free, omega, sat)
    except BudgetExceeded:
        exact = False
    # descend refers to itself through its closure: break that cycle so that
    # the search state is freed at once, not at the next garbage collection.
    del descend
    if best_pcolors is None:
        return best_k, greedy, exact
    return best_k, [best_pcolors[p] for p in pos], exact


def chromatic_number(g: Graph, node_budget: Optional[int] = None) -> ExactInvariantResult:
    """Exact chromatic number via DSATUR branch-and-bound.

    Exactness comes either from the clique lower bound matching the upper
    bound or from exhausting the search below it. With a ``node_budget`` the
    search may stop early, returning the best coloring found with
    ``exact=False``. A negative budget is a ValueError.
    """
    _check_budget(node_budget)
    clique_mask = _max_clique(g.adj, g.full_mask())[1]
    value, colors, exact = _chromatic(g.adj, clique_mask, _dsatur_greedy(g.adj, g.n), node_budget)
    return ExactInvariantResult(value=value, witness=_normalize_colors(colors), exact=exact)


def is_proper_coloring(g: Graph, cert: ColoringCertificate) -> bool:
    """True iff no edge of ``g`` is monochromatic under the certificate."""
    if len(cert.colors) != g.n:
        raise ValueError(f"certificate colors {len(cert.colors)} vertices, graph has {g.n}")
    for i, j in g.edges():
        if cert.colors[i] == cert.colors[j]:
            return False
    return True


# -- greedy maximum-independent-set coloring --------------------------------


def greedy_erdos_coloring(g: Graph, m0: int) -> tuple[ColoringCertificate, GreedyColoringStats]:
    """Color by extracting maximum independent sets until under ``m0`` vertices remain.

    Each extraction is one color class (lex-smallest maximum independent set of
    the remaining induced subgraph); every leftover vertex gets a fresh color.
    The number of colors is at most ceil(n / r) + m0 where r is the smallest
    extracted size.
    """
    if not 1 <= m0 <= g.n:
        raise ValueError(f"m0 must be in 1..{g.n}, got {m0}")
    comp = g.complement()
    remaining = g.full_mask()
    colors = [0] * g.n
    color_id = 0
    extracted: list[int] = []
    while remaining.bit_count() >= m0:
        mask = _lex_smallest_clique(comp.adj, remaining)
        for v in bits(mask):
            colors[v] = color_id
        extracted.append(mask.bit_count())
        remaining &= ~mask
        color_id += 1
    leftover = remaining.bit_count()
    for v in bits(remaining):
        colors[v] = color_id
        color_id += 1
    stats = GreedyColoringStats(
        m0=m0,
        extracted_sizes=tuple(extracted),
        r_observed=min(extracted),
        leftover=leftover,
        colors_used=color_id,
    )
    cert = ColoringCertificate(colors=tuple(colors), num_colors=color_id)
    return cert, stats
