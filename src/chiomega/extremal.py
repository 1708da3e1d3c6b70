"""Extremal chromatic-to-clique ratios: exact small maxima and witness search.

The central quantity is the largest ratio chi(G)/omega(G) over all graphs G on
n vertices. For n <= 9 it is computed exactly by isomorph-free exhaustive
enumeration, and the package ships those values; for larger n, a fixed
portfolio of explicit constructions gives certified lower bounds (every
reported ratio is backed by a concrete witness graph whose invariants are
recomputed exactly).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from ._records import load_packaged, read_fields, read_records, write_records
from .graphs import (
    MAX_VERTICES,
    Graph,
    complete_graph,
    cycle_graph,
    from_graph6,
    mycielski,
    paley_graph,
    to_graph6,
)
from .invariants import (BudgetExceeded, _Counter, _chromatic, _color_sort,
                          _dsatur_greedy, _max_clique, chromatic_number,
                          clique_number, independence_number)

__all__ = [
    "Ratio",
    "SearchMeta",
    "RatioRecord",
    "RatioWitnessReport",
    "TableVerdict",
    "canonical_graphs",
    "max_ratio_exact",
    "max_ratio_search",
    "normalized_ratio_lower",
    "verify_ratio_table",
    "save_ratio_table",
    "load_ratio_table",
    "ratio_csv",
    "packaged_ratio_table",
]


@functools.total_ordering
class Ratio:
    """An exact chi/omega ratio kept as the unreduced integer pair.

    Comparisons cross-multiply, so no floating point is involved; 4/2 and 2/1
    compare equal while preserving the witness's actual invariant values.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int) -> None:
        if den < 1 or num < den:
            raise ValueError(f"need num >= den >= 1, got {num}/{den}")
        self.num = num
        self.den = den

    def __repr__(self) -> str:
        return f"Ratio({self.num}, {self.den})"

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ratio):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __lt__(self, other: "Ratio") -> bool:
        return self.num * other.den < other.num * self.den

    def __hash__(self) -> int:
        return hash(Fraction(self.num, self.den))

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)


@dataclass(frozen=True)
class SearchMeta:
    """How a record was produced.

    ``nodes`` counts extension tests for an exhaustive record and portfolio
    graphs scored for a search record.
    """

    nodes: int = 0


@dataclass(frozen=True)
class RatioRecord:
    """Best chi/omega ratio found for one n, with its witness graph."""

    n: int
    value: Ratio
    witness: Graph
    exhaustive: bool
    meta: SearchMeta = field(default_factory=SearchMeta)

    def __post_init__(self) -> None:
        if self.witness.n != self.n:
            raise ValueError(f"witness has {self.witness.n} vertices, record says {self.n}")

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "chi": self.value.num,
            "omega": self.value.den,
            "witness_graph6": to_graph6(self.witness),
            "exhaustive": self.exhaustive,
        }

    @classmethod
    def from_json_obj(cls, obj: dict, where: str = "record") -> "RatioRecord":
        n, chi, omega, witness, exhaustive = read_fields(
            obj, where, ("n", int), ("chi", int), ("omega", int), ("witness_graph6", str),
            ("exhaustive", bool))
        try:
            return cls(n, Ratio(chi, omega), from_graph6(witness), exhaustive)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class RatioWitnessReport:
    """Exact invariants of one graph and the (log2 n)^2/(alpha*omega) bound."""

    n: int
    graph: Graph
    chi: int
    omega: int
    alpha: int
    g_lower: float


# -- isomorph-free enumeration ----------------------------------------------
#
# A labeled graph is stored as its column-major upper-triangle bitstring: the
# bits (u, v) for u < v, grouped by the higher vertex v, rows ascending. A
# labeling is canonical when no permutation of the vertices yields a smaller
# string. Deleting the last vertex of a canonically labeled graph removes a
# suffix of the string and leaves a canonically labeled graph (any better
# relabeling of the prefix would extend to a better relabeling of the whole),
# so canonical graphs form a tree under "add one vertex": enumerating each
# size's canonical extensions visits every isomorphism class exactly once,
# with no stored seen-set.
#
# The canonicity test places vertices one position at a time. With positions
# 0..v-1 filled, a free vertex's column at position v is compared with the
# identity's column v row by row, row 0 first, and only the free vertices tied
# so far matter. So the tie set is one bitmask, narrowed by one neighbourhood
# mask per row: where the identity has a 1, a tied vertex with a 0 has the
# smaller column and beats the identity; where it has a 0, the tied vertices
# with a 1 are larger and drop out. This is the lexicographic comparison of
# every free vertex's column at once, so it accepts exactly the labelings that
# the vertex-by-vertex comparison does; no column is ever built.
#
# Positions that are twins in the identity's own prefix graph G[0..w-1] (equal
# neighbourhoods apart from each other) form a cell; twinship there is an
# equivalence whose classes are all false twins or all true twins. Permuting a
# cell's positions is an automorphism of that prefix, so the string up to
# column w does not depend on which of the cell's vertices sits where, and the
# search keeps one vertex set per cell, not one vertex per position. The least
# column a free vertex can then get puts its non-neighbours in each cell first:
# at the i-th of a cell's k positions, holding the set V, it has a 1 exactly
# when it sees at least k - i members of V. Those are the cell's rows, and the
# tie loop above, run on them, tells exactly whether some arrangement within
# the cells beats the identity or ties it. A tied vertex y splits each cell's
# set into its non-neighbours and its neighbours, which fill the cell's first
# and last positions; position w joins the part it is a twin of, and y is
# placed only when it is larger than every vertex already there, so that each
# set is built once, not once per order of its members. That rule and the
# skip of a vertex's twins in G agree: a relabeling of G that sends the
# vertices placed from each of its twin classes to the class's smallest ones,
# applied to a tie, gives a tie that the search reaches, because two twins of
# G land in one cell when the later of them is placed and so go in ascending
# order. A tied vertex that sees every neighbour of the first one tried and
# more is skipped too: swapping the two gives a smaller string, so no labeling
# with the least string places it there, and reaching one of those is all the
# search needs when the identity is beaten. The cells at each depth depend
# only on the parent's rows, so ``_plan`` works them out once per parent.


def _twins(adj: tuple[int, ...], p: int, w: int) -> bool:
    """Whether positions p < w are twins in the prefix graph G[0..w]."""
    return not (adj[p] ^ adj[w]) & ((2 << w) - 1) & ~(1 << p | 1 << w)


def _plan(adj: tuple[int, ...], base: Optional[tuple] = None) -> tuple:
    """The cell steps of the canonicity test of ``adj``'s children, which
    depend only on ``adj``: (steps, cells, last). ``base``, the plan of
    ``adj`` less its last vertex, saves redoing its steps.

    ``steps[w]`` is (join, updates) for placing position w. ``join`` is
    (source, side, leader, positions, whole) when w is a twin of part of a
    cell, the new cell's set being the source cell's set cut by the placed
    vertex's neighbourhood (side 1) or its complement (side 0), plus that
    vertex; ``whole`` says that the part is all of the source cell. It is None
    when w starts a cell of its own. ``updates`` lists the other parts of the
    cells that w's column splits, in the same form. ``cells`` are the twin
    classes of ``adj``, positions ascending. ``last`` holds the position masks
    of those with two or more positions, or is None when ``adj`` is not
    canonical because one of its own columns is not sorted within a cell.
    """
    steps, cells, last = base or ((), (), ())
    for w in range(len(steps), len(adj)):
        if last is None:
            break
        col = adj[w]
        parts = []
        updates = []
        join = None
        for cell in cells:
            lo = tuple(p for p in cell if not col >> p & 1)
            hi = tuple(p for p in cell if col >> p & 1)
            if lo and hi and lo[-1] > hi[0]:
                last = None  # a permutation of the cell beats the column
                break
            for side, part in ((0, lo), (1, hi)):
                if not part:
                    continue
                if join is None and _twins(adj, part[0], w):
                    part += (w,)
                    join = (cell[0], side, part[0], part, not (lo and hi))
                elif lo and hi:
                    updates.append((cell[0], side, part[0], part))
                parts.append(part)
        else:
            if join is None:
                parts.append((w,))
            steps += ((join, tuple(updates)),)
            cells = tuple(parts)
            last = tuple(sum(1 << p for p in cell) for cell in cells if len(cell) > 1)
    return steps, cells, last


def _cell_rows(adj: tuple[int, ...], cell: int, k: int) -> list[int]:
    """Rows of a cell of k positions holding the vertex set ``cell``, first
    position first: the i-th is the set of vertices adjacent to at least k - i
    of its members."""
    ge = [-1] + [0] * k  # ge[j]: vertices adjacent to at least j members seen
    seen = 0
    while cell:
        bit = cell & -cell
        cell ^= bit
        row = adj[bit.bit_length() - 1]
        seen += 1
        for j in range(seen, 0, -1):
            ge[j] |= ge[j - 1] & row
    return ge[k:0:-1]


def _is_canonical(adj: tuple[int, ...], plan: Optional[tuple] = None) -> bool:
    """Whether the labeled graph's bitstring is minimal over all relabelings.

    ``plan`` is ``_plan`` of the graph less its last vertex, built here when
    not given.
    """
    n = len(adj)
    if plan is None:
        plan = _plan(adj[:-1])
    steps, _, last = plan
    if last is None:
        return False
    # The identity's own last column must be sorted within each cell, or
    # permuting a cell already beats it.
    col = adj[-1]
    for cell in last:
        part = col & cell
        if part and part != cell & -(part & -part):
            return False

    def beaten(v: int, free: int, state: list[int]) -> bool:
        # True means some completion of positions v.. beats the identity
        # labeling. state[u]: row of position u; state[n + p]: the vertex set
        # of the cell whose first position is p.
        eq = free
        own = adj[v]
        for u in range(v):
            if own >> u & 1:
                if eq & ~state[u]:
                    return True  # otherwise every tied vertex has a 1 and stays tied
            else:
                eq &= ~state[u]
                if not eq:
                    return False
        if v == n - 1:
            return False
        join, updates = steps[v]
        first = eq & -eq
        first_row = adj[first.bit_length() - 1]
        while eq:
            bit = eq & -eq
            eq ^= bit
            row = adj[bit.bit_length() - 1]
            # A vertex that sees every neighbour of the first vertex tried
            # here (apart from each other) is skipped. For a twin, swapping
            # the two is an automorphism that fixes the placed prefix; for a
            # vertex with more neighbours, the swap turns the first of its
            # extra edges into a 0 in the string, so the least string never
            # places it here.
            if bit != first and not first_row & ~row & ~bit:
                continue
            if join is None:
                nxt = state[:]
                nxt[v] = row
                nxt[n + v] = bit
            else:
                src, side, lead, pos, whole = join
                cell = state[n + src] & row if side else state[n + src] & ~row
                if cell > bit:
                    continue  # the same set comes with its largest vertex last
                nxt = state[:]
                cell |= bit
                nxt[n + lead] = cell
                if whole:
                    # The cell was not split, so its rows are those of the
                    # set without the new vertex: add it to each threshold.
                    prev = 0
                    for p in pos[:-1]:
                        r = state[p]
                        nxt[p] = prev | r & row
                        prev = r
                    nxt[v] = prev | row
                else:
                    for p, r in zip(pos, _cell_rows(adj, cell, len(pos))):
                        nxt[p] = r
            for src, side, lead, pos in updates:
                cell = state[n + src] & row if side else state[n + src] & ~row
                nxt[n + lead] = cell
                if len(pos) == 1:
                    nxt[lead] = adj[cell.bit_length() - 1]
                else:
                    for p, r in zip(pos, _cell_rows(adj, cell, len(pos))):
                        nxt[p] = r
            if beaten(v + 1, free ^ bit, nxt):
                return True
        return False

    canonical = not beaten(0, (1 << n) - 1, [0] * (2 * n))
    # beaten refers to itself through its closure: break that cycle so that
    # each call frees its rows at once, not at the next garbage collection.
    del beaten
    return canonical


def _extend(adj: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """Add one vertex adjacent to ``mask``."""
    k = len(adj)
    bit = 1 << k
    # One tuple of the final size: tuple(<generator>) would build one of a
    # guessed size and resize it, which moves memory between CPython's
    # per-size tuple free lists and grows the process over repeated searches.
    return (*(row | bit if mask >> v & 1 else row for v, row in enumerate(adj)), mask)


MaskSource = Callable[[tuple[int, ...]], Iterable[int]]


def _all_masks(counter: _Counter) -> MaskSource:
    """Every extension mask of a parent in ascending order, ticking ``counter``
    once per mask: the source that generates all graphs."""
    def masks(adj: tuple[int, ...]) -> Iterator[int]:
        for mask in range(1 << len(adj)):
            counter.tick()
            yield mask
    return masks


def _candidate(adj: tuple[int, ...], mask: int) -> Optional[tuple[int, ...]]:
    """The child of ``adj`` whose new vertex is adjacent to ``mask``, or None
    when swapping its last two vertices already gives a smaller string."""
    # Swapping the last two vertices leaves the earlier columns alone and puts
    # the mask below the parent's last vertex in place of that vertex's row.
    # Where the two first differ, a 1 in the row means the swap gives a smaller
    # string: the child is not canonical. (The mask's bit at the parent's last
    # vertex, where the row has none, belongs to a later column and never
    # rejects.)
    col = adj[-1]
    d = mask ^ col
    if col & d & -d:
        return None
    return _extend(adj, mask)


def _child(adj: tuple[int, ...], mask: int, plan: tuple) -> Optional[tuple[int, ...]]:
    """The child of ``adj`` whose new vertex is adjacent to ``mask``, or None
    when that child is not canonically labeled; ``plan`` is ``_plan(adj)``."""
    child = _candidate(adj, mask)
    return child if child is not None and _is_canonical(child, plan) else None


def _canonical_descendants(adj: tuple[int, ...], n: int, masks: MaskSource,
                           base: Optional[tuple] = None) -> Iterator[tuple[int, ...]]:
    """``adj``, then every canonical graph with at most n vertices below it in
    the extension tree, in pre-order.

    ``masks(parent)`` gives the neighbourhoods a new vertex may take, in
    ascending order, and does the source's own node counting. A source that
    keeps only the children of a hereditary class generates that class: every
    canonical graph's parent is an induced subgraph of it, so pruning at the
    parent loses no class. Yields in a fixed order; a caller that wants one
    order keeps the graphs of that length. ``base`` is the ``_plan`` of
    ``adj`` less its last vertex, when known.
    """
    yield adj
    if len(adj) < n:
        plan = _plan(adj, base)
        for mask in masks(adj):
            child = _child(adj, mask, plan)
            if child is not None:
                yield from _canonical_descendants(child, n, masks, plan)


def canonical_graphs(n: int) -> Iterator[Graph]:
    """All graphs on n vertices up to isomorphism, one canonical labeling each."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"need 1 <= n <= {MAX_VERTICES}, got {n}")
    for adj in _canonical_descendants((0,), n, _all_masks(_Counter())):
        if len(adj) == n:
            yield Graph(n, adj)


def _prefer(cand: tuple[Ratio, Graph], best: Optional[tuple[Ratio, Graph]]) -> bool:
    """Deterministic maximum: larger ratio, then fewer edges, then graph6 order."""
    if best is None:
        return True
    r, g = cand
    br, bg = best
    if r != br:
        return r > br
    e, be = g.num_edges(), bg.num_edges()
    if e != be:
        return e < be
    return to_graph6(g) < to_graph6(bg)


def _classes(colors: list[int]) -> tuple[int, ...]:
    """The colour classes, as vertex masks, of a colouring with colours 1..k."""
    classes = [0] * max(colors)
    for v, c in enumerate(colors):
        classes[c - 1] |= 1 << v
    return tuple(classes)


def _parent_ups(adj: tuple[int, ...],
                clique: int) -> Iterator[tuple[int, Optional[tuple[int, ...]]]]:
    """Upper bounds on chi(child) for every child of a graph with this maximum
    clique, cheapest first: one colour more than a greedy colouring in label
    order, than a DSATUR one (chi is at most a greedy count, so neither is
    tighter than the last), and than an optimal one, with its classes as masks."""
    n = len(adj)
    yield _color_sort(adj, (1 << n) - 1)[1][-1] + 1, None
    greedy = _dsatur_greedy(adj, n)
    yield max(greedy) + 1, None
    chi, colors, _ = _chromatic(adj, clique, greedy, None)
    yield chi + 1, _classes(colors)


def _child_bounds(mask: int, classes: tuple[int, ...], clique: int) -> tuple[int, int]:
    """(up, lo) with chi(child) <= up and omega(child) >= lo, for the child of a
    parent with these colour classes (of any proper colouring) and maximum
    clique whose new vertex is adjacent to ``mask``.

    The new vertex takes a colour that it sees nowhere, else a new one; it
    extends the clique if it sees all of it. When the colouring is optimal,
    chi(child) >= len(classes) as well: the parent is an induced subgraph of
    the child.
    """
    up = len(classes)
    for c in classes:
        if not mask & c:
            break
    else:
        up += 1
    return up, clique.bit_count() + (mask & clique == clique)


def _cannot_win(up: int, lo: int, edges: int, bar: Optional[tuple[int, int, int]]) -> bool:
    """Whether every graph with chi/omega <= up/lo and ``edges`` edges loses
    under ``_prefer`` to an incumbent whose (chi, omega, edges) is ``bar``.

    The first two keys of ``_prefer`` decide it: a lower ratio bound, or an
    equal one with more edges. Equal edges are left to the graph6 tie-break.
    Nothing loses when there is no incumbent (None).
    """
    if bar is None:
        return False
    chi, omega, bar_edges = bar
    d = up * omega - chi * lo
    return d < 0 or (d == 0 and edges > bar_edges)


def max_ratio_exact(n: int, node_budget: Optional[int] = None, workers: int = 1) -> RatioRecord:
    """The exact maximum of chi/omega over all n-vertex graphs, with witness.

    Enumerates isomorphism classes by canonical extension and keeps the best
    ratio under the deterministic tie-break (fewer edges, then graph6 order),
    with one incumbent for the whole walk. The walk goes to n - 2 vertices;
    the last two levels are bounded. A parent none of whose children can beat
    the incumbent on ratio, then on fewer edges, is passed over whole, from
    cheap bounds to dear ones: its grandparent's DSATUR colouring and clique,
    before the parent is built; two greedy colourings of its own; the
    canonicity test; and its exact chi. A parent that survives them is solved
    once, and each neighbourhood of the new vertex then goes from cheap steps
    to expensive ones: the ``_child_bounds`` skip, the check on the last two
    columns, the child's clique number and the skip it allows, chi and the
    skip it allows, the tie-break against the incumbent, and last the
    canonicity test, which only a child that would become the incumbent takes.

    An unbudgeted run starts the bound at a floor: the (chi, omega, edges) of
    ``max_ratio_search(n)``'s record, certified by exact solves. The walk
    itself still finds and labels the record, because the floor only prunes
    graphs that lose to it on ratio or on edges, and ``_prefer`` is a total
    order: the record is that of a walk without the floor, which may make
    more extension tests. A budgeted run has no floor, so the incumbent it
    reports at a cut is that of the bare walk.

    Exhaustive mode covers 1 <= n <= 9; n = 9 (274,668 classes) takes 284,954
    extension tests, about 0.65 s on a shared 2-core machine (CPython
    3.11.7). Larger n are refused — use ``max_ratio_search`` there. ``nodes``
    and a budget count the extension tests made, one per neighbourhood drawn
    for a new vertex, in depth-first order; a parent passed over whole takes
    none. A record that a budget cuts short is not exhaustive. ``workers`` is
    validated but has no effect: the search runs in the calling thread.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > 9:
        raise ValueError(f"exhaustive mode is capped at n <= 9; use max_ratio_search for n = {n}")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    counter = _Counter(node_budget)
    if n == 1:
        # K1 has no parent to extend and takes no extension test.
        return RatioRecord(1, Ratio(1, 1), Graph(1, (0,)), exhaustive=True)
    every = _all_masks(counter)
    part: Optional[tuple[Ratio, Graph]] = None
    bar: Optional[tuple[int, int, int]] = None  # part's (chi, omega, edges), or the floor's
    if node_budget is None:
        floor = max_ratio_search(n)
        bar = (floor.value.num, floor.value.den, floor.witness.num_edges())

    def parents() -> Iterator[tuple[tuple[int, ...], int, int, tuple[int, ...]]]:
        # The canonical graphs on n - 1 vertices some child of which may beat
        # the incumbent (``bar`` is read as it stands), each with its edges,
        # maximum clique and optimal colour classes. A parent is a grandparent
        # g on n - 2 vertices plus a mask. Its children have one colour more
        # than its chi, at least its clique and at least its edges, so it is
        # dropped on the first bound that rules them all out, cheapest first:
        # g's DSATUR classes and clique, before the parent is built; the
        # parent's greedy colourings; and, once it is known to be canonical,
        # its exact chi.
        if n == 2:
            yield (0,), 0, 1, (1,)  # K1 has no grandparent: it is taken as is
            return
        for g in _canonical_descendants((0,), n - 2, every):
            if len(g) < n - 2:
                continue
            g_edges = sum(row.bit_count() for row in g) // 2
            g_clique = _max_clique(g, (1 << (n - 2)) - 1)[1]
            g_classes = _classes(_dsatur_greedy(g, n - 2))
            plan = None
            for mask in every(g):
                up, lo = _child_bounds(mask, g_classes, g_clique)
                edges = g_edges + mask.bit_count()
                if _cannot_win(up + 1, lo, edges, bar):
                    continue
                adj = _candidate(g, mask)
                if adj is None:
                    continue
                clique = _max_clique(adj, (1 << (n - 1)) - 1)[1]
                lo = clique.bit_count()
                ups = _parent_ups(adj, clique)
                if any(_cannot_win(up, lo, edges, bar) for up, _ in itertools.islice(ups, 2)):
                    continue
                if plan is None:
                    plan = _plan(g)
                if not _is_canonical(adj, plan):
                    continue
                up, classes = next(ups)
                if not _cannot_win(up, lo, edges, bar):
                    yield adj, edges, clique, classes

    complete = True
    try:
        for adj, edges, clique, classes in parents():
            plan = None
            for mask in every(adj):
                # A child whose bounds cannot win against the incumbent is
                # never built; the mask is still counted.
                up, lo = _child_bounds(mask, classes, clique)
                child_edges = edges + mask.bit_count()
                if _cannot_win(up, lo, child_edges, bar):
                    continue
                child = _candidate(adj, mask)
                if child is None:
                    continue
                g = Graph(n, child)
                omega = clique_number(g).value
                # Skip the chromatic solve when even the bound on chi cannot win.
                if _cannot_win(up, omega, child_edges, bar):
                    continue
                chi = chromatic_number(g).value
                # Against the floor, before any incumbent, _prefer alone would
                # take a child that loses to it: the exact chi decides first.
                if _cannot_win(chi, omega, child_edges, bar):
                    continue
                cand = (Ratio(chi, omega), g)
                # Only a child that would become the incumbent is tested for
                # canonicity. One that is not canonical is dropped, so the
                # incumbents are those of testing every child before scoring it.
                if not _prefer(cand, part):
                    continue
                if plan is None:
                    plan = _plan(adj)
                if _is_canonical(child, plan):
                    part = cand
                    bar = (chi, omega, child_edges)
    except BudgetExceeded:
        complete = False
    if part is None:
        if node_budget is None:
            raise RuntimeError(f"the floor {bar} beat every graph on {n} vertices")
        raise BudgetExceeded("budget too small to score any graph")
    value, witness = part
    return RatioRecord(n, value, witness, exhaustive=complete, meta=SearchMeta(nodes=counter.count))


# -- lower-bound search ------------------------------------------------------


def _padded(g: Graph, n: int) -> Graph:
    """Lift a witness to n vertices; isolated vertices change neither chi nor omega."""
    return g.add_isolated(n - g.n)


def _construction_portfolio(n: int) -> list[tuple[str, Graph]]:
    """Named construction graphs on exactly n vertices, deterministic order."""
    out: list[tuple[str, Graph]] = [("complete", complete_graph(n))]
    if n >= 5:
        out.append(("cycle5", _padded(cycle_graph(5), n)))
    tower = complete_graph(2)
    level = 0
    while tower.n * 2 + 1 <= n:
        tower = mycielski(tower)
        level += 1
        out.append((f"mycielski^{level}(K2)", _padded(tower, n)))
    # No Paley(5): it is cycle5 under the same labelling. The C5 mycielski^1(K2) stays
    # until the re-baseline: its tie with cycle5 makes the to_graph6 calls of the search
    # benchmark, and of the enum benchmark through max_ratio_exact's floor.
    for q in (13, 17, 29, 37, 41, 53, 61):
        if q <= n:
            out.append((f"paley{q}", _padded(paley_graph(q), n)))
    return out


_CHI_BUDGET = 2_000_000


def _score_exact(g: Graph) -> Optional[Ratio]:
    """chi/omega with a certified chi, or None when the solver cannot close it."""
    chi = chromatic_number(g, node_budget=_CHI_BUDGET)
    if not chi.exact:
        return None
    return Ratio(chi.value, clique_number(g).value)


def max_ratio_search(n: int, strategy: str = "hybrid", seed: int = 0,
                     workers: int = 1) -> RatioRecord:
    """Best certified chi/omega lower bound among the construction portfolio.

    Scores each portfolio graph (complete graph, padded 5-cycle, iterated
    Mycielski towers, Paley graphs) with exact invariants and keeps the best
    under the deterministic tie-break, so the result is always a true lower
    bound. A graph whose chi the solver cannot close within its budget is
    skipped; the complete graph, scored first, is always exact. ``strategy``
    must be "constructions" or "hybrid" and ``workers`` at least 1, but
    neither they nor ``seed`` have any effect; ``strategy`` and ``seed`` go
    with the ROADMAP item "Re-baseline the benchmark to the sequential
    program".
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"need 1 <= n <= {MAX_VERTICES}, got {n}")
    if strategy not in ("constructions", "hybrid"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    portfolio = _construction_portfolio(n)
    best: Optional[tuple[Ratio, Graph]] = None
    for _, g in portfolio:
        r = _score_exact(g)
        if r is not None and _prefer((r, g), best):
            best = (r, g)
    value, witness = best
    return RatioRecord(n, value, witness, exhaustive=False, meta=SearchMeta(nodes=len(portfolio)))


def normalized_ratio_lower(g: Graph) -> RatioWitnessReport:
    """Exact alpha, omega, chi of one graph and the (log2 n)^2/(alpha*omega) bound.

    The bound is a certified lower bound on the normalized extremal ratio
    f(n) * (log2 n)^2 / n, via chi >= n/alpha and the witness inequality
    chi/omega * (log2 n)^2 / n >= (log2 n)^2 / (alpha * omega).
    """
    if g.n < 2:
        raise ValueError("need n >= 2 (log2-squared normalization degenerates)")
    alpha = independence_number(g).value
    omega = clique_number(g).value
    chi = chromatic_number(g).value
    bound = math.log2(g.n) ** 2 / (alpha * omega)
    return RatioWitnessReport(n=g.n, graph=g, chi=chi, omega=omega, alpha=alpha, g_lower=bound)


# -- table verification and persistence --------------------------------------


@dataclass(frozen=True)
class TableVerdict:
    """Outcome of re-verifying a ratio table; ok iff no problems found."""

    ok: bool
    problems: tuple[str, ...] = ()


def verify_ratio_table(records: list[RatioRecord]) -> TableVerdict:
    """Recompute every witness's invariants and check value and monotonicity.

    The maximum ratio never decreases with n — an isolated vertex added to
    any witness preserves both chi and omega — so consecutive records must be
    monotone. An empty list passes vacuously.
    """
    problems: list[str] = []
    prev: Optional[RatioRecord] = None
    for rec in records:
        chi = chromatic_number(rec.witness).value
        omega = clique_number(rec.witness).value
        if chi != rec.value.num or omega != rec.value.den:
            problems.append(
                f"n={rec.n}: witness recomputes to {chi}/{omega}, record says {rec.value}"
            )
        if prev is not None:
            if rec.n != prev.n + 1:
                problems.append(f"n={rec.n}: records not consecutive (previous n={prev.n})")
            if rec.value < prev.value:
                problems.append(
                    f"n={rec.n}: value {rec.value} below f({prev.n}) = {prev.value} "
                    "(monotonicity violated)"
                )
        prev = rec
    return TableVerdict(ok=not problems, problems=tuple(problems))


def save_ratio_table(records: list[RatioRecord], path) -> None:
    """Write records as a JSON array, one object per line, ordered as given."""
    write_records((r.to_json_obj() for r in records), path)


def load_ratio_table(path) -> list[RatioRecord]:
    """Load a JSON array of ratio records, validating each entry."""
    return [RatioRecord.from_json_obj(obj, where=where) for where, obj in read_records(path)]


def ratio_csv(records: list[RatioRecord]) -> str:
    """CSV text (n, f, exhaustive) with f as an exact fraction string."""
    lines = ["n,f,exhaustive"]
    for rec in records:
        lines.append(f"{rec.n},{rec.value.num}/{rec.value.den},{str(rec.exhaustive).lower()}")
    return "\n".join(lines) + "\n"


def packaged_ratio_table() -> list[RatioRecord]:
    """The f(n) table shipped with the package (exhaustive for n <= 9)."""
    return load_packaged("f_table.json", load_ratio_table)
