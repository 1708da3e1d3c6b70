"""Shared test helpers: brute-force oracles, named graphs, and a CLI runner.

The brute-force invariants are deliberately naive (subset enumeration,
exhaustive color assignment) so they share no code or ideas with the solvers
they check.
"""

from __future__ import annotations

import io
import itertools
from contextlib import redirect_stdout

from chiomega.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    from_edges,
    mycielski,
    paley_graph,
    path_graph,
)


def brute_omega(g: Graph) -> int:
    """Largest clique by enumerating every vertex subset (n <= ~12)."""
    best = 0
    for r in range(g.n, 0, -1):
        for subset in itertools.combinations(range(g.n), r):
            if all(g.has_edge(i, j) for i, j in itertools.combinations(subset, 2)):
                return r
    return best


def brute_alpha(g: Graph) -> int:
    return brute_omega(g.complement())


def brute_first_max_clique(g: Graph, within=None) -> tuple[int, ...]:
    """The first maximum clique inside ``within`` (default: all vertices) in
    ``itertools.combinations`` order.

    Sizes go up from 1 and stop at the first size with no clique; cliques are
    closed under subsets, so the last size found is the maximum.
    """
    verts = sorted(range(g.n) if within is None else within)
    best: tuple[int, ...] = ()
    for r in range(1, len(verts) + 1):
        first = next((subset for subset in itertools.combinations(verts, r)
                      if all(g.has_edge(i, j) for i, j in itertools.combinations(subset, 2))),
                     None)
        if first is None:
            break
        best = first
    return best


def brute_chi(g: Graph) -> int:
    """Smallest k admitting a proper k-coloring, by exhaustive assignment."""
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        def feasible(colors: list[int]) -> bool:
            v = len(colors) - 1
            return all(not g.has_edge(u, v) or colors[u] != colors[v] for u in range(v))

        def extend(colors: list[int]) -> bool:
            if len(colors) == g.n:
                return True
            for c in range(k):
                colors.append(c)
                if feasible(colors) and extend(colors):
                    return True
                colors.pop()
            return False

        if extend([]):
            return k
    raise AssertionError("unreachable")


def subset_dp_chi(g: Graph) -> int:
    """Fewest independent sets covering all vertices, by dynamic programming
    over vertex subsets (no search; 3^n steps, so n <= ~13).

    chi(S) = 1 + min chi(S minus I) over the independent sets I of S that
    hold the lowest vertex of S: that vertex's color class is one of them.
    """
    n = g.n
    independent = [True] * (1 << n)
    for s in range(1, 1 << n):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        independent[s] = independent[rest] and not any(
            g.has_edge(low, u) for u in range(n) if rest >> u & 1)
    chi = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        best = n
        sub = rest
        while True:
            if independent[sub | low]:
                best = min(best, chi[rest ^ sub] + 1)
            if not sub:
                break
            sub = (sub - 1) & rest
        chi[s] = best
    return chi[-1]


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return from_edges(10, outer + inner + spokes)


def named_graphs() -> dict[str, Graph]:
    """The constructions exercised across the suite."""
    c5 = cycle_graph(5)
    return {
        "k1": complete_graph(1),
        "k4": complete_graph(4),
        "k6": complete_graph(6),
        "c5": c5,
        "c7": cycle_graph(7),
        "path6": path_graph(6),
        "petersen": petersen_graph(),
        "grotzsch": mycielski(c5),
        "double_mycielski": mycielski(mycielski(c5)),
        "paley13": paley_graph(13),
        "paley17": paley_graph(17),
        "two_c5": disjoint_union(c5, c5),
        "k33": from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)]),
    }


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Invoke the CLI in-process, returning (exit code, stdout text)."""
    from chiomega import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()
