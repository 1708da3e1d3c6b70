"""Simple undirected graphs on at most 64 vertices, stored as row bitsets.

Every vertex set and neighborhood is a Python int used as a bitmask, so
set operations are single word operations for the sizes we care about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 64


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Immutable graph: ``adj[i]`` is the neighbor bitmask of vertex ``i``."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {self.n}")
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency has {len(self.adj)} rows for {self.n} vertices")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {i} has bits beyond vertex {self.n - 1}")
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
        for i in range(self.n):
            for j in bits(self.adj[i]):
                if not self.adj[j] >> i & 1:
                    raise ValueError(f"adjacency not symmetric at ({i}, {j})")

    # -- basic queries ------------------------------------------------------

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (i, j) pairs with i < j."""
        out = []
        for i in range(self.n):
            for j in bits(self.adj[i] >> (i + 1) << (i + 1)):
                out.append((i, j))
        return out

    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- derived graphs -----------------------------------------------------

    def complement(self) -> Graph:
        full = self.full_mask()
        return Graph(self.n, tuple((full ^ row) & ~(1 << i) for i, row in enumerate(self.adj)))

    def induced(self, mask: int) -> Graph:
        """Induced subgraph on the vertices of ``mask``, relabeled in order."""
        verts = list(bits(mask))
        if not verts:
            raise ValueError("induced subgraph needs at least one vertex")
        pos = {v: k for k, v in enumerate(verts)}
        rows = []
        for v in verts:
            row = 0
            for u in bits(self.adj[v] & mask):
                row |= 1 << pos[u]
            rows.append(row)
        return Graph(len(verts), tuple(rows))

    def add_isolated(self, count: int) -> Graph:
        """Pad with ``count`` isolated vertices (keeps chi and omega)."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        return Graph(self.n + count, self.adj + (0,) * count)

    def relabeled(self, perm: list[int]) -> Graph:
        """Apply a permutation: new vertex ``k`` is old vertex ``perm[k]``."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        pos = [0] * self.n
        for k, v in enumerate(perm):
            pos[v] = k
        rows = []
        for v in perm:
            row = 0
            for u in bits(self.adj[v]):
                row |= 1 << pos[u]
            rows.append(row)
        return Graph(self.n, tuple(rows))


# -- constructors -----------------------------------------------------------


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop ({i}, {j})")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << i) for i in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    if g.n + h.n > MAX_VERTICES:
        raise ValueError("union exceeds the vertex cap")
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, tuple(rows))


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def paley_graph(q: int) -> Graph:
    """Paley graph on a prime q = 1 (mod 4): edges are quadratic-residue differences."""
    if not _is_prime(q):
        raise ValueError(f"q={q} is not prime")
    if q % 4 != 1:
        raise ValueError(f"q={q} is not 1 mod 4, difference set would not be symmetric")
    if q > MAX_VERTICES:
        raise ValueError(f"q={q} exceeds the vertex cap {MAX_VERTICES}")
    residues = {x * x % q for x in range(1, q)}
    rows = []
    for i in range(q):
        row = 0
        for j in range(q):
            if i != j and (i - j) % q in residues:
                row |= 1 << j
        rows.append(row)
    return Graph(q, tuple(rows))


def mycielski(g: Graph) -> Graph:
    """Mycielskian: one shadow per vertex wired to its neighborhood, plus an apex.

    Raises the chromatic number by one while keeping the graph triangle-free
    if the input was.
    """
    if 2 * g.n + 1 > MAX_VERTICES:
        raise ValueError(f"mycielski of n={g.n} would exceed the vertex cap")
    n = g.n
    out = 2 * n + 1
    rows = [0] * out
    for i in range(n):
        for j in bits(g.adj[i]):
            rows[i] |= 1 << j
            rows[i] |= 1 << (n + j)
            rows[n + i] |= 1 << j
    apex = 2 * n
    for i in range(n):
        rows[n + i] |= 1 << apex
        rows[apex] |= 1 << (n + i)
    return Graph(out, tuple(rows))


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a given seed.

    Pairs are drawn in ascending (i, j) order from ``random.Random(seed)``,
    so the output is reproducible across platforms.
    """
    import random

    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"n must be in 1..{MAX_VERTICES}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    rng = random.Random(seed)
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


# -- graph6 -----------------------------------------------------------------


def to_graph6(g: Graph) -> str:
    """Encode in the standard graph6 format (upper triangle, column order)."""
    if g.n <= 62:
        head = chr(g.n + 63)
    else:
        head = "~" + "".join(chr((g.n >> k & 0x3F) + 63) for k in (12, 6, 0))
    bitstream = []
    for j in range(1, g.n):
        for i in range(j):
            bitstream.append(g.adj[i] >> j & 1)
    while len(bitstream) % 6:
        bitstream.append(0)
    chars = []
    for k in range(0, len(bitstream), 6):
        val = 0
        for b in bitstream[k : k + 6]:
            val = val << 1 | b
        chars.append(chr(val + 63))
    return head + "".join(chars)


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string (optionally prefixed with '>>graph6<<')."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 string")
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise ValueError("unsupported graph6 size header")
        n = 0
        for c in s[1:4]:
            n = n << 6 | (ord(c) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"graph6 vertex count {n} outside 1..{MAX_VERTICES}")
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise ValueError(f"graph6 body has {len(body)} chars, expected {(need + 5) // 6}")
    stream = []
    for c in body:
        val = ord(c) - 63
        if not 0 <= val < 64:
            raise ValueError(f"invalid graph6 character {c!r}")
        stream.extend(val >> k & 1 for k in range(5, -1, -1))
    if any(stream[need:]):
        raise ValueError("nonzero padding bits in graph6 string")
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if stream[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(n, tuple(rows))
