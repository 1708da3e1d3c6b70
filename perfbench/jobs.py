"""Workloads of the chiomega benchmark: jobs, their inputs and answer checks.

Each job calls one public entry point of the package, looked up on the
``chiomega`` package at call time so that a tracer can wrap it. Expected
answers are known values written out here, never taken from the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import chiomega
from chiomega.graphs import Graph, to_graph6
from chiomega.invariants import chromatic_number, clique_number, is_proper_coloring

WORKLOADS = ("enum", "ramsey", "search")

# Thread-pool size passed to the solvers, per workload.
WORKERS = {"enum": 1, "ramsey": 2, "search": 1}

# f(n) = max chi/omega over n-vertex graphs; 5-cycle plus isolated vertices from n = 5.
F_VALUES = {n: Fraction(1) if n <= 4 else Fraction(3, 2) for n in range(1, 9)}

# Radziszowski, "Small Ramsey Numbers" (EJC DS1).
RAMSEY_VALUES = {(3, 3): 6, (3, 4): 9, (3, 5): 14}


def verify_ratio_witness(g: Graph, chi: int, omega: int) -> list[str]:
    """Recompute chi (with a proper-coloring certificate) and omega of a witness."""
    problems = []
    got = chromatic_number(g)
    if not got.exact:
        problems.append("witness chi did not certify on recomputation")
    if not is_proper_coloring(g, got.witness) or got.witness.num_colors != got.value:
        problems.append("witness chi certificate is not a proper coloring with chi colors")
    if got.value != chi:
        problems.append(f"witness chi recomputes to {got.value}, record says {chi}")
    got_omega = clique_number(g).value
    if got_omega != omega:
        problems.append(f"witness omega recomputes to {got_omega}, record says {omega}")
    return problems


@dataclass(frozen=True)
class EnumJob:
    """Exhaustive f(n) by isomorph-free enumeration."""

    n: int
    expected: Fraction
    workers: int = 1

    def label(self) -> str:
        return f"max_ratio_exact(n={self.n}, workers={self.workers})"

    def run(self):
        return chiomega.max_ratio_exact(self.n, workers=self.workers)

    def check(self, rec) -> list[str]:
        problems = []
        if rec.value.as_fraction() != self.expected:
            problems.append(f"f({self.n}) = {rec.value}, expected {self.expected}")
        if not rec.exhaustive:
            problems.append("record is not exhaustive")
        if rec.witness.n != self.n:
            problems.append(f"witness has {rec.witness.n} vertices")
            return problems
        return problems + verify_ratio_witness(rec.witness, rec.value.num, rec.value.den)

    def answer(self, rec) -> dict:
        return {"n": self.n, "value": str(rec.value), "exhaustive": rec.exhaustive,
                "witness_graph6": to_graph6(rec.witness)}

    def counts(self, rec) -> dict:
        return {"extremal.extension_tests": rec.meta.nodes}


@dataclass(frozen=True)
class RamseyJob:
    """Exact R(s, t) by exhaustive two-coloring search."""

    s: int
    t: int
    expected: int
    workers: int = 2

    def label(self) -> str:
        return f"ramsey_exact_small(s={self.s}, t={self.t}, workers={self.workers})"

    def run(self):
        return chiomega.ramsey_exact_small(self.s, self.t, workers=self.workers)

    def check(self, res) -> list[str]:
        if not res.exact or res.value != self.expected:
            return [f"R({self.s},{self.t}) search gave [{res.lower}, {res.upper}], "
                    f"expected exactly {self.expected}"]
        red = res.witness_red
        if red is None or red.n != self.expected - 1:
            return [f"witness is not on {self.expected - 1} vertices"]
        problems = []
        if clique_number(red).value >= self.s:
            problems.append(f"red witness contains a red K_{self.s}")
        if clique_number(red.complement()).value >= self.t:
            problems.append(f"red witness complement contains a blue K_{self.t}")
        return problems

    def answer(self, res) -> dict:
        return {"s": self.s, "t": self.t, "lower": res.lower, "upper": res.upper,
                "witness_red_graph6": None if res.witness_red is None else to_graph6(res.witness_red)}

    def counts(self, res) -> dict:
        return {"ramsey.row_nodes": res.nodes}


@dataclass(frozen=True)
class SearchJob:
    """Certified lower bound on f(n) by construction and annealing search."""

    n: int
    strategy: str
    seed: int
    floor: Fraction
    workers: int = 1

    def label(self) -> str:
        return (f"max_ratio_search(n={self.n}, strategy={self.strategy!r}, "
                f"seed={self.seed}, workers={self.workers})")

    def run(self):
        return chiomega.max_ratio_search(self.n, self.strategy, seed=self.seed,
                                         workers=self.workers)

    def check(self, rec) -> list[str]:
        problems = []
        if rec.value.as_fraction() < self.floor:
            problems.append(f"search value {rec.value} below {self.floor}")
        if rec.witness.n != self.n:
            problems.append(f"witness has {rec.witness.n} vertices")
            return problems
        return problems + verify_ratio_witness(rec.witness, rec.value.num, rec.value.den)

    def answer(self, rec) -> dict:
        return {"n": self.n, "strategy": self.strategy, "seed": self.seed,
                "value": str(rec.value), "witness_graph6": to_graph6(rec.witness)}

    def counts(self, rec) -> dict:
        return {"extremal.evaluations": rec.meta.nodes}


def build_jobs(workload: str, seed: int) -> list:
    """The job list of a workload. Only ``search`` depends on the seed."""
    if workload == "enum":
        return [EnumJob(n, F_VALUES[n], WORKERS["enum"]) for n in range(1, 9)]
    if workload == "ramsey":
        return [RamseyJob(s, t, v, WORKERS["ramsey"]) for (s, t), v in RAMSEY_VALUES.items()]
    if workload == "search":
        # n = 48 runs the construction portfolio only: the default anneal
        # budget there takes ~500 s, past what one run may last.
        return [SearchJob(32, "hybrid", seed, Fraction(5, 2), WORKERS["search"]),
                SearchJob(48, "constructions", 0, Fraction(3), WORKERS["search"])]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
