"""Boundary tracing for the chiomega benchmark.

The program is not edited. While a ``Tracer`` is installed it replaces the
module attributes through which one layer calls another (for example
``chiomega.extremal._is_canonical`` or ``chiomega.ramsey._exists_clique``)
with timing wrappers, and restores them on exit.

Two kinds of boundary are wrapped:

* spans: coarse calls (a solver entry point, one Ramsey size, one search
  partition). Each is kept in memory with name, start, end, parent span,
  thread id, thread CPU time and an outcome tag.
* leaves: hot calls (up to ~10^7 clique decisions per run), aggregated per
  parent span as count, total seconds and slowest call, keyed by outcome.
  Keeping one record per leaf call would cost gigabytes.

A name that no longer exists in the program makes entering a ``Tracer``
raise ``TraceTargetMissing``; the benchmark never reports a silent zero for it.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


class TraceTargetMissing(RuntimeError):
    """A wrapped boundary name is gone from the program."""


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    start: float = 0.0
    end: float = 0.0
    cpu_s: float = 0.0
    outcome: str = ""
    # (leaf name, outcome) -> [calls, total seconds, slowest call seconds]
    leaves: dict = field(default_factory=dict)

    def to_json_obj(self, t0: float) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "thread": self.thread,
            "start_s": self.start - t0,
            "end_s": self.end - t0,
            "cpu_s": self.cpu_s,
            "outcome": self.outcome,
            "leaves": _leaf_rows(self.leaves),
        }


def _leaf_rows(leaves: dict) -> list[dict]:
    return [{"name": name, "outcome": outcome, "calls": agg[0], "total_s": agg[1], "max_s": agg[2]}
            for (name, outcome), agg in sorted(leaves.items())]


def _tag(out) -> str:
    return ""


def _bool_tag(out) -> str:
    return "true" if out else "false"


def _exact_tag(out) -> str:
    return "exact" if out.exact else "budget"


def _witness_tag(out) -> str:
    # _search_size returns (witness rows or None, nodes, budget_exhausted).
    return "witness" if out[0] is not None else "exhausted"


# (module, attribute path, kind, traced name, outcome tag). Solver entry
# points are wrapped on the package, where the benchmark's jobs look them up.
BOUNDARIES: tuple[tuple[str, str, str, str, Callable], ...] = (
    ("chiomega", "max_ratio_exact", "span", "extremal.max_ratio_exact", _tag),
    ("chiomega", "max_ratio_search", "span", "extremal.max_ratio_search", _tag),
    ("chiomega", "ramsey_exact_small", "span", "ramsey.ramsey_exact_small", _tag),
    ("chiomega.ramsey", "_search_size", "span", "ramsey._search_size", _witness_tag),
    ("chiomega.ramsey", "_ColoringSearch.run_from", "span", "ramsey.run_from", _bool_tag),
    ("chiomega.extremal", "_is_canonical", "leaf", "extremal._is_canonical", _bool_tag),
    ("chiomega.extremal", "chromatic_number", "leaf", "invariants.chromatic_number", _exact_tag),
    ("chiomega.extremal", "clique_number", "leaf", "invariants.clique_number", _tag),
    ("chiomega.extremal", "to_graph6", "leaf", "graphs.to_graph6", _tag),
    ("chiomega.ramsey", "_exists_clique", "leaf", "invariants._exists_clique", _bool_tag),
    ("chiomega.ramsey", "clique_number", "leaf", "invariants.clique_number", _tag),
)


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a dotted attribute path, or raise."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceTargetMissing(f"cannot import {module_name}: {exc}") from None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or not callable(getattr(owner, parts[-1], None)):
        raise TraceTargetMissing(
            f"{module_name}.{path} no longer exists; update BOUNDARIES in perfbench/tracer.py"
        )
    return owner, parts[-1]


class Tracer:
    """Context manager that wraps every boundary in ``BOUNDARIES``."""

    def __init__(self, boundaries=BOUNDARIES) -> None:
        self.boundaries = boundaries
        self.spans: list[Span] = []
        self.t0 = time.perf_counter()
        self._ids = itertools.count()
        self._tls = threading.local()
        self._main_stack = self._stack()
        self._saved: list[tuple[object, str, object]] = []
        # Leaf calls made outside any span (none in the benchmark's workloads).
        self.orphans: dict = {}

    def _stack(self) -> list[Span]:
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            return self._tls.stack

    def __enter__(self) -> "Tracer":
        targets = [(_resolve(mod, path), kind, name, tag)
                   for mod, path, kind, name, tag in self.boundaries]
        for (owner, attr), kind, name, tag in targets:
            original = getattr(owner, attr)
            make = self._span_wrapper if kind == "span" else self._leaf_wrapper
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(name, original, tag))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _span_wrapper(self, name: str, fn: Callable, tag: Callable) -> Callable:
        perf, thread_time = time.perf_counter, time.thread_time

        def wrapper(*args, **kwargs):
            stack = self._stack()
            # Pool threads start with an empty stack: their work was caused by
            # the span open on the main thread (one Ramsey size at a time).
            parent_stack = stack or self._main_stack
            parent = parent_stack[-1].id if parent_stack else None
            span = Span(next(self._ids), name, parent, threading.get_ident())
            self.spans.append(span)
            stack.append(span)
            cpu0 = thread_time()
            span.start = perf()
            try:
                out = fn(*args, **kwargs)
                span.outcome = tag(out)
                return out
            finally:
                span.end = perf()
                span.cpu_s = thread_time() - cpu0
                stack.pop()

        return wrapper

    def _leaf_wrapper(self, name: str, fn: Callable, tag: Callable) -> Callable:
        perf = time.perf_counter
        tls = self._tls
        orphans = self.orphans

        def wrapper(*args, **kwargs):
            t0 = perf()
            out = fn(*args, **kwargs)
            dt = perf() - t0
            stack = getattr(tls, "stack", None)
            leaves = stack[-1].leaves if stack else orphans
            key = (name, tag(out))
            agg = leaves.get(key)
            if agg is None:
                leaves[key] = [1, dt, dt]
            else:
                agg[0] += 1
                agg[1] += dt
                if dt > agg[2]:
                    agg[2] = dt
            return out

        return wrapper

    def to_json_obj(self) -> dict:
        return {
            "spans": [s.to_json_obj(self.t0) for s in self.spans],
            "orphan_leaves": _leaf_rows(self.orphans),
        }


# -- per-layer metrics --------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it covered by its children.

    Child spans may overlap (pool threads), so their intervals are merged.
    Leaf calls run on the span's own thread, one after another, so their
    summed time is subtracted as is.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end))
                   for a, b in children.get(s.id, ()) if b > s.start and a < s.end]
        covered = _union_length(clipped) + sum(agg[1] for agg in s.leaves.values())
        out[s.id] = max(0.0, (s.end - s.start) - covered)
    return out


def _leaf_totals(spans: list[Span], name: str, outcome: Optional[str] = None,
                 under: Optional[str] = None) -> tuple[int, float, float]:
    """(calls, total seconds, slowest call) over matching leaf aggregates."""
    calls, total, slowest = 0, 0.0, 0.0
    for s in spans:
        if under is not None and s.name != under:
            continue
        for (leaf, tag), agg in s.leaves.items():
            if leaf == name and (outcome is None or tag == outcome):
                calls += agg[0]
                total += agg[1]
                slowest = max(slowest, agg[2])
    return calls, total, slowest


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics derived from the spans of one traced pass.

    Work counts that the program itself reports (extension tests,
    evaluations, row nodes) come from the job results, not from here.
    """
    selfs = self_seconds(spans)
    m: dict[str, float] = {}

    canon_calls, canon_s, _ = _leaf_totals(spans, "extremal._is_canonical")
    canon_true, _, _ = _leaf_totals(spans, "extremal._is_canonical", "true")
    m["extremal.canon_calls"] = canon_calls
    m["extremal.canon_s"] = canon_s
    m["extremal.canon_accept_ratio"] = _ratio(canon_true, canon_calls)
    m["extremal.self_s"] = sum(selfs[s.id] for s in spans if s.name.startswith("extremal."))

    chi_calls, chi_s, chi_max = _leaf_totals(spans, "invariants.chromatic_number")
    hits, hit_s, _ = _leaf_totals(spans, "invariants.chromatic_number", "budget")
    m["invariants.chi_calls"] = chi_calls
    m["invariants.chi_s"] = chi_s
    m["invariants.chi_max_call_s"] = chi_max
    m["invariants.chi_budget_hits"] = hits
    m["invariants.chi_budget_s"] = hit_s
    # The n/omega skip lives in the exhaustive fold only.
    exact_chi, _, _ = _leaf_totals(spans, "invariants.chromatic_number",
                                   under="extremal.max_ratio_exact")
    exact_clique, _, _ = _leaf_totals(spans, "invariants.clique_number",
                                      under="extremal.max_ratio_exact")
    m["invariants.chi_skip_ratio"] = 1.0 - exact_chi / exact_clique if exact_clique else 0.0

    clique_calls, clique_s, _ = _leaf_totals(spans, "invariants.clique_number")
    m["invariants.clique_calls"] = clique_calls
    m["invariants.clique_s"] = clique_s
    decisions, decision_s, _ = _leaf_totals(spans, "invariants._exists_clique")
    decision_hits, _, _ = _leaf_totals(spans, "invariants._exists_clique", "true")
    m["invariants.clique_decisions"] = decisions
    m["invariants.clique_decision_s"] = decision_s
    m["invariants.clique_decision_hit_ratio"] = _ratio(decision_hits, decisions)

    sizes = [s for s in spans if s.name == "ramsey._search_size"]
    m["ramsey.witness_s"] = sum(s.end - s.start for s in sizes if s.outcome == "witness")
    m["ramsey.exhaust_s"] = sum(s.end - s.start for s in sizes if s.outcome == "exhausted")
    parts = [s for s in spans if s.name == "ramsey.run_from"]
    m["ramsey.partitions"] = len(parts)
    m["ramsey.partition_busy_s"] = sum(s.cpu_s for s in parts)
    m["ramsey.partition_wait_s"] = sum(max(0.0, (s.end - s.start) - s.cpu_s) for s in parts)
    m["ramsey.self_s"] = sum(selfs[s.id] for s in spans if s.name.startswith("ramsey."))

    g6_calls, g6_s, _ = _leaf_totals(spans, "graphs.to_graph6")
    m["graphs.to_graph6_calls"] = g6_calls
    m["graphs.to_graph6_s"] = g6_s
    return m
