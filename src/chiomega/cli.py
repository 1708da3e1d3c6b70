"""Command-line interface over the solvers, tables, and consistency checks.

Exit codes separate kinds of outcome: 0 success, 1 input error, 2 internal
verification failure (a witness or table fails re-verification), 3 a checked
conjecture is contradicted by the data — a finding, not a bug, so it gets a
distinct code. All output is deterministic given the flags; no command draws
random numbers.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Optional

from . import conjectures, extremal, invariants, ramsey, rates
from ._records import dumps
from .graphs import from_graph6

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_VERIFY_FAILURE = 2
EXIT_FINDING = 3

BOUNDS_TABLE_ENV = "CHIOMEGA_RAMSEY_TABLE"
F_TABLE_ENV = "CHIOMEGA_F_TABLE"


class _CliError(ValueError):
    """User-facing input problem; main prints it like any ValueError and exits 1."""


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract (input errors exit 1, not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def _emit(obj) -> None:
    print(dumps(obj))


def _parse_graph(args):
    try:
        return from_graph6(args.graph6)
    except ValueError as exc:
        raise _CliError(f"bad graph6 input: {exc}") from None


# Table kind -> (environment variable, file loader, packaged table).
_TABLES = {
    "bounds": (BOUNDS_TABLE_ENV, ramsey.load_bounds_table, ramsey.packaged_bounds_table),
    "ratio": (F_TABLE_ENV, extremal.load_ratio_table, extremal.packaged_ratio_table),
}


def _load_table(args, kind: str):
    """The table named by --table, else by its environment variable, else the packaged one."""
    env, load, packaged = _TABLES[kind]
    path = getattr(args, "table", None) or os.environ.get(env)
    if path is None:
        return packaged()
    try:
        return load(path)
    except OSError as exc:
        raise _CliError(f"cannot read {kind} table: {exc}") from None


def _write_file(path: str, write: Callable[[str], None]) -> None:
    """Run ``write(path)``; a file that cannot be written is an input error."""
    try:
        write(path)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_file(path, lambda p: Path(p).write_text(text, encoding="ascii"))


# -- graph ------------------------------------------------------------------


def _cmd_graph_stats(args) -> int:
    g = _parse_graph(args)
    omega = invariants.clique_number(g)
    alpha = invariants.independence_number(g)
    chi = invariants.chromatic_number(g, node_budget=args.budget)
    _emit({
        "n": g.n,
        "edges": g.num_edges(),
        "omega": omega.value,
        "alpha": alpha.value,
        "chi": chi.value,
        "chi_exact": chi.exact,
    })
    if chi.exact and chi.value < omega.value:
        print("verification failure: chi below omega", file=sys.stderr)
        return EXIT_VERIFY_FAILURE
    return EXIT_OK


def _cmd_graph_color(args) -> int:
    g = _parse_graph(args)
    chi = invariants.chromatic_number(g, node_budget=args.budget)
    cert = chi.witness
    if not invariants.is_proper_coloring(g, cert):
        print("verification failure: coloring witness is not proper", file=sys.stderr)
        return EXIT_VERIFY_FAILURE
    _emit({
        "n": g.n,
        "chi": chi.value,
        "exact": chi.exact,
        "colors": list(cert.colors),
    })
    return EXIT_OK


def _cmd_graph_greedy(args) -> int:
    g = _parse_graph(args)
    cert, stats = invariants.greedy_erdos_coloring(g, args.m0)
    proper = invariants.is_proper_coloring(g, cert)
    bound = -(-g.n // stats.r_observed) + stats.m0
    _emit({
        "n": g.n,
        "m0": stats.m0,
        "colors_used": stats.colors_used,
        "r_observed": stats.r_observed,
        "extracted_sizes": list(stats.extracted_sizes),
        "leftover": stats.leftover,
        "bound": bound,
        "bound_holds": stats.colors_used <= bound,
        "proper": proper,
    })
    if not proper or stats.colors_used > bound:
        print("verification failure: greedy coloring broke its guarantee", file=sys.stderr)
        return EXIT_VERIFY_FAILURE
    return EXIT_OK


# -- ramsey -----------------------------------------------------------------


def _cmd_ramsey_small(args) -> int:
    result = ramsey.ramsey_exact_small(args.s, args.t, node_budget=args.budget)
    witness = result.witness_graph6()
    _emit({
        "s": result.s,
        "t": result.t,
        "lower": result.lower,
        "upper": result.upper,
        "exact": result.exact,
        "nodes": result.nodes,
        "budget_exhausted": result.budget_exhausted,
        "witness_red": None if witness is None else witness[0],
        "witness_blue": None if witness is None else witness[1],
    })
    return EXIT_OK


def _cmd_ramsey_bound(args) -> int:
    table = _load_table(args, "bounds")
    rec = ramsey.query_bound(table, args.s, args.t)
    if rec is None:
        _emit({"s": args.s, "t": args.t, "found": False})
    else:
        _emit({"found": True, **rec.to_json_obj()})
    return EXIT_OK


def _cmd_ramsey_table(args) -> int:
    table = _load_table(args, "bounds")
    if args.closure:
        table = ramsey.recurrence_closure(table)
    if args.out is not None:
        _write_file(args.out, lambda p: ramsey.save_bounds_table(table, p))
    else:
        for rec in table.records():
            _emit(rec.to_json_obj())
    _emit({"records": len(table.records()), "sha256": table.sha256()})
    return EXIT_OK


# -- rates ------------------------------------------------------------------


def _cmd_constants(args) -> int:
    report = rates.maximize_rate(rates.RateParams(delta=args.delta))
    if args.format == "json":
        _emit(report.as_dict())
    else:
        rows = [
            ("delta", report.delta),
            ("x_star", report.x_star),
            ("phi_max", report.phi_max),
            ("phi_max_sq", report.phi_max_sq),
            ("diagonal_constant", report.diagonal_constant),
        ]
        for name, value in rows:
            print(f"{name:18} {value:.6g}")
    return EXIT_OK


def _cmd_phi(args) -> int:
    params = rates.RateParams(delta=args.delta)
    value = rates.rate_function(args.x, params)
    _emit({
        "x": args.x,
        "delta": params.delta,
        "phi": value,
        "phi_sq": value * value,
        "stationarity_residual": rates.stationarity_residual(args.x, params),
    })
    return EXIT_OK


def _cmd_minprod(args) -> int:
    k, st_min = rates.min_product_binomial(args.n)
    _emit({"n": args.n, "k": k, "st_min": st_min})
    return EXIT_OK


# -- f ----------------------------------------------------------------------


def _ratio_obj(rec: extremal.RatioRecord) -> dict:
    obj = rec.to_json_obj()
    obj["f"] = f"{rec.value.num}/{rec.value.den}"
    obj["nodes"] = rec.meta.nodes
    return obj


def _cmd_f_exact(args) -> int:
    rec = extremal.max_ratio_exact(args.n, node_budget=args.budget)
    _emit(_ratio_obj(rec))
    return EXIT_OK


def _cmd_f_search(args) -> int:
    rec = extremal.max_ratio_search(args.n)
    _emit(_ratio_obj(rec))
    return EXIT_OK


def _cmd_f_verify(args) -> int:
    records = _load_table(args, "ratio")
    verdict = extremal.verify_ratio_table(records)
    _emit({"ok": verdict.ok, "problems": list(verdict.problems), "records": len(records)})
    return EXIT_OK if verdict.ok else EXIT_VERIFY_FAILURE


def _cmd_f_curve(args) -> int:
    records = _load_table(args, "ratio")
    _write_text(args.out, extremal.ratio_csv(records))
    return EXIT_OK


def _cmd_report_envelope(args) -> int:
    if args.n_max < 2:
        raise _CliError("--n-max must be at least 2")
    records = _load_table(args, "ratio")
    m_sq = rates.maximize_rate().phi_max_sq
    lines = ["n,f_lower,envelope_lower,envelope_upper"]
    best: Optional[extremal.Ratio] = None
    by_n = {rec.n: rec.value for rec in records}
    for n in range(2, args.n_max + 1):
        # f is monotone in n (pad with isolated vertices), so the running
        # best over the table is a certified lower bound at every later n.
        if n in by_n and (best is None or by_n[n] > best):
            best = by_n[n]
        f_lower = 1.0 if best is None else best.num / best.den
        env_lo, env_up = rates.ratio_envelope(n, m_sq=m_sq)
        lines.append(f"{n},{f_lower!r},{env_lo!r},{env_up!r}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# -- conjectures ------------------------------------------------------------

_CHECKERS = {
    "rdc": conjectures.check_rdc,
    "mult": conjectures.check_mult_rdc,
    "weak-mult": conjectures.check_weak_mult_rdc,
}


def _cmd_conjecture_check(args) -> int:
    if args.s_max < 1:
        raise _CliError("--s-max must be at least 1")
    table = _load_table(args, "bounds")
    verdicts = _CHECKERS[args.conjecture](table, args.s_max)
    counts = {"consistent": 0, "violated": 0, "undecidable": 0, "confirmed": 0}
    for v in verdicts:
        _emit(v.to_json_obj())
        counts[v.status] += 1
        counts["confirmed"] += int(v.confirmed)
    _emit({
        "summary": {
            "conjecture": args.conjecture,
            "s_max": args.s_max,
            "instances": len(verdicts),
            "counts": counts,
            "table_hash": table.sha256(),
        }
    })
    return EXIT_FINDING if counts["violated"] else EXIT_OK


def _cmd_conjecture_implication(args) -> int:
    counterexample = conjectures.implication_quadruples(args.n_max)
    _emit({
        "n_max": args.n_max,
        "counterexample": None if counterexample is None else list(counterexample),
    })
    return EXIT_OK if counterexample is None else EXIT_FINDING


def _cmd_conjecture_rates(args) -> int:
    table = _load_table(args, "bounds")
    _emit(conjectures.empirical_rates(table).to_json_obj())
    return EXIT_OK


def _cmd_conjecture_fact23(args) -> int:
    table = _load_table(args, "bounds")
    entries = conjectures.fact23_report(table)
    fails = 0
    undecidable = 0
    for e in entries:
        _emit(e.to_json_obj())
        fails += int(e.holds is False)
        undecidable += int(e.holds is None)
    _emit({
        "summary": {
            "instances": len(entries),
            "fails": fails,
            "undecidable": undecidable,
            "table_hash": table.sha256(),
        }
    })
    return EXIT_FINDING if fails else EXIT_OK


# -- parser -----------------------------------------------------------------


def _add_table(p, kind: str) -> None:
    p.add_argument("--table", default=None,
                   help=f"table file (default: ${_TABLES[kind][0]} or the packaged table)")


def build_parser() -> _Parser:
    parser = _Parser(prog="chiomega", description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    graph = top.add_parser("graph", help="invariants of a single graph")
    graph_sub = graph.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    p = graph_sub.add_parser("stats", help="n, edges, omega, alpha, chi")
    p.add_argument("--graph6", required=True, help="graph in graph6 format")
    p.add_argument("--budget", type=int, default=None, help="chi solver node budget")
    p.set_defaults(func=_cmd_graph_stats)
    p = graph_sub.add_parser("color", help="chromatic number with a proper coloring")
    p.add_argument("--graph6", required=True, help="graph in graph6 format")
    p.add_argument("--budget", type=int, default=None, help="chi solver node budget")
    p.set_defaults(func=_cmd_graph_color)
    p = graph_sub.add_parser("greedy", help="max-independent-set extraction coloring")
    p.add_argument("--graph6", required=True, help="graph in graph6 format")
    p.add_argument("--m0", type=int, default=1, help="extraction cutoff (default 1)")
    p.set_defaults(func=_cmd_graph_greedy)

    rams = top.add_parser("ramsey", help="exact small Ramsey numbers and the bounds table")
    rams_sub = rams.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    p = rams_sub.add_parser("small", help="compute R(s,t) by exhaustive search")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="search node budget")
    p.set_defaults(func=_cmd_ramsey_small)
    p = rams_sub.add_parser("bound", help="look up R(s,t) bounds in a table")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    _add_table(p, "bounds")
    p.set_defaults(func=_cmd_ramsey_bound)
    p = rams_sub.add_parser("table", help="print or rewrite a bounds table")
    _add_table(p, "bounds")
    p.add_argument("--closure", action="store_true",
                   help="apply the additive recurrence before output")
    p.add_argument("--out", default=None, help="write the table to this file")
    p.set_defaults(func=_cmd_ramsey_table)

    p = top.add_parser("constants", help="rate-function maximum and diagonal constant")
    p.add_argument("--delta", type=float, default=rates.DEFAULT_DELTA)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_constants)

    p = top.add_parser("phi", help="evaluate the rate function at a point")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--delta", type=float, default=rates.DEFAULT_DELTA)
    p.set_defaults(func=_cmd_phi)

    p = top.add_parser("minprod", help="minimum s*t with C(s+t,t) >= n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_minprod)

    f = top.add_parser("f", help="the extremal chi/omega ratio f(n)")
    f_sub = f.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    p = f_sub.add_parser("exact", help="exhaustive f(n) over isomorphism classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="enumeration node budget")
    p.set_defaults(func=_cmd_f_exact)
    p = f_sub.add_parser("search", help="certified f(n) lower bound from explicit constructions")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_f_search)
    p = f_sub.add_parser("verify", help="re-verify a ratio table's witnesses")
    _add_table(p, "ratio")
    p.set_defaults(func=_cmd_f_verify)
    p = f_sub.add_parser("curve", help="emit the ratio table as CSV")
    _add_table(p, "ratio")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_f_curve)

    conj = top.add_parser("conjecture", help="finite consistency checks against a table")
    conj_sub = conj.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    for name, help_text in (
        ("rdc", "additive diagonal-dominance instances"),
        ("mult", "multiplicative diagonal-dominance instances"),
        ("weak-mult", "s*t <= k*k diagonal-dominance instances"),
    ):
        p = conj_sub.add_parser(name, help=help_text)
        _add_table(p, "bounds")
        p.add_argument("--s-max", type=int, default=10)
        p.set_defaults(func=_cmd_conjecture_check, conjecture=name)
    p = conj_sub.add_parser("implication",
                            help="scan: interleaving + sum condition forces product condition")
    p.add_argument("--n-max", type=int, default=60)
    p.set_defaults(func=_cmd_conjecture_implication)
    p = conj_sub.add_parser("rates", help="normalized growth rates from the table")
    _add_table(p, "bounds")
    p.set_defaults(func=_cmd_conjecture_rates)
    p = conj_sub.add_parser("fact23", help="square-bracketing inequality probe")
    _add_table(p, "bounds")
    p.set_defaults(func=_cmd_conjecture_fact23)

    rep = top.add_parser("report", help="plot-ready data emission")
    rep_sub = rep.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    p = rep_sub.add_parser("envelope", help="f lower bounds vs the asymptotic envelope")
    p.add_argument("--n-max", type=int, required=True)
    _add_table(p, "ratio")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_report_envelope)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except invariants.BudgetExceeded as exc:
        print(f"chiomega: error: {exc or 'budget too small'}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValueError as exc:
        print(f"chiomega: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RuntimeError as exc:
        print(f"chiomega: verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILURE


if __name__ == "__main__":
    sys.exit(main())
