"""Run one workload of the chiomega benchmark and print its metrics.

    python3 perfbench/run.py --workload enum --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the workload's jobs run untraced, closed loop in this
process, and the end-to-end metrics are printed. With ``--trace 1`` the jobs
run once untraced and once under ``tracer.Tracer``, and the per-layer metrics
plus the tracing overhead are printed. Every answer is checked. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

A result file with provenance goes to ``perfbench/results/``, and the exact
work counts of each run are compared against earlier runs of the same code
(``perfbench/results/counts.json``): a count that differs fails the run.

Exit codes: 0 all checks passed; 1 an answer or count check failed (result
still printed); 2 the program's sources are not there or the arguments are
bad; 3 a traced boundary is gone or a traced layer reported nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
LEDGER = RESULTS / "counts.json"

# Fresh interpreters timed per run for setup_s (after one untimed start that
# fills the bytecode cache); single starts differ by more than a tenth.
SETUP_STARTS = 9

SETUP_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
import chiomega, chiomega.cli, jobs
chiomega.packaged_ratio_table()
chiomega.packaged_bounds_table()
jobs.build_jobs(sys.argv[3], int(sys.argv[4]))
"""

# Work counts the jobs read from the program's own results.
JOB_COUNTS = ("extremal.extension_tests", "extremal.evaluations", "ramsey.row_nodes")

# Counts that must repeat exactly across all runs of one version of the code.
EXACT_COUNTS = JOB_COUNTS + (
    "extremal.canon_calls",
    "invariants.chi_calls",
    "invariants.chi_budget_hits",
    "invariants.clique_decisions",
)

# Per-layer metrics that must be non-zero in a traced run of each workload;
# a zero means a wrapper no longer sits on the path the work takes.
EXPECTED_NONZERO = {
    "enum": (
        "extremal.extension_tests", "extremal.canon_calls", "extremal.canon_s",
        "extremal.canon_accept_ratio", "extremal.self_s", "invariants.chi_calls",
        "invariants.chi_s", "invariants.chi_max_call_s", "invariants.chi_skip_ratio",
        "invariants.clique_calls", "invariants.clique_s", "graphs.to_graph6_calls",
        "graphs.to_graph6_s",
    ),
    "ramsey": (
        "invariants.clique_calls", "invariants.clique_s", "invariants.clique_decisions",
        "invariants.clique_decision_s", "invariants.clique_decision_hit_ratio",
        "ramsey.row_nodes", "ramsey.witness_s", "ramsey.exhaust_s", "ramsey.partitions",
        "ramsey.partition_busy_s", "ramsey.partition_wait_s", "ramsey.self_s",
    ),
    "search": (
        "extremal.evaluations", "extremal.self_s", "invariants.chi_calls",
        "invariants.chi_s", "invariants.chi_max_call_s", "invariants.chi_budget_hits",
        "invariants.chi_budget_s", "invariants.clique_calls", "invariants.clique_s",
        "graphs.to_graph6_calls", "graphs.to_graph6_s",
    ),
}


class MissingMeasurement(RuntimeError):
    """A declared metric went unmeasured, or a traced layer that must show work read zero."""


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall seconds of fresh interpreters that import, load tables and build inputs."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload, str(seed)]
    samples = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        if i:
            samples.append(time.perf_counter() - t0)
    return samples


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(job_list: list) -> dict:
    """Run every job once, closed loop, checking each answer as it returns."""
    records = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for job in job_list:
        j0 = time.perf_counter()
        try:
            out = job.run()
            problems = job.check(out)
            answer, counts = job.answer(out), job.counts(out)
        except Exception:
            problems, answer, counts = [traceback.format_exc()], None, {}
        records.append({"job": job.label(), "seconds": time.perf_counter() - j0,
                        "answer": answer, "counts": counts, "problems": problems})
    return {"solve_s": time.perf_counter() - t0, "cpu_s": _cpu_seconds() - cpu0,
            "jobs": records}


def pass_counts(p: dict) -> dict:
    total: dict = {}
    for rec in p["jobs"]:
        for key, value in rec["counts"].items():
            total[key] = total.get(key, 0) + value
    return total


def source_digest() -> str:
    """SHA-256 over the program's sources and the benchmark's own code."""
    h = hashlib.sha256()
    files = sorted(p for p in list(SRC.rglob("*.py")) + list(SRC.rglob("*.json"))
                   + list(HERE.glob("*.py")) if "__pycache__" not in p.parts)
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def check_ledger(digest: str, key: str, counts: dict) -> list[str]:
    """Compare exact counts with earlier runs of the same code, then record them."""
    try:
        ledger = json.loads(LEDGER.read_text())
    except FileNotFoundError:
        ledger = {}
    seen = ledger.setdefault(digest, {}).setdefault(key, {})
    problems = [f"{name} = {counts[name]} here, {seen[name]} in an earlier run of this code"
                for name in sorted(counts) if name in seen and seen[name] != counts[name]]
    if not problems:
        seen.update(counts)
        tmp = LEDGER.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, LEDGER)
    return problems


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(job_list: list, seconds: float, trace: int):
    """(all passes, the untraced ones, the tracer or None)."""
    if trace:
        untraced = [run_pass(job_list)]
        with tracer.Tracer() as tr:
            traced = run_pass(job_list)
        return untraced + [traced], untraced, tr
    # Closed loop: whole passes back to back while another one still fits.
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(job_list))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            return passes, passes, None


def traced_metrics(workload: str, passes: list, spans: list, counts: dict) -> dict:
    """Per-layer metrics of a traced run, refusing zeros where work must show."""
    layer = tracer.layer_metrics(spans)
    layer.update({k: counts.get(k, 0) for k in JOB_COUNTS})
    untraced_s, traced_s = passes[0]["solve_s"], passes[1]["solve_s"]
    layer["trace.overhead_s"] = traced_s - untraced_s
    layer["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    silent = [k for k in EXPECTED_NONZERO[workload] if not layer[k]]
    if silent:
        raise MissingMeasurement(f"traced {workload} reported zero for: {', '.join(silent)}")
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chiomega" / "__init__.py").is_file():
        print(f"perfbench: no chiomega sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jobs

    if args.workload not in jobs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    job_list = jobs.build_jobs(args.workload, args.seed)
    setup_samples = measure_setup(args.workload, args.seed)
    passes, untraced, tr = measure(job_list, args.seconds, args.trace)

    problems = [f"{rec['job']}: {msg}" for p in passes for rec in p["jobs"]
                for msg in rec["problems"]]
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for rec in p["jobs"] if rec["problems"])
    counts = pass_counts(passes[-1])
    for p in passes[:-1]:
        if pass_counts(p) != counts:
            problems.append(f"work counts differ between passes: {pass_counts(p)} vs {counts}")

    e2e = {
        "setup_s": statistics.median(setup_samples),
        "solve_s": statistics.median(p["solve_s"] for p in untraced),
        "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    layer = None
    if tr is not None:
        layer = traced_metrics(args.workload, passes, tr.spans, counts)
        counts.update({k: layer[k] for k in EXACT_COUNTS})
    values, units = (e2e, e2e_units) if tr is None else (layer, layer_units)
    missing = sorted(set(units) - set(values))
    if missing:
        raise MissingMeasurement(f"declared metrics not measured: {', '.join(missing)}")

    RESULTS.mkdir(exist_ok=True)
    digest = source_digest()
    seed_key = f"/seed={args.seed}" if args.workload == "search" else ""
    problems += check_ledger(digest, args.workload + seed_key, counts)
    correct = not problems

    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    provenance = {
        "commit": git_commit(),
        "source_sha256": digest,
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": jobs.WORKERS[args.workload],
        "workers_per_workload": jobs.WORKERS,
    }
    result = {
        "provenance": provenance,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "setup_samples_s": setup_samples,
        "end_to_end": e2e,
        "per_layer": layer,
        "counts": counts,
        "passes": passes,
    }
    (RESULTS / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tr is not None:
        (RESULTS / f"{name}-spans.json").write_text(json.dumps(tr.to_json_obj()) + "\n")

    for p in passes:
        for rec in p["jobs"]:
            print(f"{rec['seconds']:9.3f} s  {rec['job']}  {json.dumps(rec['answer'])}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(f"fail_ratio {failed}/{attempted}; results in {os.path.relpath(RESULTS / name, ROOT)}.json")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (MissingMeasurement, tracer.TraceTargetMissing) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(3)
