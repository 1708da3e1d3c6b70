"""Fast tests of the benchmark's jobs, checks and tracer on tiny inputs.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import chiomega  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMALL = {
    "enum": [jobs.EnumJob(n, jobs.F_VALUES[n]) for n in range(1, 7)],
    "ramsey": [jobs.RamseyJob(3, 3, 6), jobs.RamseyJob(3, 4, 9)],
    "search": [jobs.SearchJob(12, "constructions", 0, Fraction(2))],
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_small_workload_answers_check(workload):
    p = run.run_pass(SMALL[workload])
    assert [rec["problems"] for rec in p["jobs"]] == [[]] * len(SMALL[workload])
    assert p["solve_s"] > 0 and p["cpu_s"] > 0


def test_wrong_expectations_are_reported():
    p = run.run_pass([jobs.EnumJob(5, Fraction(2)), jobs.RamseyJob(3, 3, 7),
                      jobs.SearchJob(12, "constructions", 0, Fraction(3))])
    assert all(rec["problems"] for rec in p["jobs"])


def test_tampered_witness_fails_reverification():
    c5 = chiomega.cycle_graph(5)
    assert jobs.verify_ratio_witness(c5, 3, 2) == []
    assert jobs.verify_ratio_witness(c5, 2, 2)
    assert jobs.verify_ratio_witness(c5, 3, 3)


def test_traced_pass_reports_every_layer_and_restores_the_program():
    targets = [tracer._resolve(mod, path) for mod, path, *_ in tracer.BOUNDARIES]
    originals = [getattr(owner, attr) for owner, attr in targets]
    with tracer.Tracer() as tr:
        for workload in sorted(SMALL):
            p = run.run_pass(SMALL[workload])
            assert not any(rec["problems"] for rec in p["jobs"])
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(targets, originals))
    m = tracer.layer_metrics(tr.spans)
    nonzero = set(run.EXPECTED_NONZERO["enum"] + run.EXPECTED_NONZERO["ramsey"]
                  + run.EXPECTED_NONZERO["search"]) - {
                      # Counts the jobs report, not the tracer.
                      "extremal.extension_tests", "extremal.evaluations", "ramsey.row_nodes",
                      # The n/omega skip first fires at n = 7, and n = 12 meets
                      # no chi budget.
                      "invariants.chi_skip_ratio", "invariants.chi_budget_hits",
                      "invariants.chi_budget_s"}
    assert [k for k in sorted(nonzero) if not m[k]] == []
    assert 0 < m["extremal.canon_accept_ratio"] < 1
    assert 0 < m["invariants.clique_decision_hit_ratio"] < 1
    assert tr.orphans == {}


def test_missing_boundary_fails_loudly_and_patches_nothing():
    before = chiomega.extremal._is_canonical
    gone = tracer.BOUNDARIES[:1] + (
        ("chiomega.extremal", "_no_such_helper", "leaf", "extremal.gone", tracer._tag),)
    with pytest.raises(tracer.TraceTargetMissing, match="_no_such_helper"):
        with tracer.Tracer(gone):
            pass
    assert chiomega.max_ratio_exact.__module__ == "chiomega.extremal"
    assert chiomega.extremal._is_canonical is before


def test_self_seconds_merges_overlapping_children():
    parent = tracer.Span(0, "ramsey._search_size", None, 1, start=0.0, end=10.0)
    a = tracer.Span(1, "ramsey.run_from", 0, 2, start=1.0, end=6.0)
    b = tracer.Span(2, "ramsey.run_from", 0, 3, start=4.0, end=8.0)
    a.leaves[("invariants._exists_clique", "true")] = [3, 2.0, 1.0]
    selfs = tracer.self_seconds([parent, a, b])
    assert selfs == {0: 3.0, 1: 3.0, 2: 4.0}


def test_ledger_reports_count_drift(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "LEDGER", tmp_path / "counts.json")
    assert run.check_ledger("d", "enum", {"extremal.extension_tests": 5}) == []
    assert run.check_ledger("d", "enum", {"extremal.extension_tests": 5}) == []
    assert run.check_ledger("d", "enum", {"extremal.extension_tests": 6})
    assert run.check_ledger("other", "enum", {"extremal.extension_tests": 6}) == []


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    out = subprocess.run(spec["command"] + ["--workload", "enum", "--seed", "1",
                                            "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode not in (0, 1)
    assert out.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_main_prints_declared_metrics_and_provenance(trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(run, "LEDGER", tmp_path / "counts.json")
    monkeypatch.setattr(run, "SETUP_STARTS", 1)
    monkeypatch.setattr(jobs, "build_jobs", lambda workload, seed: SMALL[workload])
    args = ["--workload", "ramsey", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    e2e, layer = run.declared_metrics()
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == 2 * (1 + trace)
    assert {k: v["unit"] for k, v in last["metrics"].items()} == (layer if trace else e2e)
    (result,) = [p for p in tmp_path.glob("ramsey-*.json") if not p.name.endswith("-spans.json")]
    prov = json.loads(result.read_text())["provenance"]
    assert {"commit", "python", "nproc", "seed", "workers_per_workload"} <= set(prov)
    assert run.main(args) == 0  # the ledger now holds this code's counts; they repeat
