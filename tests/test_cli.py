"""CLI behavior: outputs, exit codes, determinism, and table plumbing."""

import json
import subprocess
import sys
from pathlib import Path

import chiomega
from chiomega.extremal import RatioRecord, packaged_ratio_table, ratio_csv, save_ratio_table
from chiomega.graphs import cycle_graph, from_graph6, to_graph6
from chiomega.ramsey import BoundsTable, RamseyBoundRecord, save_bounds_table
from conftest import run_cli

C5 = to_graph6(cycle_graph(5))


def _json_lines(text):
    return [json.loads(line) for line in text.strip().split("\n")]


def test_constants_output():
    code, out = run_cli(["constants"])
    assert code == 0
    obj = json.loads(out)
    assert 3.7190 < obj["phi_max_sq"] < 3.71943
    assert abs(obj["diagonal_constant"] - 3.70831) < 1e-4
    code, text_out = run_cli(["constants", "--format", "text"])
    assert code == 0 and "phi_max_sq" in text_out


def test_phi_and_minprod():
    code, out = run_cli(["phi", "--x", "0.5", "--delta", "0"])
    assert code == 0
    assert abs(json.loads(out)["phi"] - 2.0) <= 1e-12
    code, out = run_cli(["minprod", "--n", "70"])
    assert code == 0
    assert json.loads(out) == {"n": 70, "k": 8, "st_min": 16}


def test_graph_commands():
    code, out = run_cli(["graph", "stats", "--graph6", C5])
    assert code == 0
    assert json.loads(out) == {"n": 5, "edges": 5, "omega": 2, "alpha": 2,
                               "chi": 3, "chi_exact": True}
    code, out = run_cli(["graph", "color", "--graph6", C5])
    obj = json.loads(out)
    assert code == 0 and obj["chi"] == 3 and len(obj["colors"]) == 5
    code, out = run_cli(["graph", "greedy", "--graph6", C5, "--m0", "2"])
    obj = json.loads(out)
    assert code == 0 and obj["proper"] and obj["bound_holds"]


def test_ramsey_small_command():
    code, out = run_cli(["ramsey", "small", "--s", "3", "--t", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["lower"] == obj["upper"] == 6 and obj["exact"]
    red = from_graph6(obj["witness_red"])
    assert red.n == 5


def test_ramsey_bound_command_uses_packaged_table():
    code, out = run_cli(["ramsey", "bound", "--s", "5", "--t", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] and obj["lower"] == obj["upper"] == 14
    code, out = run_cli(["ramsey", "bound", "--s", "11", "--t", "11"])
    assert code == 0 and json.loads(out) == {"s": 11, "t": 11, "found": False}


def test_ramsey_table_command(tmp_path):
    code, out = run_cli(["ramsey", "table"])
    assert code == 0
    lines = _json_lines(out)
    assert lines[-1]["records"] == 55
    out_path = tmp_path / "copy.json"
    code, _ = run_cli(["ramsey", "table", "--out", str(out_path)])
    assert code == 0 and out_path.exists()
    from chiomega.ramsey import load_bounds_table

    assert len(load_bounds_table(out_path).records()) == 55


def test_env_var_selects_table(tmp_path, monkeypatch):
    table = BoundsTable()
    table.add(RamseyBoundRecord(3, 3, 6, 6, "tiny"))
    path = tmp_path / "tiny.json"
    save_bounds_table(table, path)
    monkeypatch.setenv("CHIOMEGA_RAMSEY_TABLE", str(path))
    code, out = run_cli(["ramsey", "table"])
    assert code == 0
    assert _json_lines(out)[-1]["records"] == 1


def test_f_commands(tmp_path):
    code, out = run_cli(["f", "exact", "--n", "5"])
    assert code == 0
    obj = json.loads(out)
    assert obj["f"] == "3/2" and obj["exhaustive"]
    # Emitted records re-load and re-validate.
    RatioRecord.from_json_obj(obj)
    code, out = run_cli(["f", "verify"])
    assert code == 0 and json.loads(out)["ok"]
    code, out = run_cli(["f", "curve"])
    assert code == 0 and out == ratio_csv(packaged_ratio_table())
    out_path = tmp_path / "curve.csv"
    code, _ = run_cli(["f", "curve", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text(encoding="ascii") == ratio_csv(packaged_ratio_table())


def test_f_verify_fails_on_tampered_table(tmp_path, monkeypatch):
    records = packaged_ratio_table()
    rec5 = next(r for r in records if r.n == 5)
    bad = [r if r.n != 5 else
           RatioRecord(n=5, value=rec5.value, witness=cycle_graph(5).with_edge_toggled(0, 2),
                       exhaustive=True, meta=rec5.meta)
           for r in records]
    path = tmp_path / "bad.json"
    save_ratio_table(bad, path)
    code, out = run_cli(["f", "verify", "--table", str(path)])
    assert code == 2
    assert not json.loads(out)["ok"]


def test_f_search_command():
    code, out = run_cli(["f", "search", "--n", "11", "--strategy", "constructions"])
    assert code == 0
    assert json.loads(out)["f"] == "4/2"


def test_report_envelope():
    code, out = run_cli(["report", "envelope", "--n-max", "6"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,f_lower,envelope_lower,envelope_upper"
    assert len(lines) == 6
    n, f_lower, env_lo, env_up = lines[-1].split(",")
    assert n == "6" and float(f_lower) == 1.5
    assert float(env_lo) < float(f_lower) < float(env_up)
    code, _ = run_cli(["report", "envelope", "--n-max", "1"])
    assert code == 1


def test_conjecture_commands():
    code, out = run_cli(["conjecture", "rdc", "--s-max", "6"])
    assert code == 0
    summary = _json_lines(out)[-1]["summary"]
    assert summary["counts"]["violated"] == 0
    code, out = run_cli(["conjecture", "implication", "--n-max", "20"])
    assert code == 0 and json.loads(out)["counterexample"] is None
    code, out = run_cli(["conjecture", "rates"])
    assert code == 0
    assert abs(json.loads(out)["max_diagonal_rate"] - 1.0424813) < 1e-6
    code, out = run_cli(["conjecture", "fact23"])
    assert code == 0
    assert _json_lines(out)[-1]["summary"]["fails"] == 0


def test_conjecture_violation_exits_three(tmp_path):
    table = BoundsTable()
    table.add(RamseyBoundRecord(4, 6, 36, 40, "test"))
    table.add(RamseyBoundRecord(5, 5, 30, 30, "false on purpose"))
    path = tmp_path / "false.json"
    save_bounds_table(table, path)
    code, out = run_cli(["conjecture", "rdc", "--table", str(path), "--s-max", "6"])
    assert code == 3
    assert _json_lines(out)[-1]["summary"]["counts"]["violated"] >= 1


def test_input_errors_exit_one(tmp_path, capsys):
    for argv in (
        ["constants", "--nope"],
        ["graph", "stats", "--graph6", "!!"],
        ["f", "exact", "--n", "25"],
        ["ramsey", "small", "--s", "4", "--t", "3"],
        ["minprod", "--n", "0"],
        ["ramsey", "bound", "--s", "3", "--t", "3", "--table", "/does/not/exist"],
        [],
    ):
        code, _ = run_cli(argv)
        assert code == 1, argv
    # A file that cannot be written is an input error with a one-line message.
    missing = tmp_path / "no-such-dir" / "out"
    capsys.readouterr()
    for argv in (
        ["f", "curve", "--out", str(missing)],
        ["report", "envelope", "--n-max", "5", "--out", str(missing)],
        ["ramsey", "table", "--out", str(missing)],
    ):
        code, out = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 1 and out == "", argv
        assert err == f"chiomega: error: cannot write {missing}: No such file or directory\n", argv
        assert "Traceback" not in err
    # A table record whose field has the wrong JSON type is an input error.
    shipped = json.loads((Path(chiomega.__file__).parent / "data" / "f_table.json").read_text())
    shipped[4]["chi"] = 3.9
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(shipped), encoding="ascii")
    code, out = run_cli(["f", "verify", "--table", str(tampered)])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err == f"chiomega: error: {tampered}: record 5: field 'chi' must be int, got 3.9\n"
    # Rate inputs out of range are input errors too, never NaN or a traceback.
    for argv, message in (
        (["constants", "--delta", "100"], "no sign change of the stationarity residual"),
        (["constants", "--delta", "inf"], "delta must be finite and nonnegative, got inf"),
        (["constants", "--delta", "nan"], "delta must be finite and nonnegative, got nan"),
        (["phi", "--x", "0.3", "--delta", "nan"], "delta must be finite and nonnegative, got nan"),
        (["phi", "--x", "0.3", "--delta", "inf"], "delta must be finite and nonnegative, got inf"),
    ):
        code, out = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 1 and out == "", argv
        assert err.startswith(f"chiomega: error: {message}") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err


def test_help_exits_zero():
    code, _ = run_cli(["--help"])
    assert code == 0


def test_every_subcommand_is_byte_deterministic():
    commands = [
        ["constants"],
        ["phi", "--x", "0.3"],
        ["minprod", "--n", "100"],
        ["graph", "stats", "--graph6", C5],
        ["graph", "color", "--graph6", C5],
        ["graph", "greedy", "--graph6", C5],
        ["ramsey", "small", "--s", "3", "--t", "3"],
        ["ramsey", "bound", "--s", "4", "--t", "4"],
        ["ramsey", "table"],
        ["f", "exact", "--n", "5"],
        ["f", "search", "--n", "10"],
        ["f", "verify"],
        ["f", "curve"],
        ["conjecture", "rdc", "--s-max", "5"],
        ["conjecture", "weak-mult", "--s-max", "5"],
        ["conjecture", "implication", "--n-max", "15"],
        ["conjecture", "rates"],
        ["conjecture", "fact23"],
        ["report", "envelope", "--n-max", "5"],
    ]
    for argv in commands:
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second, argv


def test_removed_flags_exit_one(capsys):
    # --threads had no effect, and the bisection now picks its own precision
    # in place of --tol; both are gone, so either is a bad flag: exit 1.
    for argv, flag in (
        (["ramsey", "small", "--s", "3", "--t", "3"], ["--threads", "2"]),
        (["f", "exact", "--n", "6"], ["--threads", "2"]),
        (["f", "search", "--n", "12"], ["--threads", "2"]),
        (["constants"], ["--tol", "1e-10"]),
    ):
        code, out = run_cli(argv + flag)
        err = capsys.readouterr().err
        assert code == 1 and out == "", argv
        assert err.endswith(f"chiomega: error: unrecognized arguments: {' '.join(flag)}\n"), err
        assert "Traceback" not in err


def test_import_loads_no_thread_pool():
    # Every solver runs in the calling thread; importing the package and the
    # CLI must not pull in executor machinery.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, chiomega, chiomega.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chiomega.cli", "minprod", "--n", "20"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"n": 20, "k": 6, "st_min": 9}
