"""Golden CLI transcript: stdout and exit code of fixed commands, byte for byte.

The pinned outputs in ``cli_transcript.json`` cover the exhaustive f(n) and
Ramsey searches (with and without budgets; f(9) only under one), the f
construction search, the bounds table and its closure, table verification, the
single-graph commands (two colorings under a chi budget), the conjecture
checks and reports, the rate constants (default, as text, and at delta 0 and
20), the f curve and the ratio envelope. A change that alters any of them
must be deliberate: regenerate the file with

    PYTHONPATH=src python tests/test_cli_transcript.py

and record the change.
"""

import json
from pathlib import Path

from chiomega.graphs import paley_graph, to_graph6
from conftest import petersen_graph, run_cli

TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")


def transcript_commands() -> list[list[str]]:
    cmds = [["f", "exact", "--n", str(n)] for n in range(1, 8)]
    cmds += [["f", "exact", "--n", "7", "--budget", str(b)] for b in (0, 50, 1000, 11290)]
    cmds += [["f", "exact", "--n", "9", "--budget", "1000"]]
    cmds += [["ramsey", "small", "--s", "2", "--t", str(t)] for t in range(2, 6)]
    cmds += [["ramsey", "small", "--s", "3", "--t", str(t)] for t in (3, 4)]
    cmds += [["ramsey", "small", "--s", "3", "--t", "4", "--budget", "4551"]]
    cmds += [["ramsey", "small", "--s", "3", "--t", "5", "--budget", str(b)] for b in (50, 5000)]
    cmds += [["f", "search", "--n", str(n)] for n in (13, 32)]
    cmds += [["ramsey", "table", "--closure"], ["f", "verify"]]
    for g6 in ("Dhc", to_graph6(petersen_graph())):
        cmds += [["graph", sub, "--graph6", g6] for sub in ("stats", "color", "greedy")]
    # Budgeted chi searches that beat the greedy coloring (11 -> 10, 10 -> 9)
    # before their budget runs out: they pin the DSATUR tree's first leaves.
    for q, pad, budget in ((37, 11, 100), (41, 7, 1000)):
        g6 = to_graph6(paley_graph(q).add_isolated(pad))
        cmds += [["graph", "color", "--graph6", g6, "--budget", str(budget)]]
    cmds += [["ramsey", "table"], ["ramsey", "bound", "--s", "3", "--t", "5"]]
    cmds += [["conjecture", c, "--s-max", "5"] for c in ("rdc", "weak-mult")]
    cmds += [["conjecture", "rates"], ["conjecture", "fact23"], ["constants"], ["f", "curve"]]
    cmds += [["constants", "--format", "text"], ["constants", "--delta", "0"]]
    cmds += [["constants", "--delta", "20"], ["report", "envelope", "--n-max", "12"]]
    return cmds


def test_cli_transcript_is_unchanged():
    pinned = json.loads(TRANSCRIPT.read_text(encoding="ascii"))
    assert [entry["argv"] for entry in pinned] == transcript_commands()
    for entry in pinned:
        code, out = run_cli(entry["argv"])
        assert (code, out) == (entry["exit"], entry["stdout"]), entry["argv"]


if __name__ == "__main__":
    entries = []
    for argv in transcript_commands():
        code, out = run_cli(argv)
        entries.append({"argv": argv, "exit": code, "stdout": out})
    lines = ",\n".join(" " + json.dumps(entry) for entry in entries)
    TRANSCRIPT.write_text("[\n" + lines + "\n]\n", encoding="ascii")
