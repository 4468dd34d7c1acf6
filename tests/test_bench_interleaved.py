"""Smoke runs of ``scripts/bench_interleaved.py`` on this tree against itself."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_interleaved.py"
_spec = importlib.util.spec_from_file_location("bench_interleaved", SCRIPT)
interleaved = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(interleaved)

SMOKE = ["--workload", "desk-exact", "--smoke"]


def test_each_seed_runs_in_its_own_process_and_prints_one_line():
    done = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--seeds", "1-2",
                           *SMOKE], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert [line["seed"] for line in lines] == [1, 2]
    for line in lines:
        assert line["workload"] == "desk-exact" and line["ops"] == 2 and line["problems"] == []
        assert line["parent_ops_per_s"] > 0 and line["change_ops_per_s"] > 0
        assert abs(line["ratio"] - line["change_ops_per_s"] / line["parent_ops_per_s"]) < 0.01


def test_a_failed_check_is_printed_then_exits_1(monkeypatch, capsys):
    real = interleaved.load_workload

    def failing(tree, name):
        return type("Failing", (real(tree, name),), {"check": lambda self, i, out: ["wrong"]})

    monkeypatch.setattr(interleaved, "load_workload", failing)
    assert interleaved.main([str(ROOT), str(ROOT), "--seeds", "3", *SMOKE]) == 1
    printed = json.loads(capsys.readouterr().out)
    assert printed["seed"] == 3 and printed["problems"][:2] == ["change operation 0: wrong",
                                                                "parent operation 0: wrong"]


def test_a_tree_without_the_package_exits_2(tmp_path, capsys):
    assert interleaved.main([str(tmp_path), str(ROOT), "--seeds", "1", *SMOKE]) == 2
    assert "has no src/plottmatch" in capsys.readouterr().err
    assert interleaved.seed_range("1-4") == range(1, 5)
    assert interleaved.seed_range("7") == range(7, 8)
