"""The parent/change pair summary of ``scripts/bench_pairs.py``, on canned runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
           {"name": "op_p50_s", "better": "lower", "bound": 0.25}]


def _runs(parent, change):
    """Flat records for pairs 1, 2, ...: (ops_per_s, op_p50_s) per side, change first on odd."""
    runs = []
    for pair, (a, b) in enumerate(zip(parent, change), 1):
        both = [{"side": "change", "pair": pair, "ops_per_s": b[0], "op_p50_s": b[1]},
                {"side": "parent", "pair": pair, "ops_per_s": a[0], "op_p50_s": a[1]}]
        runs += both if pair % 2 else both[::-1]
    return runs


def test_quartiles_wins_and_loss_per_metric():
    parent = [(100, 0.010), (110, 0.012), (90, 0.011), (120, 0.010), (100, 0.013)]
    change = [(105, 0.010), (110, 0.011), (99, 0.012), (118, 0.009), (130, 0.012)]
    summary = bench_pairs.summarize(_runs(parent, change), METRICS)
    assert list(summary) == ["ops_per_s", "op_p50_s"]
    ops, p50 = summary["ops_per_s"], summary["op_p50_s"]
    # inclusive quartiles of 90, 100, 100, 110, 120 and of 99, 105, 110, 118, 130
    assert ops["parent"] == {"median": 100, "q1": 100, "q3": 110}
    assert ops["change"] == {"median": 110, "q1": 105, "q3": 118}
    assert ops["change_better_in_pairs"] == "3/5"  # pair 2 ties and counts for neither
    assert ops["change_worse_by"] == -0.1 and ops["bound"] == 0.25
    assert p50["parent"] == {"median": 0.011, "q1": 0.01, "q3": 0.012}
    assert p50["change_better_in_pairs"] == "3/5"  # pair 1 ties
    assert p50["change_worse_by"] == pytest.approx(0.0) and p50["change"]["median"] == 0.011


def test_a_loss_is_positive_for_either_direction():
    summary = bench_pairs.summarize(_runs([(200, 0.004)] * 2, [(150, 0.005)] * 2), METRICS)
    assert summary["ops_per_s"]["change_worse_by"] == 0.25
    assert summary["op_p50_s"]["change_worse_by"] == 0.25
    assert {s["change_better_in_pairs"] for s in summary.values()} == {"0/2"}


def test_the_summary_names_every_end_to_end_metric_of_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    runs = [{"side": side, "pair": pair, **{n: 1.0 + pair for n in names}}
            for pair in (1, 2) for side in ("change", "parent")]
    summary = bench_pairs.summarize(runs, spec["end_to_end"])
    assert list(summary) == names
    assert all(s["change_worse_by"] == 0 and s["change_better_in_pairs"] == "0/2"
               for s in summary.values())


def test_fewer_than_two_pairs_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exited:
        bench_pairs.main([str(ROOT), str(ROOT), "--workload", "solve-cold", "--pairs", "1"])
    assert exited.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err


def _run(side, pair, correct=True, failed=0):
    """A flat run record with every end-to-end metric of the benchmark."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"side": side, "pair": pair, "correct": correct, "failed": failed,
            **{m["name"]: 1.0 + pair for m in spec["end_to_end"]}}


def test_faults_count_incorrect_runs_and_failed_operations_per_side():
    clean = [_run(side, pair) for pair in (1, 2) for side in ("change", "parent")]
    assert bench_pairs.faults(clean) == {"parent": {"incorrect_runs": 0, "failed_ops": 0},
                                         "change": {"incorrect_runs": 0, "failed_ops": 0}}
    broken = [_run("change", 1, failed=3), _run("parent", 1, correct=False),
              _run("parent", 2, correct=False, failed=1), _run("change", 2, failed=2)]
    assert bench_pairs.faults(broken) == {"parent": {"incorrect_runs": 2, "failed_ops": 1},
                                          "change": {"incorrect_runs": 0, "failed_ops": 5}}


def _main_on(canned, monkeypatch, capsys):
    """main() over canned runs, keyed by (side, pair): its exit code and printed summary."""
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda tree, workload, seed, seconds, side, pair: canned[side, pair])
    code = bench_pairs.main([str(ROOT), str(ROOT), "--workload", "desk-exact", "--pairs", "2"])
    out = capsys.readouterr()
    return code, json.loads(out.out), out.err


@pytest.mark.parametrize("fault", [{"correct": False}, {"failed": 1}])
def test_a_broken_run_is_summarised_then_exits_1(fault, monkeypatch, capsys):
    canned = {(side, pair): _run(side, pair) for side in ("change", "parent") for pair in (1, 2)}
    canned["parent", 2] = {**canned["parent", 2], **fault}
    code, printed, err = _main_on(canned, monkeypatch, capsys)
    assert code == 1 and "incorrect runs or failed operations" in err
    assert printed["faults"]["change"] == {"incorrect_runs": 0, "failed_ops": 0}
    assert sum(printed["faults"]["parent"].values()) == 1
    assert printed["summary"]["ops_per_s"]["change_better_in_pairs"] == "0/2"
    assert len(printed["runs"]) == 4


def test_clean_runs_exit_0(monkeypatch, capsys):
    canned = {(side, pair): _run(side, pair) for side in ("change", "parent") for pair in (1, 2)}
    code, printed, err = _main_on(canned, monkeypatch, capsys)
    assert code == 0 and "error" not in err
    assert printed["faults"] == bench_pairs.faults(list(canned.values()))
    lines = sum(len(path.read_text().splitlines()) for path in ROOT.glob("src/plottmatch/*.py"))
    assert printed["package_lines"] == {"parent": lines, "change": lines} and lines > 0


def _gain_summary(parent_ops, change_ops):
    """summarize over ten pairs whose op_p50_s is 1 / ops_per_s, so both metrics move together."""
    return bench_pairs.summarize(_runs([(a, 1 / a) for a in parent_ops],
                                       [(b, 1 / b) for b in change_ops]), METRICS)


PARENT_OPS = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # q1 102.25, q3 106.75


def test_nine_wins_beyond_the_parents_spread_meet_the_gain_rule():
    summary = _gain_summary(PARENT_OPS, [a + 10 for a in PARENT_OPS[:9]] + [108])
    ops = summary["ops_per_s"]
    assert ops["change_better_in_pairs"] == "9/10"
    assert ops["parent_spread"] == round(4.5 / 104.5, 4)
    assert ops["gain_rule_met"] and summary["op_p50_s"]["gain_rule_met"]


def test_eight_wins_miss_the_gain_rule_however_far_the_median_moves():
    summary = _gain_summary(PARENT_OPS, [a + 50 for a in PARENT_OPS[:8]] + [107, 108])
    assert summary["ops_per_s"]["change_better_in_pairs"] == "8/10"
    assert not any(s["gain_rule_met"] for s in summary.values())


def test_nine_wins_inside_the_parents_spread_miss_the_gain_rule():
    parent = [100 + 20 * i for i in range(10)]  # q1 145, q3 235
    summary = _gain_summary(parent, [a + 5 for a in parent[:9]] + [279])
    ops = summary["ops_per_s"]
    assert ops["change_better_in_pairs"] == "9/10" and ops["parent_spread"] == round(90 / 190, 4)
    assert not any(s["gain_rule_met"] for s in summary.values())



def test_a_parent_spread_past_the_bound_leaves_the_regression_unresolved():
    parent = [100 + 20 * i for i in range(10)]  # spread 90 / 190, past the bound of 0.25
    for change in (parent, [a - 1 for a in parent], [a + 100 for a in parent]):
        assert _gain_summary(parent, change)["ops_per_s"]["regression"] == "unresolved"
    clear = _gain_summary(parent, [281 + i for i in range(10)])  # every run beats every parent run
    assert {s["regression"] for s in clear.values()} == {"none"}


def test_a_loss_past_the_bound_is_a_regression():
    summary = _gain_summary(PARENT_OPS, [a * 0.7 for a in PARENT_OPS])
    assert summary["ops_per_s"]["change_worse_by"] == pytest.approx(0.3)
    assert {s["regression"] for s in summary.values()} == {"worse"}


def test_a_loss_inside_the_bound_is_no_regression():
    summary = _gain_summary(PARENT_OPS, [a * 0.9 for a in PARENT_OPS])
    assert summary["ops_per_s"]["change_worse_by"] == pytest.approx(0.1)
    assert {s["regression"] for s in summary.values()} == {"none"}
    assert _gain_summary(PARENT_OPS, PARENT_OPS)["ops_per_s"]["regression"] == "none"
