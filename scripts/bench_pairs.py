"""Run the benchmark on a parent tree and a changed tree in pairs, and compare them.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N

Each tree runs its own ``bench/run.py`` with the run length from the change's
``BENCHMARK.json`` (16 s), one run at a time. Pair k gives both sides seed k;
the change runs first on odd pairs and the parent first on even ones.

Standard output is one JSON object in the layout of a ``series`` entry of a
``BENCH_*.json`` file: the workload, the order of the runs, a summary of
each end-to-end metric and every run. A summary gives each side's median
and quartiles (``statistics.quantiles(n=4, method="inclusive")``), the
number of pairs the change won (a tie counts for neither side), and
``change_worse_by``, the change's median against the parent's as a
fraction of the parent's, positive when worse, beside the metric's bound.
It also applies the benchmark's gain rule: ``parent_spread`` is the
parent's (q3 - q1) / median, and ``gain_rule_met`` is true when the change
won at least 9 in 10 of all pairs and its median moved the better way by
more than the parent's q3 - q1. ``regression`` is the no-regression verdict,
decided in this order: ``"unresolved"`` when ``parent_spread`` exceeds the
bound, so that the parent's own runs cannot tell a shift of the bound,
unless every change run is strictly better than every parent run;
``"worse"`` when ``change_worse_by`` exceeds the bound; ``"none"`` otherwise.
``faults`` counts, per side, the runs that reported themselves incorrect
and the operations that failed; the script exits 1, after printing, if
either count is nonzero on either side. ``package_lines`` is each tree's
line total of ``src/plottmatch/*.py``, as ``wc -l`` counts it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _round(x: float) -> float:
    return float(f"{x:.7g}")


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": _round(median), "q1": _round(q1), "q3": _round(q3)}


def summarize(runs, end_to_end):
    """Each end-to-end metric's quartiles per side, pairs won, its loss, the gain and regression rules.

    ``runs`` are flat run records (``side``, ``pair`` and one value per
    metric), two per pair; ``end_to_end`` is BENCHMARK.json's list.
    """
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    summary = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        parent = [p["parent"][name] for p in by_pair.values()]
        change = [p["change"][name] for p in by_pair.values()]
        won = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
        q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        worse_by = sign * (median - statistics.median(change))
        worse, spread = round(worse_by / median, 4), round((q3 - q1) / median, 4)
        bound = metric["bound"]
        apart = min(sign * b for b in change) > max(sign * a for a in parent)
        summary[name] = {
            "parent": _quartiles(parent),
            "change": _quartiles(change),
            "change_worse_by": worse,
            "bound": bound,
            "change_better_in_pairs": f"{won}/{len(parent)}",
            "parent_spread": spread,
            "gain_rule_met": 10 * won >= 9 * len(parent) and -worse_by > q3 - q1,
            "regression": ("unresolved" if spread > bound and not apart
                           else "worse" if worse > bound else "none"),
        }
    return summary


def faults(runs):
    """Per side, the runs whose checks failed and the operations that raised, over all pairs."""
    return {side: {"incorrect_runs": sum(not r["correct"] for r in runs if r["side"] == side),
                   "failed_ops": sum(r["failed"] for r in runs if r["side"] == side)}
            for side in ("parent", "change")}


def package_lines(tree: Path) -> int:
    """The newlines in ``tree``'s package source files, summed."""
    return sum(path.read_bytes().count(b"\n") for path in tree.glob("src/plottmatch/*.py"))


def run_once(tree: Path, workload: str, seed: int, seconds: float, side: str, pair: int):
    """One bench/run.py process in ``tree``: its outcome and end-to-end metrics, flat."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {side} run of pair {pair} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"side": side, "pair": pair, "failed": result["failed"],
            "correct": result["correct"],
            **{k: _round(v["value"]) for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = []
    for pair in range(1, args.pairs + 1):
        sides = (("change", args.change), ("parent", args.parent))
        for side, tree in sides if pair % 2 else sides[::-1]:
            runs.append(run_once(tree, args.workload, pair, spec["run_seconds"], side, pair))
            print(f"# {json.dumps(runs[-1])}", file=sys.stderr, flush=True)
    broken = faults(runs)
    print(json.dumps({"workload": args.workload,
                      "order": f"{args.pairs} pairs, seed k for pair k, the change first "
                               "on odd pairs",
                      "summary": summarize(runs, spec["end_to_end"]), "faults": broken,
                      "package_lines": {"parent": package_lines(args.parent),
                                        "change": package_lines(args.change)},
                      "runs": runs}, indent=1))
    if any(n for counts in broken.values() for n in counts.values()):
        print(f"error: incorrect runs or failed operations: {json.dumps(broken)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
