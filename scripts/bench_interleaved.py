"""Size a change by running its operations and the parent's interleaved in one process.

    python3 scripts/bench_interleaved.py PARENT_DIR CHANGE_DIR --workload W --seeds 1-4
        [--seconds S] [--smoke]

Each seed runs in a process of its own. That process copies each tree's
``src/plottmatch`` to a temporary directory and imports the copies under
names of their own, so both packages live side by side. It sets the
workload up from the parent's ``bench/workloads.py`` once per package, with
the same seed, then times operation i of both packages back to back, the
change first on even i and the parent first on odd i, and checks every
output with the workload's ``check``. ``--seconds`` (default: the change's
``BENCHMARK.json`` run length) and ``--smoke`` size the workload as
``bench/run.py`` does; there is no settling and no speed scaling.

Standard output is one JSON object per seed: the seed, the operations per
tree, each tree's measured operations per second and the ratio of the
change's to the parent's. The script exits 1 when a check fails and 2 when
a tree has no ``src/plottmatch``.

This sizes a change; it never makes a claim. A 2-core sandbox's speed
moves by up to 1.6 times between runs; interleaving cancels most of that,
but not all (one tree against a copy of itself read 0.981–1.019 over six
``desk-exact`` seeds there), and the ratio is not the benchmark's metric.
Claims come from ``scripts/bench_pairs.py``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def seed_range(text: str) -> range:
    """``"3"`` or ``"1-4"``, both ends included."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def load_workload(tree: Path, name: str):
    """Workload ``name`` of ``tree/bench/workloads.py``, imported apart from any ``bench``."""
    package = "_interleaved_bench"
    if package not in sys.modules:
        init = tree / "bench" / "__init__.py"
        spec = importlib.util.spec_from_file_location(
            package, init, submodule_search_locations=[str(init.parent)])
        sys.modules[package] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[package])
    return importlib.import_module(f"{package}.workloads").WORKLOADS[name]


def import_copy(tree: Path, into: Path, side: str):
    """``tree``'s plottmatch, copied into ``into`` and imported as ``plottmatch_<side>``."""
    name = f"plottmatch_{side}"
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]  # an earlier copy, imported by an earlier call
    shutil.copytree(tree / "src" / "plottmatch", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(into))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(into))


def run_seed(trees: dict, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One seed in this process: each tree's measured ops/s and the change's ratio."""
    cls = load_workload(trees["parent"], workload)
    workloads = {side: cls(seed, seconds, smoke) for side in SIDES}
    spent = dict.fromkeys(SIDES, 0.0)
    problems = []
    ops = workloads["parent"].ops
    with tempfile.TemporaryDirectory() as tmp:  # kept while the copies run
        packages = {side: import_copy(trees[side], Path(tmp), side) for side in SIDES}
        for side in SIDES:
            workloads[side].setup(packages[side])
            workloads[side].prepare()
        for i in range(ops):
            for side in SIDES[::-1] if i % 2 == 0 else SIDES:
                start = time.perf_counter()
                result = workloads[side].op(packages[side], i)
                spent[side] += time.perf_counter() - start
                problems += [f"{side} operation {i}: {p}" for p in workloads[side].check(i, result)]
    rate = {side: ops / spent[side] for side in SIDES}
    return {"workload": workload, "seed": seed, "ops": ops,
            "parent_ops_per_s": round(rate["parent"], 2),
            "change_ops_per_s": round(rate["change"], 2),
            "ratio": round(rate["change"] / rate["parent"], 4), "problems": problems[:5]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "src" / "plottmatch" / "__init__.py").is_file():
            print(f"error: the {side} tree {tree} has no src/plottmatch", file=sys.stderr)
            return 2
    seconds = args.seconds or json.loads((trees["change"] / "BENCHMARK.json").read_text())[
        "run_seconds"]
    if len(args.seeds) == 1:
        result = run_seed(trees, args.workload, args.seeds[0], seconds, args.smoke)
        print(json.dumps(result), flush=True)
        return 1 if result["problems"] else 0
    code = 0
    for seed in args.seeds:  # each seed in a new process, which prints its own line
        command = [sys.executable, __file__, *map(str, trees.values()), "--workload",
                   args.workload, "--seeds", str(seed), "--seconds", str(seconds)]
        code = max(code, subprocess.run(command + ["--smoke"] * args.smoke).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
