"""Benchmark of the plottmatch package: one workload per run.

    python3 bench/run.py --workload solve-cold --seed 1 --seconds 15 --trace 0

A run is one process, one client and a closed loop: it settles the
machine's speed, sets the workload up three times (importing the package
afresh each time), then makes a fixed number of operations one after the
other, timing each and checking each output against the reference code.
The number of operations follows from ``--seconds`` alone, so a run does
the same work on every commit. Reported times are scaled to a reference
machine speed, measured by a probe loop run between the operations (see
``speed.py``); the measured times are kept in the run's record.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones). Everything else a run records, spans
included, goes to ``.bench_out/`` in the checkout. ``--smoke`` runs a tiny
input with no settling.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
# operations needed before the 90th percentile has ten samples beyond it
TAIL_SAMPLES = 100


def fresh_package():
    """Import plottmatch from the checkout's src/, dropping any earlier import."""
    for key in [k for k in sys.modules if k == "plottmatch" or k.startswith("plottmatch.")]:
        del sys.modules[key]
    pm = importlib.import_module("plottmatch")
    if Path(pm.__file__).resolve().parent != SRC / "plottmatch":
        raise SystemExit(f"error: imported plottmatch from {pm.__file__}, not from {SRC}")
    return pm


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    return {"commit": git_commit(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__}


def end_to_end(op_times, setup_times) -> dict:
    """The end-to-end metrics from times scaled to the reference speed."""
    tail = (statistics.quantiles(op_times, n=10)[8] if len(op_times) >= TAIL_SAMPLES
            else statistics.median(op_times))
    return {
        "ops_per_s": (len(op_times) / sum(op_times), "1/s"),
        "op_p50_s": (statistics.median(op_times), "s"),
        "op_p90_s": (tail, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from bench.speed import SpeedMeter, settle
    from bench.tracing import METRICS, OUTSIDE, Tracer
    from bench.workloads import WORKLOADS

    env = environment()
    workload = WORKLOADS[workload_name](seed, seconds, smoke)
    tracer = Tracer() if trace else None
    machine = {"settled": None} if smoke else settle()
    meter = SpeedMeter()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        meter.sample(force=True)
        t = time.perf_counter()
        pm = fresh_package()
        if tracer:
            tracer.install()
        workload.setup(pm)
        setup_times.append(time.perf_counter() - t)
    meter.sample(force=True)
    workload.prepare()

    op_times = []
    op_marks = []
    failed = 0
    problems = []
    for i in range(workload.ops):
        meter.sample()
        mark = meter.mark()
        if tracer:
            tracer.op = i
        t = time.perf_counter()
        try:
            result = workload.op(pm, i)
        except Exception:
            elapsed = None
            failed += 1
            print(f"operation {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
        else:
            elapsed = time.perf_counter() - t
        if tracer:
            tracer.op = OUTSIDE
        if elapsed is None:
            continue
        op_times.append(elapsed)
        op_marks.append(mark)
        for p in workload.check(i, result):
            problems.append(f"operation {i}: {p}")
        if tracer:
            tracer.sample_evals(result[0], pm.ContractSet)
    meter.sample(force=True)
    factor = meter.factor()
    scaled_ops = [t * meter.factor_at(m) for t, m in zip(op_times, op_marks)]
    # a set-up lasts seconds with probe points only at its ends, which
    # follow it poorly, so the whole run's probe points scale it
    scaled_setup = [t * factor for t in setup_times]
    e2e = end_to_end(scaled_ops, scaled_setup) if op_times else {}
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "environment": env, "machine": machine,
        "speed_factor": factor, "probe_points_s": meter.points,
        "inputs": workload.describe(), "operations": workload.ops,
        "timed_samples": len(op_times),
        "op_p90_is": ("p90" if len(op_times) >= TAIL_SAMPLES else "median"),
        "setup_times_s": setup_times, "op_times_s": op_times,
        "scaled_op_times_s": scaled_ops, "problems": problems[:20],
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
    }
    if tracer and op_times:
        layer = tracer.metrics(len(op_times))
        record["per_layer_measured"] = layer
        metrics = {name: {"value": layer[name] * (factor if unit in ("s", "us") else 1),
                          "unit": unit} for name, unit in METRICS}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()) + "\n")

    print(f"# {workload_name} seed={seed} commit={env['commit'][:12]} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']}")
    if machine["settled"] is not None:
        print(f"# settled={machine['settled']} after {machine['seconds']:.1f} s, "
              f"probe {machine['probe_ms']:.2f} ms")
    print(f"# speed factor {factor:.4f} over the run (reference-speed seconds per measured second)")
    print(f"# {len(op_times)} timed operations; op_p90_s is the {record['op_p90_is']}")
    if "ops_per_s" in e2e:
        print(f"# ops_per_s {e2e['ops_per_s'][0]:.4f} at reference speed, "
              f"{len(op_times) / sum(op_times):.4f} measured{' (traced)' if tracer else ''}")
    for p in problems[:5]:
        print(f"# CHECK FAILED {p}", file=sys.stderr)
    return {"correct": not problems and bool(op_times), "attempted": workload.ops,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-cold", "resolve-warm", "desk-exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "plottmatch" / "__init__.py").is_file():
        print(f"error: no plottmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
