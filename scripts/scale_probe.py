"""Time one tree's large-market path at the given sizes, one fresh process per size.

    python3 scripts/scale_probe.py TREE --sizes N [N ...] [--family terms --terms T | long]

The market of size N is, in the default family, ``make_market_text(w, w //
3, 3, seed=1)`` of this repository's ``tests/conftest.py`` with w = N // 3:
3w contracts, order workers and quota firms with q = 2. In the ``terms``
family it is ``make_terms_market_text(w, T, seed=1)`` with w = N // (3T):
3wT contracts, each worker–firm pair with T terms, whose Φ runs are long.
In the ``long`` family it is ``make_long_run_market_text(n, seed=1)`` with
n = isqrt(N): n² contracts, a complete one-to-one market whose
worker-proposing Φ runs n² − 3n + 4 steps. For each size a fresh Python
process imports TREE's ``src/plottmatch`` and ``bench``, reads the market
text on standard input, and runs parse → ``aggregate_sides`` (which
certifies) → ``side_optimal`` for F and for G → ``is_stable_set`` on both
optima, and then times a warm re-solve: ``semi_stable_pair`` and
``run_to_fixpoint`` from (Y₀, C), where Y₀ is F(C) masked by
``random.Random(1).getrandbits``.

Standard output is one JSON object per size: ``contracts``; the wall time
of each step (``parse_s``, ``aggregate_s``, ``optimum_F_s``,
``optimum_G_s``, ``stable_s`` for both checks, and ``total_s``); ``warm_s``,
the warm re-solve, which ``total_s`` leaves out, and
``warm_matches_optimum_F``, whether it returned F's optimum;
``peak_rss_mib`` after the last step; ``aggregate_rss_mib``, the memory
that one more, untimed ``aggregate_sides`` on the parsed market retains
(tracemalloc; the timed build's certification verdicts are read from
their memo), run after every timed step and after the peak is read;
``openssl_loaded``, whether ``_hashlib`` was imported by then;
``optima_stable``; ``phi_steps_F`` and ``phi_steps_G``, the Φ steps of
each side's run from (∅, C), counted after every measurement; and
``matches_reference``. Up to REFERENCE_LIMIT contracts both optima are
compared with ``bench.reference``'s deferred acceptance, proposed by the
workers for F's optimum and by the firms for G's (``null`` above it); that
runs after every measurement. In the ``long`` family the limit is
LONG_REFERENCE_LIMIT, 4,900 contracts, since the reference makes one
whole-side pass per Φ step: on a 2-core machine it took 4 s there and 26 s
at 10,000. The script exits 1, after printing, when an optimum differs
from deferred acceptance or fails its stability check, or the warm
re-solve differs from F's optimum.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from math import isqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_LIMIT = 20_001
LONG_REFERENCE_LIMIT = 4_900  # the long family's n = 70
SMALLEST = 27  # contracts per term: w // 3 = 3 firms, as each worker contracts with 3 of them


def _as_generated(m):
    """The parsed baseline market as generator data: each agent's order, acceptable set
    and quota on global indices."""
    from bench.markets import Agent, Market

    firm_of = {a: i for i, a in enumerate(m.firms)}
    worker_of = {a: i for i, a in enumerate(m.workers)}

    def agent(name):
        spec = m.spec_of(name)
        block, cf = m.block_of(name), spec.cf
        acceptable = sum(1 << g for j, g in enumerate(block) if cf.acceptable_mask >> j & 1)
        return Agent(name, spec.kind, block,
                     ((tuple(block[j] for j in cf.order), acceptable, cf.quota),))

    contracts = tuple((firm_of[c.firm], worker_of[c.worker], c.u_worker, c.u_firm)
                      for c in m.contracts)
    return Market(m.firms, m.workers, contracts, tuple(map(agent, m.firms)),
                  tuple(map(agent, m.workers)))


def _peak_mib() -> float:
    """This process's peak resident set, VmHWM: unlike ``ru_maxrss``, it starts afresh at exec
    rather than at the peak of the process that forked it (Linux)."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024


def _retained_mib(build, *args) -> float:
    """The memory, traced by tracemalloc, that ``build(*args)`` holds while its result lives."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build(*args)  # held while the memory is read
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return round(retained / 2**20, 2)


def probe(text: str, reference_limit: int = REFERENCE_LIMIT) -> dict:
    """Run and measure the path on one market text in this process (see the module doc)."""
    import plottmatch as pm

    times = {}

    def timed(name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        times[name] = time.perf_counter() - start
        return out

    m = timed("parse_s", pm.parse_instance, text)
    sides = timed("aggregate_s", pm.aggregate_sides, m)
    worst = timed("optimum_F_s", pm.side_optimal, sides, "F")
    best = timed("optimum_G_s", pm.side_optimal, sides, "G")
    stable = timed("stable_s", lambda: [pm.is_stable_set(sides, s).stable for s in (worst, best)])
    n, full = sides.universe_size, pm.ContractSet.full(sides.universe_size)
    y0 = pm.ContractSet(n, sides.F.choose(full).mask & random.Random(1).getrandbits(n))
    start = time.perf_counter()
    warm = pm.run_to_fixpoint(sides, pm.semi_stable_pair(sides, y0, full)).result.S
    warm_s, peak = time.perf_counter() - start, _peak_mib()
    result = {"contracts": n, **{name: float(f"{t:.4g}") for name, t in times.items()},
              "total_s": float(f"{sum(times.values()):.4g}"), "warm_s": float(f"{warm_s:.4g}"),
              "warm_matches_optimum_F": warm == worst,
              "aggregate_rss_mib": _retained_mib(pm.aggregate_sides, m),
              "peak_rss_mib": round(peak, 2),
              "openssl_loaded": "_hashlib" in sys.modules, "optima_stable": all(stable)}
    bottom = pm.SemiStablePair(pm.ContractSet.empty(n), pm.ContractSet.full(n))
    for side, frame in (("F", sides), ("G", sides.swap())):
        result[f"phi_steps_{side}"] = pm.run_to_fixpoint(frame, bottom).terminated_at
    result["matches_reference"] = None
    if n <= reference_limit:
        from bench.reference import Reference

        ref = Reference(_as_generated(m))
        result["matches_reference"] = (worst.mask == ref.deferred_acceptance("workers")
                                       and best.mask == ref.deferred_acceptance("firms"))
    return result


def run_size(tree: Path, text: str, reference_limit: int = REFERENCE_LIMIT) -> dict:
    """``probe`` of one market text in a fresh process that imports ``tree``'s package."""
    path = os.pathsep.join(map(str, (tree / "src", tree, ROOT / "scripts")))
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, scale_probe;"
         f" print(json.dumps(scale_probe.probe(sys.stdin.read(), {reference_limit})))"],
        input=text, capture_output=True, text=True, cwd=tree,
        env={**os.environ, "PYTHONPATH": path})
    if done.returncode != 0:
        raise SystemExit(f"error: the probe process exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("--sizes", type=int, nargs="+", required=True)
    parser.add_argument("--family", choices=("baseline", "terms", "long"), default="baseline")
    parser.add_argument("--terms", type=int, default=1, help="terms per worker–firm pair (terms)")
    args = parser.parse_args(argv)
    if not (args.tree / "src" / "plottmatch").is_dir():
        parser.error(f"{args.tree} has no src/plottmatch")
    per_worker = 3 * (args.terms if args.family == "terms" else 1)
    smallest = 16 if args.family == "long" else SMALLEST * per_worker // 3  # long: n = 4
    if args.terms < 1 or min(args.sizes) < smallest:
        parser.error(f"--terms must be at least 1 and --sizes at least {smallest}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from conftest import make_long_run_market_text, make_market_text, make_terms_market_text

    failed = False
    for size in args.sizes:
        w, tree = size // per_worker, args.tree.resolve()
        if args.family == "long":
            text = make_long_run_market_text(isqrt(size), seed=1)
            result = run_size(tree, text, LONG_REFERENCE_LIMIT)
        else:
            text = (make_terms_market_text(w, args.terms, seed=1) if args.family == "terms"
                    else make_market_text(w, w // 3, 3, seed=1))
            result = run_size(tree, text)
        print(json.dumps(result), flush=True)
        failed |= (result["matches_reference"] is False or not result["optima_stable"]
                   or not result["warm_matches_optimum_F"])
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
