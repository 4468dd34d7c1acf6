"""Spans and counters around the package's public entry points.

Nothing in the package is edited: :meth:`Tracer.install` replaces each
entry point, in every ``plottmatch`` module that holds a reference to it,
with a wrapper that records a span (name, start, end, parent span, the
operation it belongs to) and, where the call's result carries a count, that
count. Side evaluations are counted by wrapping ``Aggregate._choose_mask``;
the two sides passed to ``side_pair`` are registered as F and G, so that
their evaluations are told apart from those of other aggregates.

Spans stay in memory and are written out by the caller when the run ends.
"""

from __future__ import annotations

import statistics
import sys
import time
import weakref
from collections import defaultdict

# layer -> public functions recorded as spans
ENTRY_POINTS = {
    "market": ("parse_instance", "aggregate_sides"),
    "choice": ("is_plott", "choice_table", "decompose_into_orders", "closure_star"),
    "stability": ("side_pair", "run_to_fixpoint", "side_optimal", "is_stable_set",
                  "lattice_join", "lattice_meet", "blair_compare_stable",
                  "comparative_statics"),
    "oracle": ("enumerate_stable_sets", "verify_lattice"),
    "hyperorders": ("audit_lehmann_axioms", "reconstruct_choice", "blair_leq"),
}

# per-layer metric -> the entry point whose mean time per call it reports
CALL_TIMES = {
    "market.parse_s": "market.parse_instance",
    "market.aggregate_s": "market.aggregate_sides",
    "choice.certify_s": "choice.is_plott",
    "choice.decompose_s": "choice.decompose_into_orders",
    "stability.phi_s": "stability.run_to_fixpoint",
    "stability.is_stable_s": "stability.is_stable_set",
    "stability.join_s": "stability.lattice_join",
    "stability.meet_s": "stability.lattice_meet",
    "stability.statics_s": "stability.comparative_statics",
    "oracle.enumerate_s": "oracle.enumerate_stable_sets",
    "oracle.verify_lattice_s": "oracle.verify_lattice",
    "hyperorders.audit_s": "hyperorders.audit_lehmann_axioms",
    "hyperorders.roundtrip_s": "hyperorders.reconstruct_choice",
}

# (name, unit) of every per-layer metric, in report order
METRICS = (
    ("market.parse_s", "s"),
    ("market.aggregate_s", "s"),
    ("market.self_s", "s"),
    ("choice.certify_s", "s"),
    ("choice.evals_F", "count"),
    ("choice.evals_G", "count"),
    ("choice.eval_one_us", "us"),
    ("choice.eval_full_us", "us"),
    ("choice.table_builds", "count"),
    ("choice.table_build_s", "s"),
    ("choice.table_cache_hits", "count"),
    ("choice.table_cache_entries", "count"),
    ("choice.table_cache_mib", "MiB"),
    ("choice.decompose_s", "s"),
    ("choice.self_s", "s"),
    ("stability.phi_s", "s"),
    ("stability.phi_steps", "count"),
    ("stability.evals_per_step", "count"),
    ("stability.is_stable_s", "s"),
    ("stability.join_s", "s"),
    ("stability.meet_s", "s"),
    ("stability.statics_s", "s"),
    ("stability.self_s", "s"),
    ("oracle.enumerate_s", "s"),
    ("oracle.stable_sets", "count"),
    ("oracle.verify_lattice_s", "s"),
    ("oracle.pairs_checked", "count"),
    ("oracle.self_s", "s"),
    ("hyperorders.audit_s", "s"),
    ("hyperorders.roundtrip_s", "s"),
    ("hyperorders.self_s", "s"),
)

OUTSIDE = -1  # operation index of work outside the timed operations


class Tracer:
    """Records spans and evaluation counts for one run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # [name id, start, end, parent index or -1, operation, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = OUTSIDE
        self.sides: dict[int, str] = {}
        self.evals = defaultdict(int)       # (operation, side label) -> count
        self.eval_total = 0
        self.table_hits = defaultdict(int)  # operation -> cache hits
        self._tables: list = []             # (weakref to a built table, bytes)
        self.eval_samples = {"one": [], "full": []}
        self._aggregate = None
        self._choice_table = None

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, count=None):
        nid = self._name_id(name)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            record = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(record)
            stack.append(index)
            before = self.eval_total
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                record[5] = count(result, self.eval_total - before)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every entry point of a freshly imported plottmatch."""
        modules = [m for key, m in sys.modules.items()
                   if key == "plottmatch" or key.startswith("plottmatch.")]
        choice = sys.modules["plottmatch.choice"]
        self._aggregate = choice.Aggregate
        self._choice_table = choice.choice_table
        counts = {
            "stability.run_to_fixpoint": lambda trace, evals: (trace.terminated_at + 1, evals),
            "oracle.enumerate_stable_sets": lambda cat, evals: len(cat.stable_sets),
            "oracle.verify_lattice": lambda report, evals: report.pairs_checked,
        }
        for layer, names in ENTRY_POINTS.items():
            module = sys.modules[f"plottmatch.{layer}"]
            for name in names:
                original = getattr(module, name)
                full = f"{layer}.{name}"
                if name == "choice_table":
                    wrapper = self._wrap_choice_table(full, original)
                elif name == "side_pair":
                    wrapper = self._wrap_side_pair(full, original)
                else:
                    wrapper = self._wrap(full, original, counts.get(full))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
        original_eval = self._aggregate._choose_mask
        tracer = self

        def counted(agg, xmask):
            tracer.eval_total += 1
            tracer.evals[tracer.op, tracer.sides.get(id(agg), "other")] += 1
            return original_eval(agg, xmask)

        counted.__wrapped__ = original_eval
        self._aggregate._choose_mask = counted

    def _wrap_side_pair(self, name, original):
        def register(F, G, *args, **kwargs):
            self.sides = {id(F): "F", id(G): "G"}
            return original(F, G, *args, **kwargs)
        return self._wrap(name, register)

    def _wrap_choice_table(self, name, cached):
        """Spans for table builds only; cache hits are counted, not spanned."""
        nid = self._name_id(name)
        spans = self.spans
        stack = self._stack

        def traced(cf):
            misses = cached.cache_info().misses
            index = len(spans)
            record = [nid, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(record)
            stack.append(index)
            try:
                table = cached(cf)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if cached.cache_info().misses == misses:
                del spans[index:]
                self.table_hits[self.op] += 1
            else:
                self._tables.append((weakref.ref(table), table.nbytes))
            return table

        traced.cache_info = cached.cache_info
        traced.cache_clear = cached.cache_clear
        traced.__wrapped__ = cached
        return traced

    def sample_evals(self, sides, contract_set, repeats: int = 5):
        """Time single evaluations of both sides on one contract and on all."""
        counted = self._aggregate._choose_mask
        self._aggregate._choose_mask = counted.__wrapped__
        try:
            n = sides.universe_size
            for side in (sides.F, sides.G):
                for key, mask in (("one", 1 << (n // 2)), ("full", (1 << n) - 1)):
                    x = contract_set(n, mask)
                    for _ in range(repeats):
                        t = time.perf_counter()
                        side.choose(x)
                        self.eval_samples[key].append(time.perf_counter() - t)
        finally:
            self._aggregate._choose_mask = counted

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics of the run; ``ops`` timed operations were made."""
        names = self.names
        durations = defaultdict(list)
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        layer_self = defaultdict(float)
        build_self = []
        steps = []
        phi_evals = 0
        for i, rec in enumerate(self.spans):
            name = names[rec[0]]
            dur = rec[2] - rec[1]
            durations[name].append(dur)
            if rec[4] != OUTSIDE:
                layer_self[name.split(".")[0]] += dur - child_time[i]
            if name == "choice.choice_table":
                build_self.append(dur - child_time[i])
            elif name == "stability.run_to_fixpoint" and rec[5] is not None:
                steps.append(rec[5][0])
                phi_evals += rec[5][1]

        def mean(values):
            return statistics.fmean(values) if values else 0.0

        def count_mean(name):
            return mean([rec[5] for rec in self.spans
                         if names[rec[0]] == name and rec[5] is not None])

        out = {metric: mean(durations.get(entry, [])) for metric, entry in CALL_TIMES.items()}
        for layer in ENTRY_POINTS:
            out[f"{layer}.self_s"] = layer_self[layer] / ops
        for side in ("F", "G"):
            out[f"choice.evals_{side}"] = sum(
                v for (op, label), v in self.evals.items()
                if op != OUTSIDE and label == side) / ops
        out["choice.eval_one_us"] = 1e6 * statistics.median(self.eval_samples["one"])
        out["choice.eval_full_us"] = 1e6 * statistics.median(self.eval_samples["full"])
        out["choice.table_builds"] = sum(
            1 for rec in self.spans
            if names[rec[0]] == "choice.choice_table" and rec[4] != OUTSIDE) / ops
        out["choice.table_build_s"] = mean(build_self)
        out["choice.table_cache_hits"] = sum(
            v for op, v in self.table_hits.items() if op != OUTSIDE) / ops
        out["choice.table_cache_entries"] = self._choice_table.cache_info().currsize
        out["choice.table_cache_mib"] = sum(
            size for ref, size in self._tables if ref() is not None) / 2**20
        out["stability.phi_steps"] = mean(steps)
        out["stability.evals_per_step"] = phi_evals / sum(steps) if steps else 0.0
        out["oracle.stable_sets"] = count_mean("oracle.enumerate_stable_sets")
        out["oracle.pairs_checked"] = count_mean("oracle.verify_lattice")
        return {name: out[name] for name, _ in METRICS}

    def dump(self) -> dict:
        """The spans in a compact form: names plus one row per span."""
        return {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op", "count"],
            "spans": self.spans,
        }
