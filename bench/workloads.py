"""The three workloads: what one operation calls and how its output is checked.

Each workload generates its inputs from the run's seed during set-up,
walks them in the same order in every run, and checks every operation's
output against ``reference.py`` or against a property the method must have.
Operations call the package only through the module object passed in, so
that a freshly imported (and, in a traced run, wrapped) package is used.
"""

from __future__ import annotations

import random

from .markets import Shape, generate
from .reference import Reference

MIXED_WORKERS = ("order", "utility", "quota", "explicit")
MIXED_FIRMS = ("quota", "utility", "order", "explicit")
# mostly one-to-one agents, so that opposed groups keep several stable sets
DESK_WORKERS = ("order", "utility", "explicit", "order")
DESK_FIRMS = ("utility", "order", "quota", "explicit", "order")


def _masks(sets) -> list[int]:
    return sorted(s.mask for s in sets)


class SolveCold:
    """A new market per operation, from text to two verified optima."""

    name = "solve-cold"
    # 18, 22, 26 and 30 contracts: above the 16-contract table cap, so that
    # aggregate_sides certifies by sampling
    SHAPES = (
        Shape((3, 2, 2), 1, MIXED_WORKERS, MIXED_FIRMS),
        Shape((3, 2, 2, 2), 1, MIXED_WORKERS, MIXED_FIRMS),
        Shape((3, 3, 2), 4, MIXED_WORKERS, MIXED_FIRMS),
        Shape((3, 3, 2, 2), 4, MIXED_WORKERS, MIXED_FIRMS),
    )
    SMOKE_SHAPES = (Shape((2, 2, 2), 5, MIXED_WORKERS, MIXED_FIRMS),)
    SECONDS_PER_ROUND = 4.0

    def __init__(self, seed: int, seconds: float, smoke: bool):
        self.shapes = self.SMOKE_SHAPES if smoke else self.SHAPES
        rounds = 1 if smoke else max(1, round(seconds / self.SECONDS_PER_ROUND))
        self.ops = rounds * len(self.shapes)
        self.seed = seed

    def setup(self, pm):
        self.markets = [generate(self.shapes[i % len(self.shapes)],
                                 f"{self.name}:{self.seed}:{i}") for i in range(self.ops)]
        self.texts = [m.text() for m in self.markets]

    def prepare(self):
        pass

    def op(self, pm, i):
        sides = pm.aggregate_sides(pm.parse_instance(self.texts[i]))
        n = sides.universe_size
        empty, full = pm.ContractSet.empty(n), pm.ContractSet.full(n)
        swapped = sides.swap()
        worker_run = pm.run_to_fixpoint(sides, pm.semi_stable_pair(sides, empty, full))
        firm_run = pm.run_to_fixpoint(swapped, pm.semi_stable_pair(swapped, empty, full))
        checks = (pm.is_stable_set(sides, worker_run.result.S),
                  pm.is_stable_set(sides, firm_run.result.S))
        return sides, worker_run, firm_run, checks

    def check(self, i, result) -> list[str]:
        sides, worker_run, firm_run, checks = result
        ref = Reference(self.markets[i])
        n = ref.n
        problems = []
        if not sides.certified:
            problems.append("sides not certified")
        for run, proposing in ((worker_run, "workers"), (firm_run, "firms")):
            s = run.result.S.mask
            if s != ref.deferred_acceptance(proposing):
                problems.append(f"{proposing}-optimal set differs from deferred acceptance")
            if not ref.is_stable(s):
                problems.append(f"{proposing}-optimal set fails S1/S2")
            if run.terminated_at > n + 2:
                problems.append(f"phi took {run.terminated_at} steps, bound {n + 2}")
        if not all(checks):
            problems.append("is_stable_set rejected a returned set")
        return problems

    def describe(self) -> dict:
        return _describe(self.markets)


class ResolveWarm:
    """One certified market, re-solved from new semi-stable starts.

    The market is the same in every run; the seed draws the starts. A run
    holds a single market, so a market drawn from the seed would move every
    operation's cost with the seed.
    """

    name = "resolve-warm"
    SHAPE = Shape((3,) * 12, 12, MIXED_WORKERS, MIXED_FIRMS)      # 120 contracts
    SMOKE_SHAPE = Shape((3, 2), 4, MIXED_WORKERS, MIXED_FIRMS)   # 17 contracts
    OPS_PER_SECOND = 7

    def __init__(self, seed: int, seconds: float, smoke: bool):
        self.shape = self.SMOKE_SHAPE if smoke else self.SHAPE
        self.ops = 3 if smoke else max(10, round(seconds * self.OPS_PER_SECOND))
        self.seed = seed

    def setup(self, pm):
        self.market = generate(self.shape, f"{self.name}:market")
        self.sides = pm.aggregate_sides(pm.parse_instance(self.market.text()))

    def prepare(self):
        ref = self.ref = Reference(self.market)
        self.worker_best = ref.deferred_acceptance("workers")
        self.firm_best = ref.deferred_acceptance("firms")
        self.stable = {}
        offers = ref.workers.choose(ref.full)
        self.starts = []
        for i in range(self.ops):
            rng = random.Random(f"{self.name}:{self.seed}:{i}")
            self.starts.append(sum(1 << c for c in range(ref.n)
                                   if offers >> c & 1 and rng.random() < 0.5))

    def op(self, pm, i):
        sides = self.sides
        n = sides.universe_size
        worker_best = pm.side_optimal(sides, "F")
        firm_best = pm.side_optimal(sides, "G")
        start = pm.semi_stable_pair(sides, pm.ContractSet(n, self.starts[i]),
                                    pm.ContractSet.full(n))
        run = pm.run_to_fixpoint(sides, start)
        join = pm.lattice_join(sides, [worker_best, firm_best])
        meet = pm.lattice_meet(sides, [worker_best, firm_best])
        order = pm.blair_compare_stable(sides, run.result.S, firm_best)
        stable = pm.is_stable_set(sides, run.result.S)
        return sides, worker_best, firm_best, run, join, meet, order, stable

    def _ref_stable(self, s: int) -> bool:
        if s not in self.stable:
            self.stable[s] = self.ref.is_stable(s)
        return self.stable[s]

    def check(self, i, result) -> list[str]:
        _, worker_best, firm_best, run, join, meet, order, stable = result
        ref = self.ref
        s = run.result.S.mask
        problems = []
        if worker_best.mask != self.worker_best:
            problems.append("worker-optimal set differs from deferred acceptance")
        if firm_best.mask != self.firm_best:
            problems.append("firm-optimal set differs from deferred acceptance")
        if join.mask != self.firm_best or meet.mask != self.worker_best:
            problems.append("join/meet of the optima are not the firm/worker optima")
        for x in (worker_best.mask, firm_best.mask, s):
            if not self._ref_stable(x):
                problems.append("returned set fails S1/S2")
        if run.terminated_at > ref.n + 2:
            problems.append(f"phi took {run.terminated_at} steps, bound {ref.n + 2}")
        if not (ref.firm_leq(self.worker_best, s) and ref.firm_leq(s, self.firm_best)):
            problems.append("sigma result outside [worker optimum, firm optimum]")
        if order != ("equal" if s == self.firm_best else "less"):
            problems.append(f"blair_compare_stable said {order!r}")
        if not stable:
            problems.append("is_stable_set rejected the sigma result")
        return problems

    def describe(self) -> dict:
        info = _describe([self.market])
        info["optima_differ_in"] = bin(self.worker_best ^ self.firm_best).count("1")
        return info


class DeskExact:
    """A new small market per operation, audited exhaustively."""

    name = "desk-exact"
    # 10, 11, 13, 14, 15 and 16 contracts, blocks of at most 5
    SHAPES = tuple(Shape(groups, cross, DESK_WORKERS, DESK_FIRMS, opposed=1.0, mix=0.3)
                   for groups, cross in (((2, 2), 2), ((3,), 2), ((2, 2, 2), 1),
                                         ((3, 2), 1), ((3, 2), 2), ((2, 2, 2), 4)))
    SMOKE_SHAPES = SHAPES[:2]
    ROUNDS_PER_SECOND = 5

    def __init__(self, seed: int, seconds: float, smoke: bool):
        self.shapes = self.SMOKE_SHAPES if smoke else self.SHAPES
        rounds = 1 if smoke else max(1, round(seconds * self.ROUNDS_PER_SECOND))
        self.ops = rounds * len(self.shapes)
        self.seed = seed

    def setup(self, pm):
        self.markets = [generate(self.shapes[i % len(self.shapes)],
                                 f"{self.name}:{self.seed}:{i}") for i in range(self.ops)]
        self.texts = [(m.text(), m.weakened().text()) for m in self.markets]

    def prepare(self):
        self.catalogue_sizes = []

    def op(self, pm, i):
        text, weak_text = self.texts[i]
        market = pm.parse_instance(text)
        sides = pm.aggregate_sides(market)
        catalogue = pm.enumerate_stable_sets(sides)
        lattice = pm.verify_lattice(catalogue, sides)
        weak = pm.aggregate_sides(pm.parse_instance(weak_text), certify=False).F
        moved = pm.comparative_statics(sides, weak, catalogue.bottom())
        agents = []
        for spec in market.specs:
            relation = pm.DerivedLehmann(spec.cf)
            agents.append((spec.agent, pm.audit_lehmann_axioms(relation),
                           pm.reconstruct_choice(relation),
                           pm.decompose_into_orders(spec.cf)))
        return sides, catalogue, lattice, moved, agents

    def check(self, i, result) -> list[str]:
        sides, catalogue, lattice, moved, agents = result
        market = self.markets[i]
        ref = Reference(market)
        problems = []
        if not sides.certified:
            problems.append("sides not certified")
        expected = ref.stable_sets()
        self.catalogue_sizes.append(len(expected))
        if _masks(catalogue.stable_sets) != expected:
            problems.append("catalogue differs from the reference scan")
        if catalogue.bottom().mask != ref.deferred_acceptance("workers"):
            problems.append("catalogue bottom differs from worker-proposed deferred acceptance")
        if catalogue.top().mask != ref.deferred_acceptance("firms"):
            problems.append("catalogue top differs from firm-proposed deferred acceptance")
        if not lattice.passed:
            problems.append("verify_lattice failed: " + "; ".join(lattice.failures[:2]))
        if not Reference(market.weakened()).is_stable(moved.mask):
            problems.append("statics result not stable under the weakened side")
        owners = {a.name: (a, ref.workers) for a in market.worker_agents}
        owners.update({a.name: (a, ref.firms) for a in market.firm_agents})
        for name, audit, rebuilt, orders in agents:
            table = _local_table(*owners[name])
            if not audit.overall:
                problems.append(f"{name}: Lehmann audit failed")
            if tuple(rebuilt.table) != table:
                problems.append(f"{name}: hyperorder round trip changed the choice")
            union = tuple(_order_union(orders, x) for x in range(len(table)))
            if union != table:
                problems.append(f"{name}: decomposition does not reproduce the choice")
        return problems

    def describe(self) -> dict:
        info = _describe(self.markets)
        sizes = self.catalogue_sizes
        if sizes:
            info["stable_sets"] = {"min": min(sizes), "max": max(sizes),
                                   "mean": round(sum(sizes) / len(sizes), 2)}
        return info


def _local_table(agent, side) -> tuple[int, ...]:
    """The agent's reference choice on every subset of its block, by local mask."""
    choose = side.choosers[side.agent_of[agent.block[0]]]
    out = []
    for x in range(1 << len(agent.block)):
        xmask = sum(1 << g for j, g in enumerate(agent.block) if x >> j & 1)
        picked = choose(xmask)
        out.append(sum(1 << j for j, g in enumerate(agent.block) if picked >> g & 1))
    return tuple(out)


def _order_union(orders, x: int) -> int:
    """Union over the orders of each one's best acceptable element of x."""
    out = 0
    for o in orders:
        for c in o.order:
            if x >> c & 1 and o.acceptable_mask >> c & 1:
                out |= 1 << c
                break
    return out


def _describe(markets) -> dict:
    kinds = {}
    for m in markets:
        for a in m.firm_agents + m.worker_agents:
            kinds[a.kind] = kinds.get(a.kind, 0) + 1
    sizes = sorted({m.size for m in markets})
    return {"markets": len(markets), "contracts": sizes, "agent_kinds": kinds}


WORKLOADS = {w.name: w for w in (SolveCold, ResolveWarm, DeskExact)}
