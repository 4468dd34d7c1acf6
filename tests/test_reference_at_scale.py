"""Side optima and stability checks at 2,000 and 6,670 contracts, against ``bench.reference``.

The markets are ``bench/markets.py`` shapes of 3-agent groups with the
solve-cold kinds: orders, quotas, utilities and explicit tables, each
substitutable and size-monotone, so deferred acceptance from either side
gives that side's optimal stable set (Hatfield and Milgrom 2005). The
reference reads each agent's choice from the generator's own data and
never imports the package. F is the workers' side, G the firms'.

The baseline family, ``make_market_text`` with order workers and quota
q = 2 firms, gets the same checks at 2,001 and 6,669 contracts, and so
does a market of contracts with terms, ``make_terms_market_text`` with 100
workers and 10 terms (3,000 contracts), whose Φ runs are long. Their agents
are handed to the reference as generated ``Market`` agents, each parsed
order, acceptable set and quota on global indices, by ``_as_generated`` of
``scripts/scale_probe.py``, which times this family's path in a fresh
process per size and is smoke-run here at 300 contracts. Its random
preferences leave one stable set, so there the two optima coincide.

A third market, built in the library, gives each agent a union of seeded
orders. Unions are path independent but need not be size-monotone, so its
optima are checked against the definitions, not against deferred acceptance.
"""

from __future__ import annotations

import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import make_market_text, make_terms_market_text

from bench.markets import Shape, generate
from bench.reference import Reference
from bench.workloads import MIXED_FIRMS, MIXED_WORKERS
from plottmatch import (
    Aggregate,
    ContractSet,
    OrderChoice,
    UnionChoice,
    aggregate_sides,
    closure_star,
    is_stable_set,
    lattice_join,
    lattice_meet,
    parse_instance,
    run_to_fixpoint,
    semi_stable_pair,
    set_to_pair,
    side_optimal,
    side_pair,
)

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("scale_probe", ROOT / "scripts" / "scale_probe.py")
scale_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale_probe)
_as_generated = scale_probe._as_generated

SHAPES = (Shape((3,) * 222, 2, MIXED_WORKERS, MIXED_FIRMS),   # 2,000 contracts
          Shape((3,) * 741, 1, MIXED_WORKERS, MIXED_FIRMS))   # 6,670 contracts
BASELINE = ((667, 222), (2223, 741))  # workers, firms: 2,001 and 6,669 contracts
TERMS = (("terms", 100, 10),)  # workers, terms: 3,000 contracts


def _market_id(p) -> str:
    if isinstance(p, Shape):
        return str(p.contracts)
    return f"terms-{3 * p[1] * p[2]}" if p[0] == "terms" else f"baseline-{3 * p[0]}"


@pytest.fixture(scope="module", params=SHAPES + BASELINE + TERMS, ids=_market_id)
def market(request):
    """(reference, sides, F-optimum mask, G-optimum mask) of one seeded market."""
    if isinstance(request.param, Shape):
        generated = generate(request.param, f"scale:{request.param.contracts}")
        m = parse_instance(generated.text())
    else:
        text = (make_terms_market_text(*request.param[1:], seed=1) if request.param[0] == "terms"
                else make_market_text(*request.param, 3, seed=1))
        m = parse_instance(text)
        generated = _as_generated(m)
    sides = aggregate_sides(m)
    assert sides.certified and sides.universe_size == generated.size
    worst, best = side_optimal(sides, "F"), side_optimal(sides, "G")
    # opposed groups keep a shape's two optima apart
    assert worst != best or not isinstance(request.param, Shape)
    return Reference(generated), sides, worst.mask, best.mask


def _stability(ref: Reference, s: int) -> tuple:
    """(stable, condition, side, contract) of S by its definition: S1 for F, then G, then S2."""
    if ref.workers.choose(s) != s:
        return False, "S1", "F", None
    if ref.firms.choose(s) != s:
        return False, "S1", "G", None
    for c in range(ref.n):
        if not s >> c & 1 and ref.workers.keeps_with(s, c) and ref.firms.keeps_with(s, c):
            return False, "S2", None, c
    return True, None, None, None


def _closure(side, s: int, n: int) -> int:
    """S and every contract outside it that the side does not choose from S ∪ {c}."""
    return s | sum(1 << c for c in range(n) if not s >> c & 1 and not side.keeps_with(s, c))


def _verdict(check) -> tuple:
    return check.stable, check.condition, check.side, check.contract


def test_side_optima_are_deferred_acceptance(market):
    ref, _, worst, best = market
    assert worst == ref.deferred_acceptance("workers")
    assert best == ref.deferred_acceptance("firms")


def test_both_optima_pass_the_reference_check(market):
    ref, sides, worst, best = market
    for s in (worst, best):
        assert ref.is_stable(s) and _stability(ref, s) == (True, None, None, None)
        assert _verdict(is_stable_set(sides, ContractSet(ref.n, s))) == _stability(ref, s)


def test_join_and_meet_of_the_optima_return_them(market):
    ref, sides, worst, best = market
    n = ref.n
    sets = [ContractSet(n, worst), ContractSet(n, best)]
    assert lattice_join(sides, sets).mask == best and lattice_meet(sides, sets).mask == worst
    for s in (worst, best):
        pair = set_to_pair(sides, ContractSet(n, s))
        assert pair.Y.mask == _closure(ref.firms, s, n) == closure_star(sides.G, pair.S).mask
        assert pair.Z.mask == _closure(ref.workers, s, n)


def test_sets_one_contract_from_an_optimum_get_the_reference_verdict(market):
    ref, sides, worst, best = market
    rng = random.Random(ref.n)
    verdicts = []
    for i in range(20):
        s = (worst, best)[i % 2]
        members = [c for c in range(ref.n) if s >> c & 1]
        c = rng.choice(members) if i % 4 < 2 else rng.randrange(ref.n)  # a member, or any
        t = s ^ 1 << c
        expected = _stability(ref, t)
        assert _verdict(is_stable_set(sides, ContractSet(ref.n, t))) == expected
        verdicts.append(expected[1])
    assert {"S1", "S2"} <= set(verdicts)  # both conditions are exercised


def test_phi_from_the_bottom_pair_stays_within_its_bound(market):
    ref, sides, worst, best = market
    n = ref.n
    for frame, optimum in ((sides, worst), (sides.swap(), best)):
        empty, full = ContractSet.empty(n), ContractSet.full(n)
        trace = run_to_fixpoint(frame, semi_stable_pair(frame, empty, full))
        assert trace.terminated_at <= n + 2
        assert trace.result.S.mask == optimum


# 10 firms × 10 workers, 4 contracts per pair: contract (f·10 + w)·4 + k
AGENTS, PER_PAIR, ORDERS = 10, 4, 3
UNION_N = AGENTS * AGENTS * PER_PAIR


class _UnionSide:
    """The test's own chooser for one side: each agent unites its orders.

    An order is (its acceptable contracts best first, as global indices;
    its quota), and takes the first ``quota`` of them in S.
    """

    def __init__(self, agents):
        self.agents = agents

    def choose(self, s: int) -> int:
        chosen = 0
        for agent in self.agents:
            for accepted, quota in agent:
                chosen |= sum(1 << c for c in [c for c in accepted if s >> c & 1][:quota])
        return chosen

    def keeps_with(self, s: int, c: int) -> bool:
        return bool(self.choose(s | 1 << c) >> c & 1)


def _union_side(blocks, rng):
    """(aggregate, reference chooser) of agents that each unite ORDERS seeded orders."""
    parts, agents = [], []
    for block in blocks:
        k, orders, agent = len(block), [], []
        for _ in range(ORDERS):
            order = tuple(rng.sample(range(k), k))
            acceptable = sum(1 << j for j in range(k) if rng.random() < 0.8)
            quota = rng.randint(1, 3)
            orders.append(OrderChoice(k, order, quota, acceptable))
            agent.append(([block[j] for j in order if acceptable >> j & 1], quota))
        parts.append(UnionChoice(k, tuple(orders)))
        agents.append(agent)
    return Aggregate(UNION_N, blocks, tuple(parts)), _UnionSide(agents)


@pytest.fixture(scope="module")
def union_market():
    """(reference, sides, F-optimum, G-optimum) of the 400-contract union market.

    The reference has the ``n``, ``workers`` and ``firms`` that ``_stability``
    and ``_closure`` read, and no deferred acceptance.
    """
    rng = random.Random(2)
    contract = [[[(f * AGENTS + w) * PER_PAIR + k for k in range(PER_PAIR)]
                 for w in range(AGENTS)] for f in range(AGENTS)]
    firm_blocks = tuple(tuple(c for w in range(AGENTS) for c in contract[f][w])
                        for f in range(AGENTS))
    worker_blocks = tuple(tuple(c for f in range(AGENTS) for c in contract[f][w])
                          for w in range(AGENTS))
    F, workers = _union_side(worker_blocks, rng)
    G, firms = _union_side(firm_blocks, rng)
    sides = side_pair(F, G)
    assert sides.certified  # by structure: no 40-contract table is scanned
    ref = SimpleNamespace(n=UNION_N, workers=workers, firms=firms)
    return ref, sides, side_optimal(sides, "F"), side_optimal(sides, "G")


def test_union_market_optima_and_phi_pass_the_definitions(union_market):
    ref, sides, worst, best = union_market
    n = ref.n
    # two ends of different sizes: without size monotonicity the matched count may vary
    assert len(worst) != len(best)
    for frame, optimum in ((sides, worst), (sides.swap(), best)):
        assert _stability(ref, optimum.mask) == (True, None, None, None)
        assert _verdict(is_stable_set(sides, optimum)) == (True, None, None, None)
        pair = set_to_pair(sides, optimum)
        assert pair.Y.mask == _closure(ref.firms, optimum.mask, n)
        assert pair.Z.mask == _closure(ref.workers, optimum.mask, n)
        empty, full = ContractSet.empty(n), ContractSet.full(n)
        trace = run_to_fixpoint(frame, semi_stable_pair(frame, empty, full))
        assert trace.terminated_at <= n + 2
        assert trace.result.S == optimum
    assert lattice_join(sides, [worst, best]) == best
    assert lattice_meet(sides, [worst, best]) == worst


def test_union_market_sets_one_contract_away_get_the_definition_verdict(union_market):
    ref, sides, worst, best = union_market
    rng = random.Random(ref.n)
    verdicts = []
    for i in range(20):
        s = (worst, best)[i % 2].mask
        members = [c for c in range(ref.n) if s >> c & 1]
        t = s ^ 1 << (rng.choice(members) if i % 4 < 2 else rng.randrange(ref.n))
        expected = _stability(ref, t)
        assert _verdict(is_stable_set(sides, ContractSet(ref.n, t))) == expected
        verdicts.append(expected[1])
    assert {"S1", "S2"} <= set(verdicts)


def test_the_scale_probe_prints_one_checked_line_per_size():
    for args, sizes in ((["--sizes", "300", "90"], [300, 90]),
                        (["--sizes", "300", "--family", "terms", "--terms", "4"], [300])):
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / "scale_probe.py"), str(ROOT),
                               *args], capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        lines = [json.loads(line) for line in done.stdout.splitlines()]
        assert [line["contracts"] for line in lines] == sizes
        for line in lines:
            assert line["matches_reference"] is line["optima_stable"] is True
            assert line["openssl_loaded"] is False  # nothing on the path reads a fingerprint
            steps = ("parse_s", "aggregate_s", "optimum_F_s", "optimum_G_s", "stable_s")
            assert all(0 < line[step] <= line["total_s"] for step in steps)
            assert 0 <= line["aggregate_rss_mib"] < line["peak_rss_mib"]
            assert all(0 < line[f"phi_steps_{side}"] <= line["contracts"] + 2 for side in "FG")
            assert line["warm_s"] > 0 and line["warm_matches_optimum_F"] is True


def test_the_scale_probe_exits_1_after_printing_a_mismatch(monkeypatch, capsys):
    for wrong in ({"contracts": 27, "optima_stable": True, "matches_reference": False},
                  {"contracts": 27, "optima_stable": True, "matches_reference": True,
                   "warm_matches_optimum_F": False}):
        monkeypatch.setattr(scale_probe, "run_size", lambda tree, text: wrong)
        monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the market generator on it
        assert scale_probe.main([str(ROOT), "--sizes", "27"]) == 1
        assert json.loads(capsys.readouterr().out) == wrong
