"""Side optima and stability checks at 2,000 and 6,670 contracts, against ``bench.reference``.

The markets are ``bench/markets.py`` shapes of 3-agent groups with the
solve-cold kinds: orders, quotas, utilities and explicit tables, each
substitutable and size-monotone, so deferred acceptance from either side
gives that side's optimal stable set (Hatfield and Milgrom 2005). The
reference reads each agent's choice from the generator's own data and
never imports the package. F is the workers' side, G the firms'.
"""

from __future__ import annotations

import random

import pytest

from bench.markets import Shape, generate
from bench.reference import Reference
from bench.workloads import MIXED_FIRMS, MIXED_WORKERS
from plottmatch import (
    ContractSet,
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
)

SHAPES = (Shape((3,) * 222, 2, MIXED_WORKERS, MIXED_FIRMS),   # 2,000 contracts
          Shape((3,) * 741, 1, MIXED_WORKERS, MIXED_FIRMS))   # 6,670 contracts


@pytest.fixture(scope="module", params=SHAPES, ids=lambda shape: str(shape.contracts))
def market(request):
    """(reference, sides, F-optimum mask, G-optimum mask) of one seeded market."""
    generated = generate(request.param, f"scale:{request.param.contracts}")
    sides = aggregate_sides(parse_instance(generated.text()))
    assert sides.certified and sides.universe_size == request.param.contracts
    worst, best = side_optimal(sides, "F"), side_optimal(sides, "G")
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
    assert worst != best  # opposed groups keep the two optima apart


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
