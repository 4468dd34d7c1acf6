from __future__ import annotations

import copy
import gc
import pickle
import random
import sys
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import cache, partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plottmatch import (
    Aggregate,
    CapExceeded,
    ChoiceFunction,
    ContractSet,
    EmptyList,
    ExplicitTable,
    InternalError,
    NotCertified,
    NotDominated,
    NotSemiStable,
    NotStable,
    OrderChoice,
    PlottReport,
    PlottmatchError,
    SemiStablePair,
    SidePair,
    StabilityCheck,
    StablePair,
    UniverseMismatch,
    aggregate_sides,
    blair_compare_stable,
    blair_leq,
    closure_star,
    comparative_statics,
    format_trace,
    is_plott,
    is_stable_set,
    is_stable_set_via_closure,
    lattice_join,
    lattice_meet,
    nil_set,
    parse_instance,
    phi_step,
    run_to_fixpoint,
    semi_stable_pair,
    set_to_pair,
    side_optimal,
    side_pair,
    union,
)
from plottmatch import choice, stability
from plottmatch.choice import _dominates, choice_table
from plottmatch.oracle import enumerate_stable_sets, generate_instance, semi_stable_masks

from conftest import make_market_text
from test_choice import mixed_aggregates, selection_tables, structural_functions

POLAR2 = side_pair(OrderChoice(2, (0, 1)), OrderChoice(2, (1, 0)))
ORD3 = side_pair(OrderChoice(3, (0, 1, 2)), OrderChoice(3, (2, 1, 0)))
QUOTA = side_pair(OrderChoice(3, (0, 1, 2)), OrderChoice(3, (0, 1, 2), 2))
EX1 = side_pair(OrderChoice.by_utility((0, 10, 20, -10, 30, 5)),
                OrderChoice.by_utility((20, 10, 0, 30, -10, 5)))
EX2 = side_pair(ExplicitTable(2, (0, 1, 0, 3)), ExplicitTable(2, (0, 1, 2, 2)))
# two independent polarized blocks: four stable sets forming a diamond
DIAMOND = side_pair(
    Aggregate(4, ((0, 1), (2, 3)),
              (OrderChoice(2, (0, 1)), OrderChoice(2, (0, 1)))),
    Aggregate(4, ((0, 1), (2, 3)),
              (OrderChoice(2, (1, 0)), OrderChoice(2, (1, 0)))))
SMALL = (POLAR2, ORD3, QUOTA, EX1, DIAMOND)


def cs(n, *indices):
    return ContractSet.from_indices(n, indices)


def _stable_sets(sides):
    return enumerate_stable_sets(sides).stable_sets


@st.composite
def plott_sides(draw):
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    return generate_instance(seed, n, k)


# ---------------------------------------------------------------------------
# sides
# ---------------------------------------------------------------------------


def test_side_pair_certification():
    assert POLAR2.certified
    assert POLAR2.f_report.is_plott and POLAR2.g_report.is_plott
    assert not EX2.certified and not EX2.f_report.is_plott
    blind = side_pair(POLAR2.F, POLAR2.G, certify=False)
    assert not blind.certified and blind.f_report is None
    with pytest.raises(UniverseMismatch):
        side_pair(POLAR2.F, ORD3.G)
    # the failing side is named in the market's own roles, also before a swap
    for call in (EX2.require_certified, lambda: side_optimal(EX2, "G"),
                 lambda: lattice_meet(EX2, [cs(2, 0)])):
        with pytest.raises(NotCertified, match=r"^side F is not path-independent$"):
            call()
    with pytest.raises(NotCertified, match=r"^operation requires both sides certified"):
        blind.require_certified()


def test_swap_exchanges_roles():
    swapped = POLAR2.swap()
    assert swapped.F is POLAR2.G and swapped.G is POLAR2.F
    assert swapped.f_report is POLAR2.g_report
    assert swapped.swap() == POLAR2


def test_certification_is_read_from_the_reports():
    F, G = POLAR2.F, POLAR2.G
    assert SidePair(F, G).certified is False
    assert SidePair(F, G, POLAR2.f_report).certified is False
    assert SidePair(F, G, POLAR2.f_report, POLAR2.g_report).certified is True
    with pytest.raises(NotCertified, match=r"^operation requires both sides certified"):
        SidePair(F, G).require_certified()


def test_a_pair_over_two_universes_is_refused_before_certification():
    F3, G2 = OrderChoice(3, (0, 1, 2)), OrderChoice(2, (0, 1))
    with pytest.raises(UniverseMismatch, match="^both sides must share one universe$"):
        SidePair(F3, G2, is_plott(F3), is_plott(G2))
    with mock.patch.object(stability, "is_plott", side_effect=AssertionError("certified")):
        for certify in (True, False):
            with pytest.raises(UniverseMismatch, match="^both sides must share one universe$"):
                side_pair(F3, G2, certify=certify)


def test_one_failing_report_leaves_the_pair_uncertified():
    failing, passing = is_plott(EX2.F), PlottReport(True)
    assert not failing.is_plott
    for sides, name in ((SidePair(EX2.F, POLAR2.G, failing, passing), "F"),
                        (SidePair(POLAR2.F, EX2.F, passing, failing), "G")):
        assert not sides.certified
        with pytest.raises(NotCertified, match=rf"^side {name} is not path-independent$"):
            sides.require_certified()


def test_swap_keeps_certification():
    checked = SidePair(POLAR2.F, POLAR2.G, f_report=POLAR2.f_report, g_report=POLAR2.g_report)
    for sides in (POLAR2, EX2, checked, side_pair(POLAR2.F, POLAR2.G, certify=False)):
        assert sides.swap().certified == sides.certified
        assert sides.swap().swap() == sides


def _derived_facts(sides):
    """universe_size and certified as read-time properties defined them from the fields."""
    f, g = sides.f_report, sides.g_report
    return sides.F.universe_size, f is not None and g is not None and f.is_plott and g.is_plott


def test_fixed_facts_are_set_once_and_stay_out_of_the_fields():
    failing, passing = is_plott(EX2.F), PlottReport(True)
    assert not hasattr(SidePair, "universe_size") and not hasattr(SidePair, "certified")
    for sides in (POLAR2, EX2, SidePair(POLAR2.F, POLAR2.G),
                  SidePair(EX2.F, POLAR2.G, failing, passing),
                  SidePair(POLAR2.F, EX2.F, passing, failing)):
        copies = (sides.swap(), sides.swap().swap(), pickle.loads(pickle.dumps(sides)),
                  copy.copy(sides), copy.deepcopy(sides))
        for kept in (sides, *copies):
            assert (kept.universe_size, kept.certified) == _derived_facts(kept)
            assert type(kept.certified) is bool
        with pytest.raises(AttributeError):
            sides.certified = not sides.certified
        forged = SidePair(sides.F, sides.G, sides.f_report, sides.g_report)
        object.__setattr__(forged, "universe_size", -1)
        object.__setattr__(forged, "certified", not sides.certified)
        assert (forged, hash(forged), repr(forged)) == (sides, hash(sides), repr(sides))
    assert [f.name for f in fields(SidePair)] == ["F", "G", "f_report", "g_report"]


# ---------------------------------------------------------------------------
# stability of sets
# ---------------------------------------------------------------------------


def test_stability_verdicts_on_ex2():
    check = is_stable_set(EX2, cs(2, 0))
    assert not check and check.condition == "S2" and check.contract == 1
    check = is_stable_set(EX2, cs(2, 0, 1))
    assert check.condition == "S1" and check.side == "G"
    check = is_stable_set(EX2, cs(2, 1))
    assert check.condition == "S1" and check.side == "F"
    check = is_stable_set(EX2, cs(2))
    assert check.condition == "S2" and check.contract == 0


def test_stability_verdicts_on_polar2():
    assert is_stable_set(POLAR2, cs(2, 0)).stable
    assert is_stable_set(POLAR2, cs(2, 1)).stable
    assert not is_stable_set(POLAR2, cs(2))
    with pytest.raises(UniverseMismatch):
        is_stable_set(POLAR2, cs(3, 0))


def test_closure_test_agrees_where_it_applies():
    for sides in SMALL:
        n = sides.universe_size
        for m in range(1 << n):
            s = ContractSet(n, m)
            if sides.F.choose(s) == s and sides.G.choose(s) == s:
                assert is_stable_set_via_closure(sides, s) == bool(
                    is_stable_set(sides, s))


def test_closure_test_preconditions():
    with pytest.raises(NotStable, match=r"requires choose\(F,S\) = choose\(G,S\) = S"):
        is_stable_set_via_closure(POLAR2, cs(2, 0, 1))
    with pytest.raises(NotCertified):
        is_stable_set_via_closure(EX2, cs(2, 0))


# ---------------------------------------------------------------------------
# pairs and the update
# ---------------------------------------------------------------------------


def test_semi_stable_validation():
    p = semi_stable_pair(POLAR2, cs(2), cs(2, 0, 1))
    assert p == SemiStablePair(cs(2), cs(2, 0, 1))
    with pytest.raises(NotSemiStable):
        semi_stable_pair(POLAR2, cs(2, 0), cs(2, 0))  # SSP1
    with pytest.raises(NotSemiStable):
        semi_stable_pair(POLAR2, cs(2, 0, 1), cs(2))  # SSP2
    with pytest.raises(UniverseMismatch):
        semi_stable_pair(POLAR2, cs(3, 0), cs(3, 0, 1, 2))


def test_phi_step_on_polar2():
    p = semi_stable_pair(POLAR2, cs(2), cs(2, 0, 1))
    nxt = phi_step(POLAR2, p)
    assert nxt == SemiStablePair(cs(2, 0), cs(2, 0, 1))
    assert phi_step(POLAR2, nxt) == nxt
    with pytest.raises(NotCertified):
        phi_step(EX2, p)


def test_run_to_fixpoint_on_polar2():
    start = semi_stable_pair(POLAR2, cs(2), cs(2, 0, 1))
    trace = run_to_fixpoint(POLAR2, start)
    assert len(trace.steps) == 2 and trace.terminated_at == 1
    assert trace.result == StablePair(cs(2, 0), cs(2, 0, 1), cs(2, 0))
    assert is_stable_set(POLAR2, trace.result.S).stable
    foreign = SemiStablePair(cs(3), cs(3))
    with pytest.raises(NotCertified):  # before UniverseMismatch
        run_to_fixpoint(EX2, foreign)
    with pytest.raises(UniverseMismatch):  # before SSP1, which the foreign pair fails too
        run_to_fixpoint(POLAR2, foreign)
    with pytest.raises(NotSemiStable, match="^SSP1 fails"):
        run_to_fixpoint(POLAR2, SemiStablePair(cs(2), cs(2)))


def test_run_to_fixpoint_on_ex1():
    n = 6
    start = semi_stable_pair(EX1, ContractSet.empty(n), ContractSet.full(n))
    trace = run_to_fixpoint(EX1, start)
    assert trace.result.S == cs(6, 2)
    assert [p.Y.mask for p in trace.steps] == [0, 0b010000, 0b010100]
    assert [p.Z.mask for p in trace.steps] == [0b111111, 0b101111, 0b101111]


def test_format_trace_lines():
    start = semi_stable_pair(POLAR2, cs(2), cs(2, 0, 1))
    trace = run_to_fixpoint(POLAR2, start)
    assert format_trace(POLAR2, trace, ("a", "b")) == (
        "step 0: Y={} Z={a,b} F(Z)={a} G(F(Z))={a}\n"
        "step 1: Y={a} Z={a,b} F(Z)={a} G(F(Z))={a}\n")


def test_every_semi_stable_start_reaches_a_stable_set():
    for sides in SMALL:
        n = sides.universe_size
        for ymask, zmask in semi_stable_masks(sides):
            start = SemiStablePair(ContractSet(n, ymask), ContractSet(n, zmask))
            trace = run_to_fixpoint(sides, start)
            assert len(trace.steps) <= n + 2
            assert is_stable_set(sides, trace.result.S).stable


def test_stable_pairs_are_fixpoints():
    for sides in SMALL:
        for s in _stable_sets(sides):
            pair = set_to_pair(sides, s)
            trace = run_to_fixpoint(sides, SemiStablePair(pair.Y, pair.Z))
            assert trace.terminated_at == 0
            assert trace.result.S == s


def test_pair_set_round_trip_and_validation():
    for sides in SMALL:
        for s in _stable_sets(sides):
            pair = set_to_pair(sides, s)
            assert pair.Y | pair.Z == ContractSet.full(sides.universe_size)
            assert sides.G.choose(pair.Y) == sides.F.choose(pair.Z) == pair.S == s
    with pytest.raises(NotStable):
        set_to_pair(POLAR2, cs(2, 0, 1))
    with pytest.raises(NotCertified):
        set_to_pair(EX2, cs(2, 0))


@given(plott_sides())
@settings(max_examples=60)
def test_initial_run_lands_on_the_catalog_bottom(sides):
    n = sides.universe_size
    start = semi_stable_pair(sides, ContractSet.empty(n), ContractSet.full(n))
    got = run_to_fixpoint(sides, start).result.S
    assert got == enumerate_stable_sets(sides).bottom()


# ---------------------------------------------------------------------------
# side-optimal solutions and the lattice
# ---------------------------------------------------------------------------


def test_side_optimal_on_fixtures():
    assert side_optimal(POLAR2, "F") == cs(2, 0)
    assert side_optimal(POLAR2, "G") == cs(2, 1)
    assert side_optimal(ORD3, "F") == cs(3, 0)
    assert side_optimal(ORD3, "G") == cs(3, 2)
    assert side_optimal(EX1, "F") == cs(6, 2)
    assert side_optimal(EX1, "G") == cs(6, 0)
    assert side_optimal(QUOTA, "F") == side_optimal(QUOTA, "G") == cs(3, 0)
    with pytest.raises(ValueError):
        side_optimal(POLAR2, "H")
    with pytest.raises(ValueError, match="^favored must be 'F' or 'G'$"):  # before NotCertified
        side_optimal(EX2, "X")


def test_side_optimal_evaluates_each_side_once_for_its_start(market_text, monkeypatch):
    sides = aggregate_sides(parse_instance(market_text(300, 100, 3, seed=1)))
    assert sides.universe_size == 900
    evaluated = []
    original = Aggregate._choose_mask

    def counted(self, xmask):
        evaluated.append(self)
        return original(self, xmask)

    monkeypatch.setattr(Aggregate, "_choose_mask", counted)
    for favored, proposer in (("F", sides.F), ("G", sides.G)):
        evaluated.clear()
        S = side_optimal(sides, favored)
        # validating (∅, C) takes the proposer's choose(F,C) alone: ∅ ⊆ F(C) makes SSP2 hold
        assert Counter(map(id, evaluated)) == {id(proposer): 1}
        assert is_stable_set(sides, S)
    fc = sides.F._choose_mask((1 << sides.universe_size) - 1)
    start = SemiStablePair(ContractSet(sides.universe_size, fc & -fc), ContractSet.full(900))
    assert 0 < start.Y.mask != fc  # ∅ ≠ Y₀ ⊊ F(C): G(Y₀) is not asked either
    evaluated.clear()
    trace = run_to_fixpoint(_fresh(sides), start)
    assert id(sides.G) not in map(id, evaluated)
    steps, stable = _reference_run(sides, start)
    assert (trace.stable_mask, trace.terminated_at) == (stable, len(steps) - 1)


def test_join_and_statics_report_a_start_that_is_not_semi_stable():
    # forged certificates on functions that are not path independent, where
    # the start the theory makes semi-stable is not
    forged = SidePair(ExplicitTable(3, (0, 1, 0, 1, 0, 5, 2, 2)),
                      ExplicitTable(3, (0, 0, 0, 1, 4, 5, 4, 5)),
                      PlottReport(True), PlottReport(True))
    with pytest.raises(InternalError, match="^union/intersection of stable pairs not "
                                            "semi-stable$") as exc_info:
        lattice_join(forged, [cs(3), cs(3, 0, 2)])
    assert isinstance(exc_info.value.__cause__, NotSemiStable)
    forged = SidePair(ExplicitTable(2, (0, 0, 2, 2)), ExplicitTable(2, (0, 0, 0, 3)),
                      PlottReport(True), PlottReport(True))
    with pytest.raises(InternalError, match="^statics start pair not semi-stable$") as exc_info:
        comparative_statics(forged, OrderChoice(2, (1, 0)), cs(2))
    assert isinstance(exc_info.value.__cause__, NotSemiStable)


def test_lattice_operations_on_polar2():
    a, b = cs(2, 0), cs(2, 1)
    assert lattice_join(POLAR2, [a, b]) == b
    assert lattice_meet(POLAR2, [a, b]) == a
    assert lattice_join(POLAR2, [a]) == a
    assert lattice_join(POLAR2, [b, b]) == b
    with pytest.raises(EmptyList):
        lattice_join(POLAR2, [])
    with pytest.raises(NotStable):
        lattice_join(POLAR2, [cs(2, 0, 1)])
    with pytest.raises(NotCertified):
        lattice_join(EX2, [cs(2, 0)])


def test_lattice_operations_on_the_diamond():
    lo = cs(4, 0, 2)
    hi = cs(4, 1, 3)
    left = cs(4, 0, 3)
    right = cs(4, 1, 2)
    assert lattice_join(DIAMOND, [left, right]) == hi
    assert lattice_meet(DIAMOND, [left, right]) == lo
    assert lattice_join(DIAMOND, [lo, left, right]) == hi
    assert lattice_meet(DIAMOND, [left, hi]) == left


def test_join_is_an_upper_bound_on_fixtures():
    for sides in SMALL:
        sets = _stable_sets(sides)
        for s in sets:
            for t in sets:
                j = lattice_join(sides, [s, t])
                assert blair_leq(sides.G, s, j) and blair_leq(sides.G, t, j)
                m = lattice_meet(sides, [s, t])
                assert blair_leq(sides.G, m, s) and blair_leq(sides.G, m, t)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def test_blair_compare_stable_verdicts():
    assert blair_compare_stable(POLAR2, cs(2, 0), cs(2, 1)) == "less"
    assert blair_compare_stable(POLAR2, cs(2, 1), cs(2, 0)) == "greater"
    assert blair_compare_stable(POLAR2, cs(2, 0), cs(2, 0)) == "equal"
    assert blair_compare_stable(DIAMOND, cs(4, 0, 3), cs(4, 1, 2)) == "incomparable"
    with pytest.raises(NotStable):
        blair_compare_stable(POLAR2, cs(2, 0, 1), cs(2, 0))
    with pytest.raises(NotCertified):
        blair_compare_stable(EX2, cs(2, 0), cs(2, 0))


def test_polarization_flips_the_verdict():
    flipped = {"less": "greater", "greater": "less",
               "equal": "equal", "incomparable": "incomparable"}
    for sides in SMALL:
        sets = _stable_sets(sides)
        for s in sets:
            for t in sets:
                verdict = blair_compare_stable(sides, s, t)
                assert blair_compare_stable(sides.swap(), s, t) == flipped[verdict]


def test_better_for_firms_is_worse_for_workers():
    # on stable sets, S ⪯ T under G forces T ⪯ S under F
    for sides in SMALL:
        sets = _stable_sets(sides)
        for s in sets:
            for t in sets:
                if blair_leq(sides.G, s, t):
                    assert blair_leq(sides.F, t, s)


def test_rejected_improvements_stay_below():
    # stable S, any T above it on the firm side: firms reject T down below S
    for sides in SMALL:
        n = sides.universe_size
        for s in _stable_sets(sides):
            for m in range(1 << n):
                t = ContractSet(n, m)
                if blair_leq(sides.G, s, t):
                    assert blair_leq(sides.F, sides.G.choose(t), s)


def test_semi_stable_family_is_closed_under_the_lattice_move():
    for sides in (POLAR2, ORD3, QUOTA, DIAMOND):
        n = sides.universe_size
        pairs = semi_stable_masks(sides)
        for y1, z1 in pairs:
            for y2, z2 in pairs:
                semi_stable_pair(sides, ContractSet(n, y1 | y2),
                                 ContractSet(n, z1 & z2))


# ---------------------------------------------------------------------------
# comparative statics
# ---------------------------------------------------------------------------


def test_statics_with_no_actual_weakening():
    assert comparative_statics(POLAR2, POLAR2.F, cs(2, 0)) == cs(2, 0)


def test_statics_on_the_polarized_pair():
    # worker side weakened to keep everything: the firm-best set takes over
    weakened = ExplicitTable(2, (0, 1, 2, 3))
    s_prime = comparative_statics(POLAR2, weakened, cs(2, 0))
    assert s_prime == cs(2, 1)
    new_sides = side_pair(weakened, POLAR2.G)
    assert is_stable_set(new_sides, s_prime).stable
    # the old stable set does not survive the weakening
    assert not is_stable_set(new_sides, cs(2, 0))


def test_statics_rejects_non_dominating_input():
    shrunk = OrderChoice(2, (0, 1), 1, 0b01)
    message = r"^choose\(F,X\) not within choose\(F',X\) at X=\{1\}$"
    with pytest.raises(NotDominated, match=message) as caught:
        comparative_statics(POLAR2, shrunk, cs(2, 0))
    assert caught.value.witness == cs(2, 1)
    # the worker ranking the other way keeps b from {a,b}, where F keeps a
    with pytest.raises(NotDominated, match=r"at X=\{0,1\}$") as caught:
        comparative_statics(POLAR2, OrderChoice(2, (1, 0)), cs(2, 0))
    assert caught.value.witness == cs(2, 0, 1)


def test_statics_rejects_non_plott_weakening():
    f = OrderChoice(3, (0, 1, 2), 1, 0b001)
    sides = side_pair(f, OrderChoice(3, (2, 1, 0)))
    # keeps x whenever offered, keeps lone singletons, drops {y,z}: not outcast
    f_prime = ExplicitTable(3, (0, 1, 2, 1, 4, 1, 0, 1))
    with pytest.raises(NotCertified):
        comparative_statics(sides, f_prime, cs(3, 0))


def test_statics_rejects_an_unstable_start():
    with pytest.raises(NotStable):
        comparative_statics(POLAR2, ExplicitTable(2, (0, 1, 2, 3)), cs(2, 0, 1))


def test_statics_on_generated_markets():
    for seed in range(25):
        sides = generate_instance(seed, 5, (1, 2))
        rng = random.Random(seed + 1)
        order = list(range(5))
        rng.shuffle(order)
        extra = OrderChoice(5, tuple(order), 1, rng.getrandbits(5))
        f_prime = union(sides.F.parts + (extra,))
        new_sides = side_pair(f_prime, sides.G)
        for s in _stable_sets(sides):
            s_prime = comparative_statics(sides, f_prime, s)
            assert is_stable_set(new_sides, s_prime).stable


def _raised_quotas(m):
    """The market's worker side with every worker quota raised by one."""
    specs = tuple(replace(s, cf=replace(s.cf, quota=s.cf.quota + 1))
                  if s.kind == "quota" and s.agent in m.workers else s for s in m.specs)
    return aggregate_sides(replace(m, specs=specs), certify=False).F


def test_statics_above_the_table_cap(market_text):
    m = parse_instance(market_text(8, 6, 3, seed=11, worker_kinds=("quota", "order", "explicit"),
                                   firm_kinds=("order", "quota", "utility", "explicit")))
    assert m.universe_size == 24
    sides = aggregate_sides(m)
    assert sides.certified
    f_prime = _raised_quotas(m)
    s_prime = comparative_statics(sides, f_prime, side_optimal(sides, "F"))
    assert is_stable_set(side_pair(f_prime, sides.G), s_prime).stable
    # the original side does not dominate its weakening back
    with pytest.raises(NotDominated):
        comparative_statics(side_pair(f_prime, sides.G), sides.F,
                            side_optimal(side_pair(f_prime, sides.G), "F"))


def test_dominance_above_the_cap_needs_shared_blocks():
    big = OrderChoice(17, tuple(range(17)))
    with pytest.raises(CapExceeded, match=r"^dominance check needs universe_size <= 16, got 17$"):
        _dominates(big, OrderChoice(17, tuple(range(17)), 2))
    # equal parts of one block are never tabulated, whatever their size
    agg = Aggregate(17, (tuple(range(17)),), (big,))
    assert _dominates(agg, Aggregate(17, agg.blocks, (big,))) is None


@st.composite
def aggregate_pairs(draw):
    """Two aggregates of at most 12 contracts over the same ascending, interleaved blocks."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n = sum(sizes)
    places = draw(st.permutations(range(n)))
    blocks, parts, parts2, start = [], [], [], 0
    for k in sizes:
        blocks.append(tuple(sorted(places[start:start + k])))
        start += k
        for out in (parts, parts2):
            table = [0] + [draw(st.integers(0, (1 << k) - 1)) & m for m in range(1, 1 << k)]
            out.append(ExplicitTable(k, tuple(table)))
    return (Aggregate(n, tuple(blocks), tuple(parts)),
            Aggregate(n, tuple(blocks), tuple(parts2)))


@settings(max_examples=80, deadline=None)
@given(aggregate_pairs())
def test_blockwise_dominance_matches_the_whole_tables(pair):
    F, F2 = pair
    bad = (choice_table(F) & ~choice_table(F2)).nonzero()[0]
    assert _dominates(F, F2) == (int(bad[0]) if bad.size else None)
    assert _dominates(F, F) is None


# ---------------------------------------------------------------------------
# scoped evaluation: one agent per question
# ---------------------------------------------------------------------------


def _whole_closure(cf, xmask: int) -> int:
    """X plus every contract whose addition leaves the whole choice unchanged."""
    chosen = cf._choose_mask(xmask)
    return xmask | sum(1 << c for c in range(cf.universe_size)
                       if not xmask >> c & 1 and cf._choose_mask(xmask | 1 << c) == chosen)


def _whole_stability(sides, S) -> StabilityCheck:
    """S1 then S2, each side evaluated on the whole set S ∪ {c}."""
    if sides.F.choose(S) != S:
        return StabilityCheck(False, "S1", side="F")
    if sides.G.choose(S) != S:
        return StabilityCheck(False, "S1", side="G")
    for c in S.complement():
        added = S.add(c)
        if c in sides.F.choose(added) and c in sides.G.choose(added):
            return StabilityCheck(False, "S2", contract=c)
    return StabilityCheck(True)


def _small_markets(market_text):
    kinds = ("order", "quota", "utility", "explicit")
    for seed in range(12):
        m = parse_instance(market_text(4, 3, 2, seed=seed, worker_kinds=kinds[seed % 4:],
                                       firm_kinds=kinds[::-1][seed % 3:]))
        yield aggregate_sides(m)
    for seed in range(12):
        yield generate_instance(seed, 7, (1 + seed % 2, 1 + seed % 3))


def test_scoped_closure_and_stability_equal_whole_evaluation(market_text):
    seen = set()
    for sides in _small_markets(market_text):
        n = sides.universe_size
        for cf in (sides.F, sides.G):
            assert nil_set(cf).mask == _whole_closure(cf, 0)
        for m in range(1 << n):
            S = ContractSet(n, m)
            for cf in (sides.F, sides.G):
                assert closure_star(cf, S).mask == _whole_closure(cf, m)
            check = is_stable_set(sides, S)
            assert check == _whole_stability(sides, S)
            seen.add(check.condition)
    assert seen == {"S1", "S2", None}


def test_wide_sets_keep_the_whole_evaluation_witness(market_text):
    # 120 contracts, so every mask is wider than one 64-bit word
    m = parse_instance(market_text(40, 12, 3, seed=7,
                                   worker_kinds=("order", "utility", "quota", "explicit"),
                                   firm_kinds=("quota", "utility", "order")))
    sides = aggregate_sides(m)
    assert sides.universe_size == 120
    seen = set()
    for S in (side_optimal(sides, "F"), side_optimal(sides, "G")):
        near = [S] + [S.remove(c) for c in S] + [S.add(c) for c in S.complement()]
        for T in near:
            check = is_stable_set(sides, T)
            assert check == _whole_stability(sides, T)
            seen.add(check.condition)
            for cf in (sides.F, sides.G):
                assert closure_star(cf, T).mask == _whole_closure(cf, T.mask)
    assert seen == {"S1", "S2", None}



def test_a_swapped_pair_reads_the_rows_of_its_sides(market_text):
    sides = aggregate_sides(parse_instance(market_text(40, 12, 3, seed=7)))
    swapped = sides.swap()
    for S in (side_optimal(sides, "F"), side_optimal(swapped, "F")):
        assert is_stable_set(sides, S) and set_to_pair(sides, S)
        before = sides.F.cache_info(), sides.G.cache_info()
        assert is_stable_set(swapped, S)
        pairs = choice._cache_info(swapped._pairs)
        pair = set_to_pair(swapped, S)
        assert (pair.Y, pair.Z) == (closure_star(sides.F, S), closure_star(sides.G, S))
        after = swapped.G.cache_info(), swapped.F.cache_info()
        assert [a.misses for a in after] == [b.misses for b in before]
        assert choice._cache_info(swapped._pairs) == pairs._replace(hits=pairs.hits + 1)

def _iterate_phi_step(sides, p):
    steps = [p]
    while True:
        nxt = phi_step(sides, p)
        if nxt == p:
            return steps, StablePair(p.Y, p.Z, sides.G.choose(p.Y))
        steps.append(nxt)
        p = nxt


def test_run_to_fixpoint_equals_iterated_phi_step(market_text):
    rng = random.Random(7)
    for sides in _small_markets(market_text):
        for frame in (sides, sides.swap()):
            n = frame.universe_size
            offers = frame.F.choose(ContractSet.full(n)).mask
            for y in (0, offers, offers & rng.getrandbits(n)):
                start = semi_stable_pair(frame, ContractSet(n, y), ContractSet.full(n))
                trace = run_to_fixpoint(frame, start)
                steps, result = _iterate_phi_step(frame, start)
                assert trace.steps == tuple(steps)
                assert trace.terminated_at == len(steps) - 1
                assert trace.result == result


def test_large_market_evaluations_stay_within_one_agent(market_text, monkeypatch):
    m = parse_instance(market_text(300, 300, 3, seed=5))
    assert m.universe_size == 900
    sides = aggregate_sides(m)
    block_of = {}
    for agg in (sides.F, sides.G):
        for i, block in enumerate(agg.blocks):
            for g in block:
                block_of[id(agg), g] = i
    calls = []
    original = Aggregate._choose_mask

    def counted(self, xmask):
        calls.append(len({block_of[id(self), g] for g in ContractSet(900, xmask)}) > 1)
        return original(self, xmask)

    monkeypatch.setattr(Aggregate, "_choose_mask", counted)
    for frame in (sides, sides.swap()):
        start = semi_stable_pair(frame, ContractSet.empty(900), ContractSet.full(900))
        calls.clear()
        trace = run_to_fixpoint(frame, start)
        assert len(calls) <= 3 * (trace.terminated_at + 1) + 2
        S = trace.result.S
        calls.clear()
        assert is_stable_set(frame, S).stable
        assert sum(calls) <= 2
        calls.clear()
        closure_star(frame.G, S)
        assert sum(calls) <= 1


@dataclass(frozen=True)
class _Recorded(ChoiceFunction):
    """An agent's function that records its block each time it chooses."""

    universe_size: int
    part: ChoiceFunction
    block: tuple[int, ...]
    calls: list = field(compare=False)

    def _choose_mask(self, xmask: int) -> int:
        self.calls.append(self.block)
        return self.part._choose_mask(xmask)

    def _gains(self, xmask: int) -> int:
        return self.part._gains(xmask)


def test_phi_steps_ask_only_the_agents_whose_slices_changed(market_text):
    calls = []  # the block of every call of an agent's own function

    def recorded(agg):
        return Aggregate(agg.universe_size, agg.blocks,
                         tuple(_Recorded(len(b), p, b, calls) for b, p in zip(agg.blocks, agg.parts)))

    plain = aggregate_sides(parse_instance(market_text(300, 300, 3, seed=5)))
    sides = SidePair(recorded(plain.F), recorded(plain.G), plain.f_report, plain.g_report)
    n = sides.universe_size
    for frame in (sides, sides.swap()):
        start = semi_stable_pair(frame, ContractSet.empty(n), ContractSet.full(n))
        calls.clear()
        trace = run_to_fixpoint(frame, start)
        asked = Counter(calls)

        def changed(agg, sets):
            """For each block of agg, the number of steps at which its slice of the sets changes."""
            owner = {g: block for block in agg.blocks for g in block}
            return Counter(block for a, b in zip(sets, sets[1:])
                           for block in {owner[g] for g in ContractSet(n, a.mask ^ b.mask)})

        offers = [frame.F.choose(p.Z) for p in trace.steps]
        # one first choice each, then one per step where the agent's slice of Z, F(Z) or Y changed
        z_steps = changed(frame.F, [p.Z for p in trace.steps])
        assert all(asked[block] <= 1 + z_steps[block] for block in frame.F.blocks if block)
        g_steps = changed(frame.G, offers) + changed(frame.G, [p.Y for p in trace.steps])
        assert all(asked[block] <= 1 + g_steps[block] for block in frame.G.blocks if block)
        # the pair keeps Z's chain: σ again from the start, or from Y₀ within F(C), asks no agent
        y0 = ContractSet(n, offers[0].mask & random.Random(n).getrandbits(n))
        warm = semi_stable_pair(frame, y0, ContractSet.full(n))
        calls.clear()
        assert run_to_fixpoint(frame, start) == trace
        assert run_to_fixpoint(frame, warm).result.S == trace.result.S
        assert calls == []


def test_a_warm_start_within_the_offers_asks_no_firm(market_text):
    calls = {}  # the blocks asked, by side

    def recorded(agg):
        asked = []
        parts = tuple(_Recorded(len(b), p, b, asked) for b, p in zip(agg.blocks, agg.parts))
        agg = Aggregate(agg.universe_size, agg.blocks, parts)
        calls[id(agg)] = asked
        return agg

    plain = aggregate_sides(parse_instance(market_text(300, 300, 3, seed=5)))
    n, full, rng = plain.universe_size, ContractSet.full(plain.universe_size), random.Random(38)
    # firms whose quota covers their block take every offer: G(F(C)) = F(C)
    takers = Aggregate(n, plain.G.blocks, tuple(OrderChoice(len(b), tuple(range(len(b))), len(b))
                                                for b in plain.G.blocks))
    sides = SidePair(recorded(plain.F), recorded(plain.G), plain.f_report, plain.g_report)
    for frame in (sides, sides.swap()):
        firms = calls[id(frame.G)]
        cold = run_to_fixpoint(frame, SemiStablePair(ContractSet.empty(n), full))
        offers = frame.F.choose(full)
        y0, y1 = (ContractSet(n, offers.mask & rng.getrandbits(n)) for _ in range(2))
        assert y0 < offers and y1 < offers and y1.mask not in frame.G._chosen  # never asked
        firms.clear()
        assert semi_stable_pair(frame, y0, full) == SemiStablePair(y0, full)
        assert firms == []
        warm = run_to_fixpoint(frame, SemiStablePair(y1, full))
        assert firms == []
        fresh = run_to_fixpoint(_fresh(frame), SemiStablePair(y1, full))
        assert (warm.result, warm.terminated_at) == (fresh.result, fresh.terminated_at)
        assert warm.result.S == cold.result.S
    open_market = SidePair(recorded(plain.F), recorded(takers), plain.f_report, is_plott(takers))
    firms = calls[id(open_market.G)]
    cold = run_to_fixpoint(open_market, SemiStablePair(ContractSet.empty(n), full))
    assert cold.terminated_at == 1 and cold.result.S == open_market.F.choose(full)
    firms.clear()  # σ from Y₀ = F(C) reads the one-round chain and asks G at its fixpoint
    trace = run_to_fixpoint(open_market, SemiStablePair(cold.result.S, full))
    assert trace.terminated_at == 0 and trace.result == cold.result
    assert firms != []


def _random_explicit_aggregate(rng, n):
    """Random selection tables on blocks of 1–3 contracts, rarely path independent."""
    places = rng.sample(range(n), n)
    blocks, parts, start = [], [], 0
    while start < n:
        k = rng.randint(1, min(3, n - start))
        blocks.append(tuple(sorted(places[start:start + k])))
        parts.append(ExplicitTable(k, (0,) + tuple(rng.getrandbits(k) & x
                                                   for x in range(1, 1 << k))))
        start += k
    return Aggregate(n, tuple(blocks), tuple(parts))


def _reference_run(sides, p):
    """run_to_fixpoint restated on phi_step, whose choices are all full evaluations: the masks of
    every step and the stable set."""
    steps = [p]
    while (nxt := phi_step(sides, p)) != p:
        steps.append(nxt)
        p = nxt
        if len(steps) > sides.universe_size + 2:
            raise InternalError("dynamics exceeded the |C|+2 step bound")
    fz = sides.F.choose(p.Z)
    if sides.G.choose(fz) != fz:
        raise InternalError("fixpoint reached with choose(G,choose(F,Z)) != choose(F,Z)")
    if sides.G.choose(p.Y) != fz:
        raise InternalError("fixpoint reached with choose(G,Y) != choose(F,Z)")
    return tuple((q.Y.mask, q.Z.mask) for q in steps), fz.mask


def _outcome(run, sides, p):
    try:
        trace = run(sides, p)
    except (InternalError, NotSemiStable) as exc:
        return type(exc), str(exc)
    return trace if type(trace) is tuple else (tuple((q.Y.mask, q.Z.mask) for q in trace.steps),
                                               trace.stable_mask)


def test_forged_certification_trips_the_same_checks_as_full_steps():
    rng = random.Random(11)
    seen = set()
    for _ in range(200):
        n = rng.randint(2, 7)
        forged = SidePair(_random_explicit_aggregate(rng, n), _random_explicit_aggregate(rng, n),
                          PlottReport(True), PlottReport(True))
        full, y = (1 << n) - 1, rng.getrandbits(n)
        for ymask, zmask in ((0, full), (y, full), (y, (full & ~y) | rng.getrandbits(n))):
            p = SemiStablePair(ContractSet(n, ymask), ContractSet(n, zmask))
            outcome = _outcome(run_to_fixpoint, forged, p)
            assert outcome == _outcome(_reference_run, forged, p)
            seen.add(outcome[1] if isinstance(outcome[0], type) else "stable")
    assert seen == {"stable", "SSP2 fails: choose(G,Y) is not within choose(F,Z)",
                    "update left the semi-stable family",
                    "fixpoint reached with choose(G,Y) != choose(F,Z)"}


def test_sigma_answers_a_stable_pair_without_rounds(monkeypatch):
    def refuse(*args):
        raise AssertionError("σ ran rounds from a fixpoint")

    markets = [_polarized((3, 2, 2)), _polarized((2, 2)),
               *(generate_instance(seed, 10, 3) for seed in range(12))]
    catalogs = [(frame, _stable_sets(frame))
                for sides in markets for frame in (sides, sides.swap())]
    monkeypatch.setattr(stability, "_chain", refuse)
    for frame, stable in catalogs:
        for S in stable:
            pair = set_to_pair(_fresh(frame), S)
            trace = run_to_fixpoint(_fresh(frame), SemiStablePair(pair.Y, pair.Z))
            assert trace.terminated_at == 0 and trace.result == pair
            assert lattice_join(frame, [S, S]) == lattice_meet(frame, [S, S]) == S
            for T in stable:  # a comparable pair's join and meet start at a stable pair
                verdict = blair_compare_stable(frame, S, T)
                if verdict != "incomparable":
                    low, high = (S, T) if verdict == "less" else (T, S)
                    assert lattice_join(frame, [S, T]) == high
                    assert lattice_meet(frame, [S, T]) == low


def test_only_sigma_from_the_whole_universe_keeps_a_chain():
    rng = random.Random(39)
    markets = [_polarized((3, 2, 2)), _polarized((2, 2)),
               *(generate_instance(seed, 8, 3) for seed in range(6))]
    kinds = Counter()
    for sides in (frame for market in markets for frame in (market, market.swap())):
        n, full = sides.universe_size, (1 << sides.universe_size) - 1
        stable, starts = _stable_sets(sides), semi_stable_masks(sides)
        fc = sides.F._choose_mask(full)
        order = OrderChoice(n, tuple(rng.sample(range(n), n)), 1, rng.getrandbits(n))
        weakened = union([sides.F, order])
        assert is_plott(weakened).is_plott
        for _ in range(40):
            S, T = rng.choice(stable), rng.choice(stable)
            kind = rng.randrange(6)
            kinds[kind] += 1
            if kind == 0:
                side_optimal(sides, rng.choice("FG"))
            elif kind == 1:  # a warm run from within F(C)
                run_to_fixpoint(sides, SemiStablePair(ContractSet(n, fc & rng.getrandbits(n)),
                                                      ContractSet.full(n)))
            elif kind == 2:
                y, z = rng.choice(starts)
                kinds["z below C"] += z != full
                run_to_fixpoint(sides, SemiStablePair(ContractSet(n, y), ContractSet(n, z)))
            elif kind == 3:
                lattice_join(sides, [S, T])
            elif kind == 4:
                lattice_meet(sides, [S, T])
            else:
                comparative_statics(sides, weakened, S)
        assert sides._chains and set(sides._chains) <= {(full, False), (full, True)}
    assert kinds["z below C"] > 0 and all(kinds[kind] for kind in range(6))


def test_a_forged_fixpoint_start_fails_the_stable_set_check():
    forged = SidePair(ExplicitTable(2, (0, 1, 0, 1)), ExplicitTable(2, (0, 1, 0, 0)),
                      PlottReport(True), PlottReport(True))
    start = SemiStablePair(cs(2, 0, 1), cs(2, 0))  # F(Z) ⊆ Y and G(F(Z)) = F(Z), but G(Y) = ∅
    message = "fixpoint reached with choose(G,Y) != choose(F,Z)"
    assert _outcome(run_to_fixpoint, forged, start) == (InternalError, message)
    assert _outcome(_reference_run, forged, start) == (InternalError, message)


def _semi_stable_by_definition(sides, Y, Z):
    """SSP1 and SSP2 with both G(Y) and F(Z) evaluated in full."""
    gy, fz = sides.G.choose(Y), sides.F.choose(Z)
    if Y | Z != ContractSet.full(sides.universe_size):
        raise NotSemiStable("SSP1 fails: Y and Z do not cover the universe")
    if not gy <= fz:
        raise NotSemiStable("SSP2 fails: choose(G,Y) is not within choose(F,Z)")
    return SemiStablePair(Y, Z)


def test_semi_stable_verdicts_are_the_definitions():
    rng = random.Random(38)
    markets = [_polarized((3, 2, 2)), _polarized((4, 3, 3)),
               *(generate_instance(seed, rng.randint(1, 10), 3) for seed in range(20))]
    for _ in range(40):  # uncertified, rarely path independent
        n = rng.randint(1, 10)
        markets.append(SidePair(_random_explicit_aggregate(rng, n),
                                _random_explicit_aggregate(rng, n)))
    seen = Counter()
    for sides in markets:
        for frame in (sides, sides.swap()):
            n, full = frame.universe_size, (1 << frame.universe_size) - 1
            for way in (0, 1, 2) * 6:
                z = full if way == 0 and rng.random() < 0.7 else rng.getrandbits(n)
                fz = frame.F._choose_mask(z)
                if way == 0:  # Y within F(Z)
                    y = fz & rng.getrandbits(n)
                elif way == 1:  # Y not within F(Z), Y ∪ Z = C
                    y, outside = (full & ~z) | rng.getrandbits(n), full & ~fz
                    y |= 0 if y & outside else outside & -outside  # none when F(Z) = C
                else:  # Y ∪ Z ≠ C
                    missing = 1 << rng.randrange(n)
                    y, z = rng.getrandbits(n) & ~missing, z & ~missing
                Y, Z = ContractSet(n, y), ContractSet(n, z)
                answer = _answer(semi_stable_pair, frame, Y, Z)
                assert answer == _answer(_semi_stable_by_definition, frame, Y, Z)
                within = not y & ~frame.F._choose_mask(z)
                seen[within, answer[1][:4] if type(answer) is tuple else "pair"] += 1
                if way == 2 and not frame.G.choose(Y) <= frame.F.choose(Z):
                    seen["SSP1 before SSP2"] += 1
    assert {(True, "pair"), (True, "SSP1"), (False, "pair"), (False, "SSP1"), (False, "SSP2"),
            "SSP1 before SSP2"} <= set(seen)
    assert (True, "SSP2") not in seen  # G(Y) ⊆ Y ⊆ F(Z)


def test_set_to_pair_fails_exactly_where_is_stable_set_does(market_text):
    for market in _small_markets(market_text):
        for sides in (market, market.swap()):  # the stored pair, read from either side
            n = sides.universe_size
            for m in range(1 << n):
                S = ContractSet(n, m)
                check = is_stable_set(sides, S)
                if check:
                    assert set_to_pair(sides, S) == StablePair(
                        closure_star(sides.G, S), closure_star(sides.F, S), S)
                    assert is_stable_set_via_closure(sides, S)
                    continue
                with pytest.raises(NotStable, match=f"^set fails {check.condition}$"):
                    set_to_pair(sides, S)
                if check.condition == "S2":
                    assert not is_stable_set_via_closure(sides, S)


def test_a_stored_set_is_answered_without_evaluating_either_side():
    sides = _polarized((3, 2, 2))
    for S in (side_optimal(sides, "F"), side_optimal(sides, "G")):
        assert set_to_pair(sides, S)
        rows, pairs = (sides.F.cache_info(), sides.G.cache_info()), choice._cache_info(sides._pairs)
        assert is_stable_set(sides, S) == StabilityCheck(True)
        assert (sides.F.cache_info(), sides.G.cache_info()) == rows
        assert choice._cache_info(sides._pairs) == pairs._replace(hits=pairs.hits + 1)
    bare = SidePair(sides.F, sides.G)  # a stored pair of an uncertified market is not read
    assert is_stable_set(bare, S) and S.mask in bare._pairs
    with pytest.raises(NotCertified):
        set_to_pair(bare, S)


def _trace_join(sides, stable_sets):
    """lattice_join restated on set_to_pair and run_to_fixpoint."""
    pairs = [set_to_pair(sides, S) for S in stable_sets]
    Y, Z = pairs[0].Y, pairs[0].Z
    for p in pairs[1:]:
        Y, Z = Y | p.Y, Z & p.Z
    try:
        return run_to_fixpoint(sides, SemiStablePair(Y, Z)).result.S
    except NotSemiStable as exc:
        raise InternalError("union/intersection of stable pairs not semi-stable") from exc


def _trace_statics(sides, f_prime, S):
    """comparative_statics from a dominating, certified f_prime, restated on run_to_fixpoint."""
    pair = set_to_pair(sides, S)
    weakened = SidePair(f_prime, sides.G, is_plott(f_prime), sides.g_report)
    try:
        trace = run_to_fixpoint(weakened,
                                SemiStablePair(pair.Y, closure_star(f_prime, pair.Z)))
    except NotSemiStable as exc:
        raise InternalError("statics start pair not semi-stable") from exc
    if not blair_leq(sides.G, S, trace.result.S):
        raise InternalError("statics result not above S in the firm-side order")
    if not blair_leq(sides.F, trace.result.S, S):
        raise InternalError("statics result not below S in the original worker order")
    return trace.result.S


def _answer(call, *args):
    """What a call returns, or the type and message of the package error it raises."""
    try:
        return call(*args)
    except PlottmatchError as exc:
        return type(exc), str(exc)


def test_sigma_on_masks_answers_as_the_trace_path_does(market_text):
    rng = random.Random(13)
    forged = [SidePair(_random_explicit_aggregate(rng, n), _random_explicit_aggregate(rng, n),
                       PlottReport(True), PlottReport(True))
              for n in (rng.randint(2, 6) for _ in range(80))]
    seen = Counter()
    for sides in [*_small_markets(market_text), *forged]:
        n = sides.universe_size
        start = SemiStablePair(ContractSet.empty(n), ContractSet.full(n))
        answers = []
        for favored, frame in (("F", sides), ("G", sides.swap())):
            answer = _answer(side_optimal, sides, favored)
            assert answer == _answer(lambda: run_to_fixpoint(frame, start).result.S)
            answers.append(answer)
        stable = [S for S in map(partial(ContractSet, n), range(1 << n)) if is_stable_set(sides, S)]
        sets = stable + [ContractSet(n, rng.getrandbits(n))]  # most often unstable
        for S, T in [(S, T) for S in sets for T in sets if S.mask <= T.mask]:
            for join, frame in ((lattice_join, sides), (lattice_meet, sides.swap())):
                answer = _answer(join, sides, [S, T])
                assert answer == _answer(_trace_join, frame, [S, T])
                answers.append(answer)
        order = OrderChoice(n, tuple(rng.sample(range(n), n)), 1, rng.getrandbits(n))
        weakened = union([sides.F, order])
        if is_plott(weakened).is_plott:  # always when F is path independent
            for S in stable:
                answer = _answer(comparative_statics, sides, weakened, S)
                assert answer == _answer(_trace_statics, sides, weakened, S)
                answers.append(answer)
        seen.update(a[1] if isinstance(a, tuple) else "set" for a in answers)
    assert {"set", "set fails S1", "update left the semi-stable family",
            "union/intersection of stable pairs not semi-stable",
            "statics start pair not semi-stable",
            "fixpoint reached with choose(G,Y) != choose(F,Z)"} <= set(seen)



# ---------------------------------------------------------------------------
# the answers a pair keeps
# ---------------------------------------------------------------------------


def _fresh(sides) -> SidePair:
    """A pair of the same sides and reports, whose stores are empty."""
    return SidePair(sides.F, sides.G, sides.f_report, sides.g_report)


def _polarized(sizes) -> SidePair:
    """Independent blocks of one-to-one agents, ranked one way by F and the reverse way by G.

    Every contract of a block is a stable set of it, so the market has the
    product of the block sizes as stable sets.
    """
    blocks, start = [], 0
    for k in sizes:
        blocks.append(tuple(range(start, start + k)))
        start += k
    ranked = [tuple(range(k)) for k in sizes]
    return side_pair(Aggregate(start, tuple(blocks), tuple(OrderChoice(len(r), r) for r in ranked)),
                     Aggregate(start, tuple(blocks),
                               tuple(OrderChoice(len(r), r[::-1]) for r in ranked)))


@cache
def _small_market_list() -> tuple[SidePair, ...]:
    return (*_small_markets(make_market_text), _polarized((3, 2, 2)))


@st.composite
def stored_markets(draw):
    """A seeded small market, or mixed aggregates on both sides, uncertified or forged."""
    if draw(st.booleans()):
        markets = _small_market_list()
        return markets[draw(st.integers(0, len(markets) - 1))]
    F = draw(mixed_aggregates())
    places = draw(st.permutations(range(F.universe_size)))
    blocks = tuple(tuple(sorted(places[g] for g in block)) for block in F.blocks)
    parts = tuple(draw(st.one_of(selection_tables(len(block)), structural_functions(len(block))))
                  if block else ExplicitTable(0, (0,)) for block in blocks)
    sides = side_pair(F, Aggregate(F.universe_size, blocks, parts))
    if not sides.certified and draw(st.booleans()):
        return SidePair(sides.F, sides.G, PlottReport(True), PlottReport(True))
    return sides


@settings(max_examples=60, deadline=None)
@given(stored_markets(), st.randoms(use_true_random=False))
def test_stored_answers_equal_fresh_ones_past_the_bound(sides, rng):
    n = sides.universe_size
    stored = _fresh(sides)
    start = SemiStablePair(ContractSet.empty(n), ContractSet.full(n))
    stable = [S for S in map(partial(ContractSet, n), range(1 << n)) if is_stable_set(sides, S)]
    pool = rng.sample(stable, min(5, len(stable))) + [ContractSet(n, rng.getrandbits(n))]
    order = OrderChoice(n, tuple(rng.sample(range(n), n)), 1, rng.getrandbits(n))
    weakened = union([sides.F, order])
    statics = is_plott(weakened).is_plott  # always when F is path independent
    full = (1 << n) - 1
    ys = (0, rng.getrandbits(n), rng.getrandbits(n))  # each with starts that differ in Z alone
    starts = [(y, z) for y in ys for z in {full & ~y | rng.getrandbits(n) for _ in range(4)}]
    with mock.patch.object(choice._Rows, "maxsize", 3):
        for _ in range(40):
            S, T = rng.choice(pool), rng.choice(pool)
            fresh = _fresh(sides)
            kind = rng.randrange(6)
            if kind == 0:
                favored = rng.choice("FG")
                frame = fresh if favored == "F" else fresh.swap()
                assert _answer(side_optimal, stored, favored) == _answer(  # checked unswapped
                    lambda: fresh.require_certified() or run_to_fixpoint(frame, start).result.S)
            elif kind == 1:
                assert _answer(lattice_join, stored, [S, T]) == _answer(_trace_join, fresh, [S, T])
            elif kind == 2:
                assert _answer(lattice_meet, stored, [S, T]) == _answer(
                    lambda: fresh.require_certified() or _trace_join(fresh.swap(), [S, T]))
            elif kind == 3:
                assert _answer(set_to_pair, stored, S) == _answer(set_to_pair, fresh, S)
            elif kind == 4:
                y, z = rng.choice(starts)
                p = SemiStablePair(ContractSet(n, y), ContractSet(n, z))
                assert _answer(lambda: stored.require_certified() or stability._fixpoint(
                    stored, y, z)) == _answer(lambda: run_to_fixpoint(fresh, p).result.S.mask)
            elif statics:
                assert _answer(comparative_statics, stored, weakened, S) == _answer(
                    _trace_statics, fresh, weakened, S)
        info = stored.cache_info()
    assert info.currsize <= info.maxsize == 9


def test_every_check_runs_before_a_stored_answer_and_no_failure_is_kept():
    sides = _polarized((3, 2, 2))
    n = sides.universe_size
    fresh = _fresh(sides)
    assert (fresh, hash(fresh), repr(fresh)) == (sides, hash(sides), repr(sides))
    assert [f.name for f in fields(SidePair)] == ["F", "G", "f_report", "g_report"]
    assert sides.swap() == sides.swap() and sides.swap().swap() == sides
    assert sides.swap() == SidePair(sides.G, sides.F, sides.g_report, sides.f_report)
    worst, best = side_optimal(sides, "F"), side_optimal(sides, "G")
    assert lattice_join(sides, [worst, best]) == best and lattice_meet(sides, [worst, best]) == worst
    assert set_to_pair(sides, best) == StablePair(closure_star(sides.G, best),
                                                  closure_star(sides.F, best), best)
    assert (fresh, hash(fresh), repr(fresh)) == (sides, hash(sides), repr(sides))
    for copied in (pickle.loads(pickle.dumps(sides)), copy.copy(sides), copy.deepcopy(sides)):
        assert copied == sides and copied.swap().swap() == copied
        assert copied.cache_info().currsize == 0 < sides.cache_info().currsize

    with pytest.raises(ValueError, match="^favored must be 'F' or 'G'$"):
        side_optimal(sides, "X")
    bare = SidePair(sides.F, sides.G)  # the same aggregates, not certified
    with pytest.raises(ValueError, match="^favored must be 'F' or 'G'$"):  # before NotCertified
        side_optimal(bare, "X")
    for call, arg in ((side_optimal, "F"), (side_optimal, "G"), (set_to_pair, best),
                      (lattice_join, [worst, best]), (lattice_meet, [worst, best])):
        with pytest.raises(NotCertified, match="^operation requires both sides certified "
                                               "path-independent$"):
            call(bare, arg)
    foreign = ContractSet(n + 1, best.mask)  # its mask is stored
    for call, arg in ((set_to_pair, foreign), (lattice_join, [best, foreign]),
                      (lattice_meet, [foreign])):
        with pytest.raises(UniverseMismatch, match="^set outside the market universe$"):
            call(sides, arg)
    unstable = ContractSet.full(n)
    assert is_stable_set(sides, unstable).condition == "S1"
    before = sides.cache_info()
    for _ in range(3):
        with pytest.raises(NotStable, match="^set fails S1$"):
            lattice_join(sides, [best, unstable])
    assert sides.cache_info() == before._replace(hits=before.hits + 3)  # best's closures

    maxsize = 3 * choice._Rows.maxsize
    assert type(fresh.cache_info())._fields == ("hits", "misses", "maxsize", "currsize")
    assert fresh.cache_info() == (0, 0, maxsize, 0)
    assert side_optimal(fresh, "F") == worst  # its stable set and its chain from C
    assert fresh.cache_info() == (0, 2, maxsize, 2)
    assert side_optimal(fresh, "F") == worst
    assert fresh.cache_info() == (1, 2, maxsize, 2)
    assert side_optimal(fresh, "G") == best  # kept by the same pair, under its own keys
    assert fresh.cache_info() == (1, 4, maxsize, 4)
    assert side_optimal(fresh, "G") == best
    assert fresh.cache_info() == (2, 4, maxsize, 4)
    assert fresh.swap().cache_info() == (0, 0, maxsize, 0)
    assert lattice_join(fresh, [worst, best]) == best  # two closures and one start missed
    assert choice._cache_info(fresh._pairs) == (0, 2, maxsize // 3, 2)
    assert fresh.cache_info() == (2, 7, maxsize, 7)
    assert lattice_meet(fresh, [worst, best]) == worst  # the join's closures, exchanged
    assert choice._cache_info(fresh._pairs) == (2, 2, maxsize // 3, 2)
    assert fresh.cache_info() == (4, 8, maxsize, 8)


def test_compare_reads_stability_from_the_pair_store():
    sides = _polarized((3, 2, 2))
    n = sides.universe_size
    worst, best = side_optimal(sides, "F"), side_optimal(sides, "G")
    assert set_to_pair(sides, worst) and set_to_pair(sides, best)
    f_info, pairs = sides.F.cache_info(), choice._cache_info(sides._pairs)
    assert blair_compare_stable(sides, worst, best) == "less"
    assert blair_compare_stable(sides, best, worst) == "greater"
    assert blair_compare_stable(sides, best, best) == "equal"  # G's choice rows serve blair_leq
    assert sides.F.cache_info() == f_info
    assert choice._cache_info(sides._pairs) == pairs._replace(hits=pairs.hits + 6)

    unstable = ContractSet.full(n)
    assert is_stable_set(sides, unstable).condition == "S1"
    before = sides.cache_info()
    for _ in range(3):
        with pytest.raises(NotStable, match="^set fails S1$"):
            blair_compare_stable(sides, best, unstable)
    assert sides.cache_info() == before._replace(hits=before.hits + 3)  # best's closures
    assert unstable.mask not in sides._pairs
    foreign = ContractSet(n + 1, best.mask)  # its mask is stored
    for S, T in ((foreign, unstable), (best, foreign), (ContractSet(n + 1, unstable.mask), best)):
        with pytest.raises(UniverseMismatch, match="^set outside the market universe$"):
            blair_compare_stable(sides, S, T)


def test_a_pair_that_answered_both_directions_is_freed_without_the_cyclic_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        sides = _polarized((3, 2))
        worst, best = side_optimal(sides, "F"), side_optimal(sides, "G")
        assert worst == side_optimal(sides.swap(), "G") and best == side_optimal(sides.swap(), "F")
        assert lattice_join(sides, [worst, best]) == best
        assert lattice_meet(sides, [worst, best]) == worst
        assert sides.cache_info().currsize == 8  # with one chain from C per proposer
        dropped = weakref.ref(sides)
        del sides
        assert dropped() is None
    finally:
        if enabled:
            gc.enable()


def test_threads_sharing_a_pair_read_only_its_answers():
    sides = _polarized((3, 3, 2))
    n = sides.universe_size
    stable = [S for S in map(partial(ContractSet, n), range(1 << n)) if is_stable_set(sides, S)]
    assert len(stable) == 18
    optima = {favored: side_optimal(_fresh(sides), favored) for favored in "FG"}
    pairs = [set_to_pair(_fresh(sides), S) for S in stable]
    unstable = ContractSet.full(n)
    shared = _fresh(sides)

    def ask(seed):
        rng = random.Random(seed)
        for _ in range(300):
            favored = rng.choice("FG")
            assert side_optimal(shared, favored) == optima[favored]
            (i, S), (j, T) = rng.choice(list(enumerate(stable))), rng.choice(list(enumerate(stable)))
            assert set_to_pair(shared, S) == pairs[i]
            join, meet = lattice_join(shared, [S, T]), lattice_meet(shared, [S, T])
            assert join == lattice_join(_fresh(sides), [S, T])
            assert meet == lattice_meet(_fresh(sides), [S, T])
            with pytest.raises(NotStable, match="^set fails S1$"):
                lattice_join(shared, [T, unstable])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(choice._Rows, "maxsize", 2), ThreadPoolExecutor(4) as pool:
            list(pool.map(ask, range(4), timeout=120))  # emptying a store on nearly every miss
    finally:
        sys.setswitchinterval(interval)
    assert shared.swap().swap() == shared
    assert shared.cache_info().currsize <= 6
