from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_choice import mixed_aggregates, selection_tables, structural_functions, table_aggregates

from plottmatch import (
    Aggregate,
    CapExceeded,
    ContractSet,
    EmptyList,
    InternalError,
    OrderChoice,
    aggregate_sides,
    enumerate_stable_sets,
    format_catalog,
    generate_instance,
    is_stable_set,
    lattice_join,
    lattice_meet,
    parse_instance,
    semi_stable_masks,
    semi_stable_pair,
    side_pair,
    verify_lattice,
)
from plottmatch.choice import choice_table
from plottmatch.errors import NotSemiStable
from plottmatch.oracle import StableSetCatalog

FIXTURES = Path(__file__).parent / "fixtures"

POLAR2 = side_pair(OrderChoice(2, (0, 1)), OrderChoice(2, (1, 0)))
EX1 = side_pair(OrderChoice.by_utility((0, 10, 20, -10, 30, 5)),
                OrderChoice.by_utility((20, 10, 0, 30, -10, 5)))
QUOTA = side_pair(OrderChoice(3, (0, 1, 2)), OrderChoice(3, (0, 1, 2), 2))
DIAMOND = side_pair(
    Aggregate(4, ((0, 1), (2, 3)),
              (OrderChoice(2, (0, 1)), OrderChoice(2, (0, 1)))),
    Aggregate(4, ((0, 1), (2, 3)),
              (OrderChoice(2, (1, 0)), OrderChoice(2, (1, 0)))))


def cs(n, *indices):
    return ContractSet.from_indices(n, indices)


def test_enumerate_polar2():
    catalog = enumerate_stable_sets(POLAR2)
    assert catalog.universe_size == 2
    assert catalog.stable_sets == (cs(2, 0), cs(2, 1))
    assert catalog.blair_matrix == ((True, True), (False, True))
    assert catalog.bottom() == cs(2, 0)
    assert catalog.top() == cs(2, 1)


def test_enumerate_ex1():
    catalog = enumerate_stable_sets(EX1)
    assert catalog.stable_sets == (cs(6, 0), cs(6, 1), cs(6, 2))
    assert catalog.blair_matrix == ((True, False, False),
                                    (True, True, False),
                                    (True, True, True))
    assert catalog.bottom() == cs(6, 2)
    assert catalog.top() == cs(6, 0)


def test_enumerate_quota_and_empty():
    assert enumerate_stable_sets(QUOTA).stable_sets == (cs(3, 0),)
    ex2 = aggregate_sides(parse_instance((FIXTURES / "ex2.mkt").read_text()))
    assert enumerate_stable_sets(ex2).stable_sets == ()


@pytest.mark.parametrize("name, fingerprint", [("ex1.mkt", "baa722402c2cd462"),
                                               ("ex2.mkt", "635662ceda52918c"),
                                               ("quota.mkt", "ac00ebf2df6d0edd")])
def test_fingerprints_are_pinned(name, fingerprint):
    sides = aggregate_sides(parse_instance((FIXTURES / name).read_text()))
    assert enumerate_stable_sets(sides).fingerprint == fingerprint


def test_enumerate_matches_the_scalar_check():
    for seed in range(10):
        sides = generate_instance(seed, 5, 2)
        catalog = enumerate_stable_sets(sides)
        expected = tuple(
            ContractSet(5, m) for m in range(1 << 5)
            if is_stable_set(sides, ContractSet(5, m)).stable)
        assert catalog.stable_sets == expected


def test_enumerate_cap():
    big = side_pair(OrderChoice(17, tuple(range(17))),
                    OrderChoice(17, tuple(range(17))), certify=False)
    with pytest.raises(CapExceeded):
        enumerate_stable_sets(big)


def test_fingerprint_identifies_behavior_not_representation():
    from_market = aggregate_sides(parse_instance((FIXTURES / "polar2.mkt").read_text()))
    direct = enumerate_stable_sets(POLAR2)
    assert enumerate_stable_sets(from_market).fingerprint == direct.fingerprint
    assert enumerate_stable_sets(EX1).fingerprint != direct.fingerprint


def test_an_empty_catalog_has_no_bottom_or_top():
    ex2 = aggregate_sides(parse_instance((FIXTURES / "ex2.mkt").read_text()))
    catalog = enumerate_stable_sets(ex2)
    assert catalog.stable_sets == () and not ex2.certified
    with pytest.raises(EmptyList, match="catalog has no stable sets"):
        catalog.bottom()
    with pytest.raises(EmptyList, match="catalog has no stable sets"):
        catalog.top()


def test_catalog_with_no_extreme_raises():
    broken = StableSetCatalog(POLAR2, (cs(2, 0), cs(2, 1)),
                              ((True, False), (False, True)))
    with pytest.raises(InternalError):
        broken.bottom()
    with pytest.raises(InternalError):
        broken.top()


def _whole_table_scan(sides):
    """Stable masks and firm-side Blair matrix from both sides' whole tables.

    Every subset is tested against S1 and S2 on the tables of the whole
    sides, one outside contract at a time: the reference that the
    agent-by-agent enumeration must reproduce.
    """
    n = sides.universe_size
    tf, tg = choice_table(sides.F), choice_table(sides.G)
    masks = np.arange(1 << n, dtype=np.int64)
    candidates = masks[(tf == masks) & (tg == masks)]
    blocked = np.zeros(candidates.shape, dtype=bool)
    for c in range(n):
        bit = 1 << c
        outside = (candidates & bit) == 0
        added = candidates | bit
        blocked |= outside & ((tf[added] & bit) != 0) & ((tg[added] & bit) != 0)
    stable = [int(m) for m in candidates[~blocked]]
    matrix = tuple(tuple((int(tg[s | t]) & ~t) == 0 for t in stable) for s in stable)
    return stable, matrix


def _assert_matches_the_whole_table_scan(sides):
    catalog = enumerate_stable_sets(sides)
    stable, matrix = _whole_table_scan(sides)
    assert catalog.universe_size == sides.universe_size
    assert [s.mask for s in catalog.stable_sets] == stable
    assert catalog.blair_matrix == matrix


@st.composite
def aggregate_pairs(draw):
    """Two aggregates on one universe, the smaller padded by one more agent."""
    kinds = st.one_of(mixed_aggregates(), table_aggregates())
    F, G = draw(kinds), draw(kinds)
    if F.universe_size < G.universe_size:
        F, G = G, F
    n, m = F.universe_size, G.universe_size
    if m < n:
        G = Aggregate(n, G.blocks + (tuple(range(m, n)),),
                      G.parts + (draw(structural_functions(n - m)),))
    return side_pair(F, G, certify=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(aggregate_pairs())
def test_agent_by_agent_enumeration_matches_the_whole_table_scan(sides):
    _assert_matches_the_whole_table_scan(sides)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 9), st.integers(1, 3))
def test_one_block_unions_match_the_whole_table_scan(seed, n, k):
    sides = generate_instance(seed, n, k)
    assert sides.certified
    _assert_matches_the_whole_table_scan(sides)
    _assert_matches_the_whole_table_scan(sides.swap())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(selection_tables(n),
                                                     selection_tables(n))),
       st.booleans())
def test_explicit_tables_match_the_whole_table_scan(tables, certify):
    _assert_matches_the_whole_table_scan(side_pair(*tables, certify=certify))


PINNED = {"ex1.mkt": "baa722402c2cd462", "ex2.mkt": "635662ceda52918c",
          "quota.mkt": "ac00ebf2df6d0edd"}  # as in test_fingerprints_are_pinned


def test_enumeration_builds_no_whole_side_table(monkeypatch):
    def sides(name):
        return aggregate_sides(parse_instance((FIXTURES / name).read_text()))

    expected = {name: enumerate_stable_sets(sides(name)) for name in PINNED}

    def refuse(self, masks):
        raise AssertionError("a whole-side table was built")

    monkeypatch.setattr(Aggregate, "_table", refuse)
    catalogs = {name: enumerate_stable_sets(sides(name)) for name in PINNED}
    assert catalogs == expected
    with pytest.raises(AssertionError, match="whole-side table"):
        catalogs["ex1.mkt"].fingerprint
    monkeypatch.undo()
    assert {name: c.fingerprint for name, c in catalogs.items()} == PINNED


def test_format_catalog():
    catalog = enumerate_stable_sets(POLAR2)
    assert format_catalog(catalog, ("a", "b")) == (
        f"catalog {catalog.fingerprint}\n"
        "universe 2\n"
        "stable {a}\n"
        "stable {b}\n"
        "blair 11\n"
        "blair 01\n")


def test_verify_lattice_on_fixtures():
    for sides in (POLAR2, EX1, QUOTA, DIAMOND):
        catalog = enumerate_stable_sets(sides)
        report = verify_lattice(catalog, sides)
        assert report.passed and not report.failures
        assert report.sets == len(catalog.stable_sets)
        assert report.pairs_checked == report.sets ** 2


def test_verify_lattice_reports_a_broken_matrix():
    catalog = enumerate_stable_sets(POLAR2)
    broken = StableSetCatalog(POLAR2, catalog.stable_sets,
                              ((True, False), (False, True)))
    report = verify_lattice(broken, POLAR2)
    assert not report.passed
    assert any("no unique join bound" in f for f in report.failures)


def test_join_and_meet_do_not_depend_on_the_order_of_their_sets():
    for sides in (POLAR2, EX1, QUOTA, DIAMOND):
        sets = enumerate_stable_sets(sides).stable_sets
        for a in sets:
            for b in sets:
                assert lattice_join(sides, [a, b]) == lattice_join(sides, [b, a])
                assert lattice_meet(sides, [a, b]) == lattice_meet(sides, [b, a])


def test_verify_lattice_asks_the_engine_once_per_unordered_pair(monkeypatch):
    from plottmatch import oracle

    calls = []
    for name in ("lattice_join", "lattice_meet"):
        op = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda sides, sets, op=op, name=name: (
            calls.append((name, sets[0].mask, sets[1].mask)) or op(sides, sets)))
    for sides in (POLAR2, EX1, QUOTA, DIAMOND):
        catalog = enumerate_stable_sets(sides)
        k = len(catalog.stable_sets)
        calls.clear()
        report = verify_lattice(catalog, sides)
        assert report.passed and report.pairs_checked == k * k
        assert len(calls) == len(set(calls)) == k * (k + 1)  # no pair asked twice
    # a matrix that reverses the order: both orders of the pair fail, in loop order
    catalog = enumerate_stable_sets(POLAR2)
    reversed_order = StableSetCatalog(POLAR2, catalog.stable_sets,
                                      ((True, False), (True, True)))
    calls.clear()
    report = verify_lattice(reversed_order, POLAR2)
    assert len(calls) == 6 and report.pairs_checked == 4
    assert report.failures == (
        "join({0}, {1}) = {1}, matrix says {0}",
        "meet({0}, {1}) = {0}, matrix says {1}",
        "join({1}, {0}) = {1}, matrix says {0}",
        "meet({1}, {0}) = {0}, matrix says {1}",
    )
    # a matrix with the two sets incomparable: no bounds, and the engine asked only on the diagonal
    incomparable = StableSetCatalog(POLAR2, catalog.stable_sets, ((True, False), (False, True)))
    calls.clear()
    report = verify_lattice(incomparable, POLAR2)
    assert len(calls) == 4 and report.pairs_checked == 4
    assert report.failures == (
        "no unique join bound for {0}, {1}",
        "no unique meet bound for {0}, {1}",
        "no unique join bound for {1}, {0}",
        "no unique meet bound for {1}, {0}",
    )


def test_generate_is_deterministic_and_certified():
    a = generate_instance(5, 4, 2)
    b = generate_instance(5, 4, 2)
    assert a == b and a.certified
    assert generate_instance(6, 4, 2) != a


def test_generate_side_spec_shapes():
    sides = generate_instance(0, 4, (1, 3))
    assert len(sides.F.parts) == 1 and len(sides.G.parts) == 3
    assert len(generate_instance(0, 4, 0).F.parts) == 1  # floor of one order


def test_semi_stable_masks_on_polar2():
    assert semi_stable_masks(POLAR2) == [(0, 3), (1, 3), (3, 2)]


def test_semi_stable_masks_match_the_factory():
    for sides in (POLAR2, QUOTA, DIAMOND):
        n = sides.universe_size
        found = set(semi_stable_masks(sides))
        for y in range(1 << n):
            for z in range(1 << n):
                try:
                    semi_stable_pair(sides, ContractSet(n, y), ContractSet(n, z))
                    ok = True
                except NotSemiStable:
                    ok = False
                assert ok == ((y, z) in found)


def test_semi_stable_cap():
    big = side_pair(OrderChoice(11, tuple(range(11))),
                    OrderChoice(11, tuple(range(11))), certify=False)
    with pytest.raises(CapExceeded):
        semi_stable_masks(big)


def test_the_scan_size_limits_are_fixed():
    # the limits are fixed: neither scan takes a cap, and both refuse above their limit
    big = side_pair(OrderChoice(11, tuple(range(11))),
                    OrderChoice(11, tuple(range(11))), certify=False)
    with pytest.raises(CapExceeded, match=r"^semi-stable scan needs universe_size <= 10, got 11$"):
        semi_stable_masks(big)  # a 2^11 × 2^11 grid would be built
    wide = side_pair(OrderChoice(17, tuple(range(17))), OrderChoice(17, tuple(range(17))))
    with pytest.raises(CapExceeded, match=r"^enumeration needs universe_size <= 16, got 17$"):
        enumerate_stable_sets(wide)
    for scan, sides in ((semi_stable_masks, big), (enumerate_stable_sets, wide)):
        with pytest.raises(TypeError):
            scan(sides, cap=20)
