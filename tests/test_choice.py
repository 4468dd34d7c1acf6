from __future__ import annotations

import copy
import itertools
import math
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plottmatch import (
    Aggregate,
    CapExceeded,
    ChoiceFunction,
    ContractSet,
    EmptyList,
    ExplicitTable,
    NotCertified,
    OrderChoice,
    PlottReport,
    UnionChoice,
    UniverseMismatch,
    aggregate_sides,
    choice_table,
    closure_star,
    decompose_into_orders,
    invert_closure,
    is_plott,
    nil_set,
    parse_instance,
    union,
)
from plottmatch import choice, hyperorders
from plottmatch.choice import _gather, _scatter
from plottmatch.hyperorders import DerivedLehmann, reconstruct_choice
from plottmatch.oracle import generate_instance

# ex2 worker table: keeps {a,b} together but drops a lone b
EX2_F = ExplicitTable(2, (0, 1, 0, 3))
EX2_G = ExplicitTable(2, (0, 1, 2, 2))
# worker/firm utilities of the six-contract example
EX1_F = OrderChoice.by_utility((0, 10, 20, -10, 30, 5))
EX1_G = OrderChoice.by_utility((20, 10, 0, 30, -10, 5))
ORD3_G = OrderChoice(3, (2, 1, 0))


def cs(n, *indices):
    return ContractSet.from_indices(n, indices)


def _as_table(cf) -> ExplicitTable:
    return ExplicitTable(cf.universe_size, tuple(int(v) for v in choice_table(cf)))


def _definition_plott(cf) -> bool:
    """Direct G(X∪Y) = G(G(X)∪Y) over every subset pair."""
    size = 1 << cf.universe_size
    for x in range(size):
        gx = cf._choose_mask(x)
        for y in range(size):
            if cf._choose_mask(x | y) != cf._choose_mask(gx | y):
                return False
    return True


@st.composite
def selection_tables(draw, n=3):
    size = 1 << n
    table = [0]
    for m in range(1, size):
        table.append(draw(st.integers(0, size - 1)) & m)
    return ExplicitTable(n, tuple(table))


@st.composite
def plott_sides(draw):
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    return generate_instance(seed, n, k)


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


def test_explicit_table_validation():
    with pytest.raises(ValueError):
        ExplicitTable(2, (0, 1, 2))
    with pytest.raises(ValueError):
        ExplicitTable(2, (0, 2, 2, 3))  # entry for {a} picks b
    with pytest.raises(ValueError):
        ExplicitTable(1, (1, 1))
    with pytest.raises(CapExceeded, match=r"^explicit table needs universe_size <= 16, got 17$"):
        ExplicitTable(17, (0,) * (1 << 17))


def test_choose_is_a_subset_and_checks_universe():
    assert EX2_F.choose(cs(2, 1)) == cs(2)
    assert EX2_F.choose(cs(2, 0, 1)) == cs(2, 0, 1)
    with pytest.raises(UniverseMismatch):
        EX2_F.choose(cs(3, 0))


def test_linear_order_max():
    f = OrderChoice(3, (2, 0, 1))
    assert f.choose(cs(3, 0, 1)) == cs(3, 0)
    assert f.choose(cs(3, 1, 2)) == cs(3, 2)
    assert f.choose(cs(3)) == cs(3)
    restricted = OrderChoice(3, (2, 0, 1), 1, 0b011)
    assert restricted.choose(cs(3, 2)) == cs(3)
    assert restricted.choose(cs(3, 1, 2)) == cs(3, 1)
    with pytest.raises(ValueError):
        OrderChoice(3, (0, 1))
    with pytest.raises(ValueError):
        OrderChoice(2, (0, 1), 1, 0b100)


def test_quota_by_order():
    f = OrderChoice(3, (0, 1, 2), 2)
    assert f.choose(cs(3, 0, 1, 2)) == cs(3, 0, 1)
    assert f.choose(cs(3, 1, 2)) == cs(3, 1, 2)
    assert OrderChoice(3, (0, 1, 2), 0).choose(cs(3, 0, 1)) == cs(3)
    with pytest.raises(ValueError):
        OrderChoice(3, (0, 1, 2), -1)


def test_a_quota_must_be_an_integer():
    for quota in (1.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="^quota must be an integer$"):
            OrderChoice(3, (0, 1, 2), quota)
    for quota in (2, np.int64(2), np.uint8(2)):
        f = OrderChoice(3, (0, 1, 2), quota)
        assert f._choose_mask(0b111) == choice_table(f)[0b111] == 0b011


def test_utility_threshold():
    f = OrderChoice.by_utility((5, 5, -1))
    assert f.choose(cs(3, 0, 1)) == cs(3, 0)  # tie goes to the lower index
    assert f.choose(cs(3, 2)) == cs(3)
    assert f.choose(cs(3, 1, 2)) == cs(3, 1)


def test_utility_as_order_equivalence():
    # the order by (−u, index), accepting exactly u ≥ 0: all but d (u = −10)
    assert EX1_F == OrderChoice(6, (4, 2, 1, 5, 0, 3), 1, 0b110111)
    assert OrderChoice.by_utility((5, 5, -1)) == OrderChoice(3, (0, 1, 2), 1, 0b011)


def test_union_choice():
    a = OrderChoice(2, (0, 1))
    b = OrderChoice(2, (1, 0))
    u = union([a, b])
    assert u.choose(cs(2, 0, 1)) == cs(2, 0, 1)
    assert u.choose(cs(2, 1)) == cs(2, 1)
    with pytest.raises(EmptyList):
        union([])
    with pytest.raises(EmptyList):
        UnionChoice(2, ())
    with pytest.raises(UniverseMismatch):
        union([a, OrderChoice(3, (0, 1, 2))])


def test_aggregate_blockwise():
    agg = Aggregate(4, ((0, 2), (1, 3)),
                    (OrderChoice(2, (0, 1)), OrderChoice(2, (1, 0))))
    # block one sees {a,c}, block two {b,d}; each picks its own best
    assert agg.choose(cs(4, 0, 1, 2, 3)) == cs(4, 0, 3)
    assert agg.choose(cs(4, 1, 2)) == cs(4, 1, 2)


def test_aggregate_validation():
    one = OrderChoice(1, (0,))
    with pytest.raises(ValueError):
        Aggregate(2, ((0,),), (one,))  # does not cover the universe
    with pytest.raises(ValueError):
        Aggregate(2, ((0,), (0,)), (one, one))  # overlap
    with pytest.raises(ValueError):
        Aggregate(2, ((0, 1),), (one,))  # part size mismatch
    with pytest.raises(ValueError):
        Aggregate(2, ((0,),), (one, one))
    two = OrderChoice(2, (0, 1))
    with pytest.raises(ValueError, match="^blocks must partition the universe$"):
        Aggregate(2, ((0, 0),), (two,))  # repeated inside one block
    with pytest.raises(ValueError):
        Aggregate(2, ((0, 2),), (two,))  # index outside the universe
    ascending = "^each block must list its contracts in ascending order$"
    for blocks in (((1, 0),), ((0, 2), (3, 1))):  # local order must be global order
        with pytest.raises(ValueError, match=ascending):
            Aggregate(2 * len(blocks), blocks, (two,) * len(blocks))


def test_aggregate_rejects_blocks_that_overlap_yet_cover():
    one, two = OrderChoice(1, (0,)), OrderChoice(2, (0, 1))
    for blocks, parts in ((((0, 1), (1,)), (two, one)), (((0, 0), (1,)), (two, one))):
        with pytest.raises(ValueError, match="partition"):
            Aggregate(2, blocks, parts)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_choice_table_matches_choose():
    for cf in (EX2_F, EX2_G, EX1_F, ORD3_G, OrderChoice(3, (0, 1, 2), 2),
               UnionChoice(2, (OrderChoice(2, (0, 1)), OrderChoice(2, (1, 0)))),
               Aggregate(3, ((0, 2), (1,)),
                         (OrderChoice(2, (1, 0)), OrderChoice(1, (0,))))):
        table = choice_table(cf)
        assert not table.flags.writeable
        for m in range(1 << cf.universe_size):
            assert int(table[m]) == cf._choose_mask(m)


def test_explicit_table_hash():
    a, b = ExplicitTable(3, (0, 1, 2, 3, 4, 1, 4, 1)), ExplicitTable(3, (0, 1, 2, 3, 4, 1, 4, 1))
    assert a == b and a is not b and hash(a) == hash(b)
    assert repr(a) == "ExplicitTable(universe_size=3, table=(0, 1, 2, 3, 4, 1, 4, 1))"
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and hash(copy) == hash(a)
    table = choice_table(a)
    hits = choice_table.cache_info().hits
    assert choice_table(b) is table
    assert choice_table.cache_info().hits == hits + 1


def test_order_choice_hash_is_kept_and_follows_the_normalised_mask():
    default, full = OrderChoice(3, (2, 0, 1), 2, -1), OrderChoice(3, (2, 0, 1), 2, 0b111)
    assert default == full and default is not full and hash(default) == hash(full)
    assert repr(default) == ("OrderChoice(universe_size=3, order=(2, 0, 1), quota=2, "
                             "acceptable_mask=7)")
    assert [f.name for f in fields(default)] == ["universe_size", "order", "quota",
                                                 "acceptable_mask"]
    assert default._choose_mask(0b111) == 0b101  # compiles the kernels, which copies carry
    for copied in (pickle.loads(pickle.dumps(default)), copy.copy(default), copy.deepcopy(default),
                   pickle.loads(pickle.dumps(full)), copy.copy(full)):
        assert copied == full and hash(copied) == hash(full) == hash(default)
    assert OrderChoice(3, (2, 0, 1), 2, 0b011) != full


def test_table_cache_keeps_no_failure():
    for _ in range(2):
        with pytest.raises(CapExceeded):
            choice_table(OrderChoice(17, tuple(range(17))))
    info = choice_table.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


def test_table_cache_keeps_the_most_recent_entries(monkeypatch):
    tables = [OrderChoice(5, order) for order in itertools.permutations(range(5))]
    for bound, value in (("MEMO_ENTRIES", 8), ("MEMO_ROWS", 8 * 64)):  # 2^5 key and table rows
        choice_table.cache_clear()
        with monkeypatch.context() as patched:
            patched.setattr(choice, bound, value)
            for cf in tables[:9]:
                choice_table(cf)
            info = choice_table.cache_info()
            assert (info.misses, info.currsize) == (9, 8)
            choice_table(tables[8])  # the newest is still kept
            choice_table(tables[0])  # the first was evicted
            info = choice_table.cache_info()
            assert (info.hits, info.misses) == (1, 10)


def test_many_small_agents_stay_cached():
    agents = [OrderChoice(5, order, quota) for order in itertools.permutations(range(5))
              for quota in range(1, 10)][:1024]
    for cf in agents + agents:
        choice_table(cf)
    info = choice_table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1024, 1024, 1024)


@dataclass(frozen=True)
class _Identity(ChoiceFunction):
    universe_size: int

    def _choose_mask(self, xmask: int) -> int:
        return xmask


def test_choice_table_generic_fallback():
    table = choice_table(_Identity(3))
    assert np.array_equal(table, np.arange(8))


def test_choice_table_cap():
    with pytest.raises(CapExceeded, match=r"^full table needs universe_size <= 16, got 17$"):
        choice_table(_Identity(17))


# ---------------------------------------------------------------------------
# path independence
# ---------------------------------------------------------------------------


def test_heredity_witness_on_ex2():
    report = is_plott(EX2_F)
    assert not report.is_plott
    b, a, element = report.heredity_witness
    assert b == cs(2, 0, 1) and a == cs(2, 1) and element == 1
    assert report.outcast_witness is None
    # the witness re-evaluates to a violation
    assert element in EX2_F.choose(b) and element not in EX2_F.choose(a)


def test_outcast_witness():
    f = ExplicitTable(2, (0, 1, 0, 0))
    report = is_plott(f)
    assert not report.is_plott and report.heredity_witness is None
    x, y = report.outcast_witness
    assert x == cs(2, 0, 1) and y == cs(2, 0)
    assert f.choose(y) <= x and f.choose(y) != f.choose(x)


def test_plott_positives():
    for cf in (EX2_G, EX1_F, EX1_G, ORD3_G, OrderChoice(3, (0, 1, 2), 2)):
        assert is_plott(cf).is_plott


def test_is_plott_has_one_mode_and_a_fixed_limit():
    # there is one mode, the exact check; no mode argument is taken
    with pytest.raises(TypeError):
        is_plott(EX2_G, "exhaustive")
    # nor a cap: the limit of 16 contracts is fixed
    with pytest.raises(TypeError):
        is_plott(EX2_G, cap=2)
    # it bounds the tables that are scanned: functions of no known structure
    with pytest.raises(CapExceeded, match=r"^exhaustive check needs universe_size <= 16, got 17$"):
        is_plott(_Identity(17))
    # an order is path independent by construction and scans nothing
    assert is_plott(OrderChoice(17, tuple(range(17)))).is_plott


def _counted_scans(monkeypatch) -> list:
    """Record the size n of every table that the scan checks."""
    calls, scan = [], choice._violation_scan
    monkeypatch.setattr(choice, "_violation_scan", lambda table, n: (
        calls.append(n) or scan(table, n)))
    return calls


def test_a_failing_table_is_scanned_once_per_value_and_kept(monkeypatch):
    scans = _counted_scans(monkeypatch)
    other = OrderChoice(2, (1, 0))
    aggs = [Aggregate(4, blocks, (EX2_F, other)) for blocks in (((0, 1), (2, 3)), ((1, 3), (0, 2)))]
    reports = [[is_plott(agg) for _ in range(3)] for agg in aggs]
    assert scans == [2]  # EX2_F's verdict, its witness in local indices, serves all six calls
    assert (choice._verdict, EX2_F) in _kept()
    for agg, (report, *again) in zip(aggs, reports):
        assert not report.is_plott and again == [report, report]
        assert report == is_plott(_as_table(agg))  # the whole table's own witness
        b, a, element = report.heredity_witness
        block = agg.blocks[0]
        assert element == block[1] and b.mask == (1 << block[0]) | (1 << element)


def test_a_nested_aggregate_lifts_its_part_witness_twice():
    inner = Aggregate(4, ((0, 2), (1, 3)), (OrderChoice(2, (1, 0)), EX2_F))
    outer = Aggregate(6, ((0, 5), (1, 2, 3, 4)), (OrderChoice(2, (0, 1)), inner))
    report = is_plott(outer)
    assert not report.is_plott and report == is_plott(_as_table(outer))
    # EX2_F's B = {0, 1}, A = {1}, element 1 sit at inner (1, 3), then at outer (2, 4)
    b, a, element = report.heredity_witness
    assert (b, a, element) == (cs(6, 2, 4), cs(6, 4), 4)


def test_a_proven_table_is_scanned_once_per_value(monkeypatch):
    scans = _counted_scans(monkeypatch)
    assert choice._verdict.cache_info().maxsize == choice.MEMO_ENTRIES
    pair = ExplicitTable(2, (0, 1, 2, 3))
    three = _as_table(OrderChoice(3, (2, 0, 1), 2))
    blocks = ((0, 5), (1, 2, 3), (4, 6), (7, 9), (8, 10, 11))
    side = Aggregate(12, blocks, (pair, three, ExplicitTable(2, (0, 1, 2, 3)), pair,
                                  _as_table(OrderChoice(3, (2, 0, 1), 2))))
    assert is_plott(side).is_plott
    assert sorted(scans) == [2, 3]  # one scan per distinct table
    assert is_plott(side).is_plott and is_plott(three).is_plott
    assert sorted(scans) == [2, 3]
    assert len(choice._verdict) == 2


def _kept():
    """The (memo, key) of every entry in the memo store, least recently used first."""
    return list(choice._Memo._order.values())


def _charged() -> int:
    """The rows charged to the kept entries, counted afresh."""
    return sum(rows for _, rows, _ in choice._Memo._store.values())


def test_verdicts_are_bounded_in_functions_and_in_table_rows(monkeypatch):
    scans = _counted_scans(monkeypatch)
    rng = random.Random(5)
    rows = 1 << choice.EXHAUSTIVE_CAP
    tables = [_as_table(OrderChoice(16, tuple(rng.sample(range(16), 16)), 2)) for _ in range(6)]
    choice_table.cache_clear()
    for table in tables:  # each check keeps its verdict and the table it scanned
        assert is_plott(table).is_plott
        assert choice._Memo._rows == _charged() <= choice.MEMO_ROWS
    # 2^19 rows: the last two tables (2^17 rows each) and the last three verdicts (2^16)
    assert choice.MEMO_ROWS == 8 * rows
    assert (len(choice_table), len(choice._verdict)) == (2, 3)
    assert is_plott(tables[-1]).is_plott and len(scans) == 6  # the newest is kept
    assert is_plott(tables[0]).is_plott and len(scans) == 7  # the oldest is not
    small = [EX2_G, _as_table(ORD3_G), _as_table(EX1_F)]
    choice._verdict.cache_clear()
    choice_table.cache_clear()
    assert choice._Memo._rows == 0
    monkeypatch.setattr(choice, "MEMO_ENTRIES", 2)
    for table in small:
        assert is_plott(table).is_plott
    # the two newest: the 6-contract table and its verdict; each check keeps its table first
    assert _kept() == [(choice_table, small[2]), (choice._verdict, small[2])]
    assert choice._Memo._rows == _charged() == 2 * 64 + 64


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.one_of(selection_tables(n), structural_functions(n))))
def test_the_scan_agrees_with_the_definition(cf):
    n = cf.universe_size
    clean = choice._violation_scan(choice_table(cf), n) is None
    assert clean == _definition_plott(cf)


def test_threads_sharing_the_verdict_store_keep_it_within_its_bounds():
    tables = [EX2_F, EX2_G, _as_table(ORD3_G), _as_table(EX1_F), _as_table(EX1_G),
              _as_table(OrderChoice(7, (6, 0, 5, 1, 4, 2, 3), 2))]
    verdicts = [is_plott(t) for t in tables]
    answers = [(choice_table(t), None, None) if not v.is_plott else
               (choice_table(t), decompose_into_orders(t), reconstruct_choice(DerivedLehmann(t)))
               for t, v in zip(tables, verdicts)]
    for memo in (choice._verdict, choice_table, choice._decomposition):
        memo.cache_clear()

    def ask(seed):
        rng = random.Random(seed)
        for _ in range(300):
            i = rng.randrange(len(tables))
            table, orders, rebuilt = answers[i]
            assert is_plott(tables[i]) == verdicts[i]
            assert np.array_equal(choice_table(tables[i]), table)
            if orders is not None:
                assert decompose_into_orders(tables[i]) == orders
                assert reconstruct_choice(DerivedLehmann(tables[i])) == rebuilt

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(choice, "MEMO_ENTRIES", 2), ThreadPoolExecutor(4) as pool:
            list(pool.map(ask, range(4)))  # evicting on nearly every miss
    finally:
        sys.setswitchinterval(interval)
    assert len(_kept()) == len(choice._Memo._store) <= 2
    assert choice._Memo._rows == _charged()
    memos = (choice._verdict, choice_table, choice._decomposition,
             hyperorders._audited, hyperorders._rebuilt)
    assert sum(memo.cache_info().currsize for memo in memos) == len(_kept())


def test_a_table_over_the_cap_is_refused_on_every_call():
    wide = _Identity(17)
    aggregate = Aggregate(18, ((0,), tuple(range(1, 18))), (OrderChoice(1, (0,)), wide))
    refused = r"^exhaustive check needs universe_size <= 16, got 17$"
    for _ in range(3):
        for cf in (wide, aggregate):
            with pytest.raises(CapExceeded, match=refused):
                is_plott(cf)
    assert choice._verdict.cache_info().misses == 0  # refused before the memo is read


def test_non_plott_agent_in_a_large_aggregate_is_rejected_under_every_seed():
    # a 14-contract top-one order, except that the full block keeps its best
    # two: every violation needs the whole block, which random probes rarely
    # draw; the exact check takes no seed, so one call stands for all of them
    k = 14
    full = (1 << k) - 1
    best_two = ExplicitTable(k, tuple(0b11 if m == full else m & -m for m in range(1 << k)))
    block = tuple(range(1, 43, 3))
    rest = [g for g in range(44) if g not in block]
    blocks = (tuple(rest[:10]), block, tuple(rest[10:20]), tuple(rest[20:]))
    parts = (OrderChoice(10, tuple(range(9, -1, -1))), best_two,
             OrderChoice(10, tuple(range(10)), 2), OrderChoice.by_utility(tuple(range(10))))
    agg = Aggregate(44, blocks, parts)
    block_mask = sum(1 << g for g in block)
    report = is_plott(agg)
    assert not report.is_plott
    b, a, element = report.heredity_witness
    assert b.mask & ~block_mask == 0 and a < b and len(b) - len(a) == 1
    assert element in agg.choose(b) and element in a and element not in agg.choose(a)


@st.composite
def orders(draw, n):
    return tuple(draw(st.permutations(range(n))))


@st.composite
def structural_functions(draw, n):
    """An order, quota, utility or union function on n contracts."""
    kind = draw(st.sampled_from(("order", "quota", "utility", "union")))
    if kind == "order":
        return OrderChoice(n, draw(orders(n)), 1, draw(st.integers(0, (1 << n) - 1)))
    if kind == "quota":
        return OrderChoice(n, draw(orders(n)), draw(st.integers(0, n)),
                           draw(st.integers(0, (1 << n) - 1)))
    if kind == "utility":
        return OrderChoice.by_utility(draw(st.lists(st.integers(-3, 5), min_size=n,
                                                    max_size=n)))
    return union(draw(st.lists(structural_functions(n), min_size=1, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10).flatmap(structural_functions))
def test_by_construction_verdict_matches_a_table_scan(cf):
    report = is_plott(cf)
    assert report.is_plott
    assert report == is_plott(_as_table(cf))


@st.composite
def aggregates_with_a_bad_block(draw):
    """Aggregates of at most 12 contracts, ascending blocks interleaved in global order."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n = sum(sizes)
    places = draw(st.permutations(range(n)))
    blocks, parts, start = [], [], 0
    for k in sizes:
        blocks.append(tuple(sorted(places[start:start + k])))
        start += k
        if draw(st.booleans()):
            parts.append(draw(selection_tables(k)))
        else:
            parts.append(draw(structural_functions(k)))
    assume(any(not is_plott(p).is_plott for p in parts))
    return Aggregate(n, tuple(blocks), tuple(parts))


@settings(max_examples=80, deadline=None)
@given(aggregates_with_a_bad_block())
def test_lifted_witness_equals_the_whole_table_witness(agg):
    report = is_plott(agg)
    assert not report.is_plott
    assert report == is_plott(_as_table(agg))


@st.composite
def places(draw, top):
    """Distinct global indices up to ``top``, a few runs of consecutive ones in shuffled order."""
    cuts = sorted(draw(st.lists(st.integers(0, top + 1), min_size=2, max_size=12, unique=True)))
    runs = draw(st.permutations([range(a, b) for a, b in zip(cuts[::2], cuts[1::2])]))
    return tuple(g for run in runs for g in run)


@settings(max_examples=150, deadline=None)
@given(st.data())
@pytest.mark.parametrize("top", (200, 62))
def test_scatter_and_gather_are_the_one_lift(top, data):
    place = data.draw(places(top))
    k = len(place)
    masks = data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=8))
    wide = data.draw(st.lists(st.integers(0, (1 << top + 1) - 1), min_size=1, max_size=8))
    for m in masks:
        assert _scatter(m, place) == sum(1 << place[j] for j in range(k) if m >> j & 1)
        assert _gather(_scatter(m, place), place) == m
    for g in wide:  # bits outside place are dropped
        assert _gather(g, place) == sum(1 << j for j in range(k) if g >> place[j] & 1)
    if top <= 62:  # the int64 array form agrees with the int form on every element
        local, glob = (np.array(xs, dtype=np.int64) for xs in (masks, wide))
        assert _scatter(local, place).tolist() == [_scatter(m, place) for m in masks]
        assert _gather(glob, place).tolist() == [_gather(g, place) for g in wide]


def _reference_heredity_scan(table, n):
    """Least (B, A=B∖{c}, element) violating Heredity, in (B, c) order, the least element.

    The separate Heredity scan that the one-pass scan replaced, kept as the
    reference for its witnesses.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    best = None
    for c in range(n):
        bit = 1 << c
        rows = masks[(masks & bit) != 0]
        subs = rows ^ bit
        bad = table[rows] & subs & ~table[subs]
        hits = np.nonzero(bad)[0]
        if hits.size:
            k = hits[np.argmin(rows[hits])]
            b = int(rows[k])
            if best is None or (b, c) < best[:2]:
                best = (b, c, int(bad[k]))
    if best is None:
        return None
    b, c, offending = best
    element = min(j for j in range(n) if offending >> j & 1)
    return b, b ^ (1 << c), element


def _reference_outcast_scan(table, n):
    """Least (X, Y=X∖{c}) violating Outcast, in (X, c) order."""
    masks = np.arange(1 << n, dtype=np.int64)
    best = None
    for c in range(n):
        bit = 1 << c
        rows = masks[((masks & bit) != 0) & ((table & bit) == 0)]
        subs = rows ^ bit
        bad = table[subs] != table[rows]
        hits = np.nonzero(bad)[0]
        if hits.size:
            x = int(rows[hits[np.argmin(rows[hits])]])
            if best is None or (x, c) < best:
                best = (x, c)
    if best is None:
        return None
    x, c = best
    return x, x ^ (1 << c)


def _reference_report(agg: Aggregate) -> PlottReport:
    """is_plott of an aggregate of tables: each part scanned for Heredity,
    then Outcast, its witness lifted, the least one reported."""
    hits = []
    for block, part in zip(agg.blocks, agg.parts):
        table, k = choice_table(part), part.universe_size
        hit = _reference_heredity_scan(table, k)
        if hit is not None:
            b, a, element = hit
            hits.append((0, _scatter(b, block), _scatter(a, block), block[element]))
            continue
        hit = _reference_outcast_scan(table, k)
        if hit is not None:
            x, y = hit
            hits.append((1, _scatter(x, block), _scatter(y, block)))
    if not hits:
        return PlottReport(True)
    n, hit = agg.universe_size, min(hits)
    if hit[0] == 0:
        return PlottReport(False, heredity_witness=(ContractSet(n, hit[1]),
                                                    ContractSet(n, hit[2]), hit[3]))
    return PlottReport(False, outcast_witness=(ContractSet(n, hit[1]), ContractSet(n, hit[2])))


@st.composite
def dominance_tables(draw, n):
    """G(X) = the members of X that no member of X beats, under a random
    relation: Heredity holds, Outcast fails unless the relation is
    transitive enough."""
    beaten_by = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return ExplicitTable(n, tuple(sum(1 << c for c in range(n) if x >> c & 1
                                      and not x & beaten_by[c] & ~(1 << c))
                                  for x in range(1 << n)))


@st.composite
def table_parts_aggregates(draw):
    """Aggregates of explicit tables of up to 6 contracts, ascending blocks interleaved.

    Two in five tables are random, and then rarely path independent; the
    rest satisfy Heredity by construction, choose all of any set of at
    least m contracts and nothing from smaller ones (a Heredity violation
    with m - 1 offending elements), or write out an order, quota, utility
    or union.
    """
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    n = sum(sizes)
    places = draw(st.permutations(range(n)))
    blocks, parts, start = [], [], 0
    for k in sizes:
        blocks.append(tuple(sorted(places[start:start + k])))
        start += k
        kind = draw(st.sampled_from(("random", "random", "dominance", "threshold",
                                     "structural")))
        if kind == "random":
            parts.append(draw(selection_tables(k)))
        elif kind == "dominance":
            parts.append(draw(dominance_tables(k)))
        elif kind == "threshold":
            m = draw(st.integers(1, max(k, 1)))
            parts.append(ExplicitTable(k, tuple(x if x.bit_count() >= m else 0
                                                for x in range(1 << k))))
        else:
            parts.append(_as_table(draw(structural_functions(k))))
    return Aggregate(n, tuple(blocks), tuple(parts))


@settings(max_examples=300, deadline=None)
@given(table_parts_aggregates())
def test_one_pass_scan_reports_the_separate_scans_witness(agg):
    assert is_plott(agg) == _reference_report(agg)
    for block, part in zip(agg.blocks, agg.parts):
        assert is_plott(part) == _reference_report(
            Aggregate(len(block), (tuple(range(len(block))),), (part,)))


@given(selection_tables())
def test_exhaustive_check_agrees_with_the_definition(cf):
    assert is_plott(cf).is_plott == _definition_plott(cf)


@given(plott_sides())
def test_generated_unions_are_path_independent(sides):
    assert _definition_plott(sides.F) and _definition_plott(sides.G)


# ---------------------------------------------------------------------------
# compiled aggregates
# ---------------------------------------------------------------------------


@st.composite
def mixed_aggregates(draw):
    """Aggregates of at most 12 contracts over every kind of part.

    Ascending blocks interleave in global order; empty agents, as
    aggregate_sides builds them, are mixed in.
    """
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    n = sum(sizes)
    places = draw(st.permutations(range(n)))
    blocks, parts, start = [], [], 0
    for k in sizes:
        blocks.append(tuple(sorted(places[start:start + k])))
        start += k
        if k == 0:
            parts.append(ExplicitTable(0, (0,)))
        elif draw(st.booleans()):
            parts.append(draw(selection_tables(k)))
        else:
            parts.append(draw(structural_functions(k)))
    return Aggregate(n, tuple(blocks), tuple(parts))


def _reference_choice(agg, xmask: int) -> int:
    """The union of each part's local choice, gathered and lifted by hand."""
    chosen = 0
    for block, part in zip(agg.blocks, agg.parts):
        local = sum(1 << j for j, g in enumerate(block) if xmask >> g & 1)
        picked = part._choose_mask(local)
        chosen |= sum(1 << g for j, g in enumerate(block) if picked >> j & 1)
    return chosen


@settings(max_examples=80, deadline=None)
@given(mixed_aggregates())
def test_compiled_aggregate_matches_the_local_choices(agg):
    for x in range(1 << agg.universe_size):
        assert agg._choose_mask(x) == _reference_choice(agg, x)
    for block in agg.blocks:
        mask = sum(1 << h for h in block)
        for x in range(1 << agg.universe_size):
            assert agg._gains(x) & mask == agg._gains(x & mask) & mask


@settings(max_examples=120, deadline=None)
@given(mixed_aggregates(), st.data())
def test_rechoose_equals_a_full_evaluation(agg, data):
    full, n = (1 << agg.universe_size) - 1, agg.universe_size
    blocks, parts, agent, position = side = choice._coords(agg)
    for _ in range(8):
        old, new = data.draw(st.integers(0, full)), data.draw(st.integers(0, full))
        olds, news = choice._split(side, old), choice._split(side, new)
        chosen = [part._choose_mask(x) for part, x in zip(parts, olds)]
        for a in {agent[c] for c in ContractSet(n, old ^ new)}:  # only the agents whose slice changed
            chosen[a] = parts[a]._choose_mask(news[a])
        assert choice._mask(n, choice._members(blocks, enumerate(chosen))) == agg._choose_mask(new)


def _reference_gains(agg, x: int) -> int:
    """{c ∉ x : c ∈ G(x ∪ {c})}, each choice gathered and lifted by hand."""
    return sum(1 << c for c in range(agg.universe_size)
               if not x >> c & 1 and _reference_choice(agg, x | 1 << c) >> c & 1)


@settings(max_examples=80, deadline=None)
@given(mixed_aggregates(), st.randoms(use_true_random=False))
def test_cached_rows_equal_uncached_evaluation_past_the_bound(agg, rng):
    full = (1 << agg.universe_size) - 1
    pool = [rng.randint(0, full) for _ in range(10)]  # revisited past the bound of 3
    with mock.patch.object(choice._Rows, "maxsize", 3):
        for _ in range(40):
            new, x = rng.choice(pool), rng.choice(pool)
            assert agg._choose_mask(new) == _reference_choice(agg, new)
            assert agg._choose_mask(x) == _reference_choice(agg, x)
            assert agg._gains(x) == _reference_gains(agg, x)
        info = agg.cache_info()
    assert info.hits > 0 and info.currsize <= info.maxsize == 3


def _ten_contracts() -> Aggregate:
    return Aggregate(10, (tuple(range(0, 10, 2)), tuple(range(1, 10, 2))),
                     (OrderChoice(5, (3, 1, 4, 0, 2), 2),
                      OrderChoice.by_utility((4, -1, 2, 7, 0))))


def test_row_cache_counts_in_the_functools_shape():
    agg = _ten_contracts()
    maxsize = choice._Rows.maxsize
    assert type(agg.cache_info())._fields == type(choice_table.cache_info())._fields
    assert agg.cache_info() == (0, 0, maxsize, 0)
    assert agg._choose_mask(0b1011) == agg._choose_mask(0b1011) == _reference_choice(agg, 0b1011)
    assert agg._gains(0b1011) == _reference_gains(agg, 0b1011)  # gains are not kept
    assert agg.cache_info() == (1, 1, maxsize, 1)
    for x in range(1 << 10):  # four times the bound of the store; 0b1011 hits
        assert agg._choose_mask(x) == _reference_choice(agg, x)
        assert agg._gains(x) == _reference_gains(agg, x)
    assert agg.cache_info() == (2, 1024, maxsize, maxsize)
    for x in range(1024 - choice._Rows.maxsize, 1024):  # the latest rows stay
        agg._choose_mask(x)
        agg._gains(x)
    assert agg.cache_info().hits == 2 + maxsize
    agg._choose_mask(0b1011)  # dropped when its store was emptied
    assert agg.cache_info().misses == 1024 + 1


def test_threads_sharing_an_aggregate_read_only_its_rows():
    agg = _ten_contracts()
    masks = range(0, 1 << 10, 37)
    rows = {x: (_reference_choice(agg, x), _reference_gains(agg, x)) for x in masks}

    def ask(seed):
        rng = random.Random(seed)
        for _ in range(2000):
            x, y = rng.choice(masks), rng.choice(masks)
            assert (agg._choose_mask(x), agg._gains(x)) == rows[x]
            assert agg._choose_mask(y) == rows[y][0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(choice._Rows, "maxsize", 2), ThreadPoolExecutor(4) as pool:
            list(pool.map(ask, range(4)))  # emptying a store on nearly every miss
    finally:
        sys.setswitchinterval(interval)
    assert agg.cache_info().currsize <= 2


def test_a_copied_aggregate_carries_its_fields_not_its_kernels_or_rows(market_text):
    side = aggregate_sides(parse_instance(market_text(900, 300, 3, seed=1)), certify=False).F
    n = side.universe_size
    assert n == 2700
    masks = [0, 0b1011, (1 << n) - 1, random.Random(n).getrandbits(n)]
    answers = [(side._choose_mask(x), side._gains(x)) for x in masks]
    assert side.cache_info().currsize == len(masks)
    fields = (side.universe_size, side.blocks, side.parts)
    assert len(pickle.dumps(side)) <= 2 * len(pickle.dumps(fields))
    for copied in (pickle.loads(pickle.dumps(side)), copy.copy(side), copy.deepcopy(side)):
        assert copied == side and hash(copied) == hash(side)
        assert copied.cache_info().currsize == 0
        assert [(copied._choose_mask(x), copied._gains(x)) for x in masks] == answers


@st.composite
def table_aggregates(draw):
    """Aggregates of at most 12 contracts, for whole side tables (`Aggregate._table`).

    Ascending blocks interleave in global order and may be empty, or be absent
    (n = 0); a part is a selection table, an order, quota, utility or union
    function, the generic fallback, or an aggregate of two sub-blocks.
    """
    sizes = draw(st.lists(st.integers(0, 4), max_size=3))
    n = sum(sizes)
    places = draw(st.permutations(range(n)))
    blocks, parts, start = [], [], 0
    for k in sizes:
        blocks.append(tuple(sorted(places[start:start + k])))
        start += k
        kind = draw(st.sampled_from(("table", "structural", "generic", "aggregate")))
        if kind == "table":
            parts.append(draw(selection_tables(k)))
        elif kind == "structural":
            parts.append(draw(structural_functions(k)))
        elif kind == "generic":
            parts.append(_Identity(k))
        else:
            local, cut = draw(st.permutations(range(k))), draw(st.integers(0, k))
            parts.append(Aggregate(k, (tuple(sorted(local[:cut])), tuple(sorted(local[cut:]))),
                                   (draw(selection_tables(cut)),
                                    draw(structural_functions(k - cut)))))
    return Aggregate(n, tuple(blocks), tuple(parts))


@settings(max_examples=120, deadline=None)
@given(table_aggregates())
# blocks made of several runs of consecutive contracts, interleaved
@example(Aggregate(8, ((0, 1, 5, 6), (2, 3, 4), (7,)),
                   (OrderChoice(4, (2, 0, 3, 1), 2, 0b1011),
                    ExplicitTable(3, (0, 1, 0, 1, 4, 5, 4, 2)), _Identity(1))))
@example(Aggregate(9, ((7,), (2, 3, 4, 8), (0, 1, 5, 6)),
                   (OrderChoice(1, (0,)), union([OrderChoice(4, (3, 1, 0, 2), 1, 0b1110),
                                                 OrderChoice(4, (0, 1, 2, 3), 3)]),
                    Aggregate(4, ((2, 3), (0, 1)), (_Identity(2), EX2_F)))))
def test_aggregate_table_matches_each_subset(agg):
    size = 1 << agg.universe_size
    table = agg._table(np.arange(size, dtype=np.int64))
    assert table.dtype == np.int64 and table.shape == (size,)
    assert table.tolist() == [agg._choose_mask(x) for x in range(size)]


def test_compiled_quota_edges():
    order = (2, 0, 1)
    for q, acceptable in ((0, 0b111), (1, 0b011), (3, 0b110), (5, 0b111)):
        part = OrderChoice(3, order, q, acceptable)
        agg = Aggregate(5, ((1, 3, 4), (0, 2)), (part, ExplicitTable(2, (0, 1, 2, 1))))
        for x in range(32):
            assert agg._choose_mask(x) == _reference_choice(agg, x)
    assert ORD3_G._gains(0b010) == 0b100


def _gains_reference(cf, x: int) -> int:
    """{c ∉ x : c ∈ G(x ∪ {c})}, one whole evaluation per outside contract."""
    return sum(1 << c for c in range(cf.universe_size)
               if not x >> c & 1 and cf._choose_mask(x | 1 << c) >> c & 1)


def _assert_gains_on_every_mask(cf):
    for x in range(1 << cf.universe_size):
        assert cf._gains(x) == _gains_reference(cf, x)


@settings(max_examples=80, deadline=None)
@given(st.one_of(mixed_aggregates(), table_aggregates()))
def test_aggregate_gains_are_the_definition(agg):
    _assert_gains_on_every_mask(agg)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.one_of(structural_functions(n),
                                                     selection_tables(n))))
def test_gains_of_orders_unions_and_tables_are_the_definition(cf):
    _assert_gains_on_every_mask(cf)


def test_gains_edges():
    order = (2, 0, 1)
    for q, acceptable in ((0, 0b111), (3, 0b111), (5, 0b101), (2, 0), (1, 0b010)):
        part = OrderChoice(3, order, q, acceptable)
        agg = Aggregate(5, ((1, 3, 4), (0, 2)), (part, ExplicitTable(2, (0, 1, 2, 1))))
        for cf in (part, union([part, ORD3_G]), agg):
            _assert_gains_on_every_mask(cf)
    assert OrderChoice(3, order, 0)._gains(0) == 0
    assert OrderChoice(3, order, 2, 0)._gains(0) == 0
    assert OrderChoice(3, order, 5)._gains(0b100) == 0b011  # every outsider joins


def _top_reference(order, quota: int, acceptable: int, x: int) -> int:
    """The first ``quota`` acceptable members of x along ``order``."""
    picked = [c for c in order if x >> c & 1 and acceptable >> c & 1][:quota]
    return sum(1 << c for c in picked)


def _utility_reference(utilities, x: int) -> int:
    """The member of x of highest utility u ≥ 0, the lowest index on ties."""
    offered = [i for i in range(len(utilities)) if x >> i & 1 and utilities[i] >= 0]
    return 1 << max(offered, key=lambda i: (utilities[i], -i)) if offered else 0


UTILITIES = st.one_of(st.integers(-2, 2),
                      st.sampled_from((0.0, -0.0, 1.5, -0.5, math.inf, -math.inf)))


@st.composite
def order_choices(draw):
    """An OrderChoice and its reference choice.

    Built from an order (q = 0 and q > k included) or from utilities (ties,
    negatives, -0.0 and infinities).
    """
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        utilities = tuple(draw(st.lists(UTILITIES, min_size=n, max_size=n)))
        return OrderChoice.by_utility(utilities), partial(_utility_reference, utilities)
    order = draw(orders(n))
    quota = draw(st.integers(0, n + 2))
    acceptable = draw(st.integers(0, (1 << n) - 1))
    return (OrderChoice(n, order, quota, acceptable),
            partial(_top_reference, order, quota, acceptable))


@settings(max_examples=150, deadline=None)
@given(order_choices(), st.data())
def test_order_choice_matches_an_independent_reference(case, data):
    cf, reference = case
    n = cf.universe_size
    # compiled inside an aggregate, interleaved with two contracts of another agent
    shuffled = data.draw(st.permutations(range(n + 2)))
    place, rest = tuple(sorted(shuffled[:n])), tuple(sorted(shuffled[n:]))
    other = sum(1 << g for g in rest)
    agg = Aggregate(n + 2, (place, rest), (cf, OrderChoice(2, (1, 0))))
    table = choice_table(cf)

    def lift(m):
        return sum(1 << place[j] for j in range(n) if m >> j & 1)

    for x in range(1 << n):
        expected = reference(x)
        assert cf._choose_mask(x) == expected
        assert int(table[x]) == expected
        assert agg._choose_mask(lift(x) | other) & ~other == lift(expected)


# ---------------------------------------------------------------------------
# closure, nil, inversion
# ---------------------------------------------------------------------------


def test_closure_examples():
    assert closure_star(ORD3_G, cs(3, 1)) == cs(3, 0, 1)
    assert closure_star(EX1_F, cs(6, 2)) == cs(6, 0, 1, 2, 3, 5)
    with pytest.raises(UniverseMismatch):
        closure_star(ORD3_G, cs(2, 0))
    with pytest.raises(UniverseMismatch):
        invert_closure(ORD3_G, cs(2, 0))


def test_nil_sets():
    assert nil_set(EX1_F) == cs(6, 3)
    assert nil_set(EX1_G) == cs(6, 4)
    assert nil_set(ORD3_G) == cs(3)
    assert nil_set(OrderChoice(3, (0, 1, 2), 1, 0b001)) == cs(3, 1, 2)


def test_nil_is_neutral():
    nil = nil_set(EX1_F).mask
    for x in range(64):
        base = EX1_F._choose_mask(x)
        assert EX1_F._choose_mask(x | nil) == base
        assert EX1_F._choose_mask(x & ~nil) == base


def test_invert_closure_recovers_the_choice():
    for cf in (EX2_G, EX1_F, ORD3_G, OrderChoice(3, (0, 1, 2), 2)):
        n = cf.universe_size
        for m in range(1 << n):
            x = ContractSet(n, m)
            assert invert_closure(cf, x) == cf.choose(x)


def test_closure_axioms_on_fixtures():
    for cf in (EX2_G, EX1_F, EX1_G, ORD3_G):
        n = cf.universe_size
        for m in range(1 << n):
            x = ContractSet(n, m)
            star = closure_star(cf, x)
            assert x <= star
            assert closure_star(cf, star) == star
            for c in x.complement():
                assert star <= closure_star(cf, x.add(c))


@given(plott_sides())
@settings(max_examples=50)
def test_closure_is_the_largest_same_choice_superset(sides):
    cf = sides.F
    n = cf.universe_size
    for m in range(1 << n):
        star = closure_star(cf, ContractSet(n, m)).mask
        peers = [s for s in range(1 << n)
                 if s & m == m and cf._choose_mask(s) == cf._choose_mask(m)]
        assert star in peers
        for s in peers:
            assert s & ~star == 0


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_decompose_single_order():
    orders = decompose_into_orders(ORD3_G)
    assert len(orders) == 1
    assert orders[0].order == (2, 1, 0)
    assert orders[0].acceptable_mask == 0b111


def test_decompose_quota():
    orders = decompose_into_orders(OrderChoice(3, (0, 1, 2), 2))
    assert [o.order for o in orders] == [(1, 2, 0), (0, 2, 1)]
    assert all(o.acceptable_mask == 0b111 for o in orders)


def test_decompose_puts_nil_last_and_marks_it_unacceptable():
    orders = decompose_into_orders(EX1_F)
    assert [o.order for o in orders] == [(4, 2, 1, 5, 0, 3)]
    assert orders[0].acceptable_mask == 0b110111
    assert orders[0].order[-1] == 3  # the nil contract trails


def test_decompose_degenerate_and_errors():
    assert decompose_into_orders(ExplicitTable(2, (0, 0, 0, 0))) == []
    with pytest.raises(NotCertified, match="^cannot decompose: function is not path-independent$"):
        decompose_into_orders(EX2_F)
    with pytest.raises(CapExceeded, match=r"^decomposition needs universe_size <= 16, got 17$"):
        decompose_into_orders(OrderChoice(17, tuple(range(17))))


def _assert_exact_decomposition(cf, orders):
    """On every subset: the union is cf, each order is pointwise inferior,
    and the Nil contracts come last, unacceptable."""
    n = cf.universe_size
    table = choice_table(cf)
    nil = nil_set(cf)
    union_table = np.zeros(1 << n, dtype=np.int64)
    for o in orders:
        ot = choice_table(o)
        assert not np.any(ot & ~table)
        union_table |= ot
        assert set(o.order[n - len(nil):]) == set(nil)
        assert o.acceptable_mask == nil.complement().mask
    assert np.array_equal(union_table, table)


@pytest.mark.parametrize("seed, n, k", [(9, 9, 3), (10, 10, 2), (11, 11, 3), (13, 13, 2),
                                        (14, 14, 1), (16, 16, 3)])
def test_decompose_unions_above_eight_contracts(seed, n, k):
    sides = generate_instance(seed, n, k)
    for cf in (sides.F, sides.G):
        orders = decompose_into_orders(cf)
        _assert_exact_decomposition(cf, orders)
        assert orders == decompose_into_orders(cf)  # deterministic


def test_decompose_a_quota_above_eight_contracts():
    # ten contracts, three of them never acceptable, quota 3
    cf = OrderChoice(10, (7, 2, 9, 0, 5, 3, 8, 1, 6, 4), 3, 0b1110101110)
    orders = decompose_into_orders(cf)
    _assert_exact_decomposition(cf, orders)
    assert nil_set(cf).mask == 0b0001010001
    assert len(orders) > 1


def test_decompose_leaves_the_table_cache_alone():
    cf = OrderChoice(5, (3, 0, 4, 1, 2), 2)
    choice_table.cache_clear()
    orders = decompose_into_orders(cf)
    assert len(orders) > 1
    assert choice_table.cache_info().currsize == 1
    hits = choice_table.cache_info().hits
    choice_table(cf)  # the one entry is the function's own table
    assert choice_table.cache_info().hits == hits + 1


def test_equal_functions_share_one_decomposition(monkeypatch):
    built = []
    covering = choice._order_covering
    monkeypatch.setattr(choice, "_order_covering",
                        lambda *args: built.append(args) or covering(*args))
    a, b = (_as_table(union([ORD3_G, OrderChoice(3, (1, 0, 2))])) for _ in range(2))
    assert a == b and a is not b
    first = decompose_into_orders(a)
    orders_built = len(built)
    assert len(first) == 2
    second = decompose_into_orders(b)
    assert second == first and second is not first and len(built) == orders_built
    first.clear()  # the caller's list is the caller's own
    assert decompose_into_orders(a) == second
    assert len(built) == orders_built


def test_decompose_raises_not_certified_on_every_call():
    for _ in range(3):
        with pytest.raises(NotCertified, match="^cannot decompose: function is not path-independent$"):
            decompose_into_orders(EX2_F)
    assert choice._decomposition.cache_info().currsize == 0


@given(plott_sides())
@settings(max_examples=50)
def test_decompose_covers_and_stays_pointwise_inferior(sides):
    cf = sides.G
    orders = decompose_into_orders(cf)
    n = cf.universe_size
    table = choice_table(cf)
    recombined = np.zeros(1 << n, dtype=np.int64)
    for o in orders:
        ot = choice_table(o)
        recombined |= ot
        for m in range(1 << n):
            assert int(ot[m]) & ~int(table[m]) == 0
    assert np.array_equal(recombined, table)
