"""Every per-value memo of an exhaustive result lives in one bounded store.

``choice_table``, the Plott verdicts, the kept slices of enumeration, the
order decompositions, the Lehmann audits, the rebuilt tables and the parsed
agents are memos of ``choice._Memo``, which share one store bounded in
entries and in table rows; no ``lru_cache`` is left. The benchmark's tracer
and the ``_empty_memos`` fixture read each memo's counters in ``functools``'
shape.
"""

from __future__ import annotations

import gc
import random
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

from conftest import empty_memos, make_market_text, module_memos
from plottmatch import (
    ExplicitTable,
    OrderChoice,
    audit_lehmann_axioms,
    choice_table,
    decompose_into_orders,
    enumerate_stable_sets,
    is_plott,
    parse_instance,
    reconstruct_choice,
    side_pair,
    union,
)
from plottmatch import choice
from plottmatch.hyperorders import DerivedLehmann

README = Path(__file__).resolve().parent.parent / "README.md"


def _stated_mib() -> int:
    """The store's bound in MiB, as its docstring states it."""
    return int(re.search(r"at\s+most\s+(\d+)\s+MiB", choice._Memo.__doc__)[1])


def _fill_every_memo():
    cf = ExplicitTable(3, tuple(choice_table(OrderChoice(3, (2, 0, 1), 2)).tolist()))
    assert is_plott(cf).is_plott
    enumerate_stable_sets(side_pair(cf, cf))
    decompose_into_orders(cf)
    audit_lehmann_axioms(DerivedLehmann(cf))
    reconstruct_choice(DerivedLehmann(cf))
    parse_instance("[firms] f\n[workers] w\n[contracts]\na f w\n"
                   "[choice f] kind=order\na\n[choice w] kind=order\na\n")


def test_every_per_value_memo_is_one_of_the_store():
    memos = module_memos()
    assert sorted(memos) == ["_audited", "_decomposition", "_interned", "_kept", "_rebuilt",
                            "_verdict", "choice_table"]
    _fill_every_memo()
    for name, memo in memos.items():
        assert type(memo) is choice._Memo, name
        assert memo.cache_info()._fields == ("hits", "misses", "maxsize", "currsize")
        assert memo.cache_info().currsize > 0 and memo.cache_info().maxsize == choice.MEMO_ENTRIES
    empty_memos()  # what the autouse fixture runs before every test
    assert all(memo.cache_info().currsize == 0 for memo in module_memos().values())
    assert not choice._Memo._store and not choice._Memo._order and choice._Memo._rows == 0


def test_the_readme_states_the_bound_of_the_docstring():
    mib = _stated_mib()
    assert choice.MEMO_ROWS * 40 + choice.MEMO_ENTRIES * 4096 <= mib * 2**20
    assert re.search(rf"at\s+most\s+{mib}\s+MiB", README.read_text())


def test_the_store_retains_at_most_its_stated_total():
    rng = random.Random(16)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(12):  # each key holds 2^16 ints, about 1.5 MiB
            order = OrderChoice(16, tuple(rng.sample(range(16), 16)))
            table = ExplicitTable(16, tuple(choice_table(order).tolist()))
            assert is_plott(table).is_plott
            decompose_into_orders(table)
        for _ in range(8):  # audits and rebuilt tables at the audit cap
            pair = [OrderChoice(8, tuple(rng.sample(range(8), 8)), q) for q in (1, 2)]
            rel = DerivedLehmann(ExplicitTable(8, tuple(choice_table(union(pair)).tolist())))
            assert audit_lehmann_axioms(rel).overall
            reconstruct_choice(rel)
        del order, table, pair, rel
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= _stated_mib() * 2**20, f"{retained / 2**20:.1f} MiB"
    assert 0 < choice._Memo._rows <= choice.MEMO_ROWS


MIXED_KINDS = ("order", "utility", "explicit", "quota")
TEXTS = [make_market_text(5, 3, 2, seed, MIXED_KINDS, MIXED_KINDS) for seed in range(4)]


def _charged_rows():
    """The rows charged to every kept entry, counted afresh."""
    return sum(rows for _, rows, _ in choice._Memo._store.values())


def test_a_two_entry_store_keeps_its_bounds_and_parses_as_an_empty_one(monkeypatch):
    fresh = []
    for text in TEXTS:
        empty_memos()
        fresh.append(parse_instance(text))
    monkeypatch.setattr(choice, "MEMO_ENTRIES", 2)
    for _ in range(2):
        for text, expected in zip(TEXTS, fresh):
            assert parse_instance(text) == expected
            assert len(choice._Memo._store) == len(choice._Memo._order) <= 2
            assert choice._Memo._rows == _charged_rows()
            for (memo, key), (cf, rows, _) in choice._Memo._store.items():
                k = cf.universe_size
                assert memo is choice._interned and key[0](*key[1:]) == cf
                assert rows == (1 << k if type(cf) is ExplicitTable else 2 * k + k * k // 512)
    assert choice._interned.cache_info().currsize == len(choice._Memo._store)


def _repeating_text() -> str:
    """Twelve one-contract workers of three functions, each twice in a row, and one firm."""
    bodies = {"order": ["c{i}"], "explicit": ["{{}} -> {{}}", "{{c{i}}} -> {{c{i}}}"],
              "utility": []}
    lines = ["[firms] f", "[workers] " + " ".join(f"w{i}" for i in range(12)), "[contracts]",
             *(f"c{i} f w{i} 1 1" for i in range(12)),
             "[choice f] kind=order", " ".join(f"c{i}" for i in range(12))]
    for i, kind in enumerate(["order", "order", "explicit", "explicit", "utility", "utility"] * 2):
        lines += [f"[choice w{i}] kind={kind}", *(line.format(i=i) for line in bodies[kind])]
    return "\n".join(lines) + "\n"


def test_threads_parsing_through_an_evicting_store_read_only_its_agents():
    text = _repeating_text()
    expected = parse_instance(text)
    assert choice._interned.cache_info()[:2] == (9, 4)  # four keys, two entries evict
    empty_memos()

    def parse(_):
        for _ in range(150):
            assert parse_instance(text) == expected

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(choice, "MEMO_ENTRIES", 2), ThreadPoolExecutor(4) as pool:
            list(pool.map(parse, range(4), timeout=120))  # evicting on nearly every miss
    finally:
        sys.setswitchinterval(interval)
    assert len(choice._Memo._store) == len(choice._Memo._order) <= 2
    assert choice._Memo._rows == _charged_rows()
    info = choice._interned.cache_info()
    assert info.currsize == len(choice._Memo._store) and info.hits > 0 and info.misses > 0


def test_a_hit_on_an_entry_dropped_meanwhile_still_returns_its_value(monkeypatch):
    cf = parse_instance(TEXTS[0]).specs[0].cf
    key = next(key for (memo, key), entry in choice._Memo._store.items()
               if memo is choice._interned and entry[0] is cf)
    order = choice._Memo._order
    move = order.move_to_end

    def dropped_then_moved(ticket):
        """Another thread drops every entry between the hit's read and its move."""
        choice._interned.cache_clear()
        move(ticket)

    monkeypatch.setattr(order, "move_to_end", dropped_then_moved, raising=False)
    assert choice._interned(key) is cf
    assert not choice._Memo._store and not order and choice._Memo._rows == 0


def test_a_hit_takes_no_lock(monkeypatch):
    cf = parse_instance(TEXTS[0]).specs[0].cf
    table = choice_table(cf)

    class Refused:
        def __enter__(self):
            raise AssertionError("a hit took the lock")

    monkeypatch.setattr(choice._Memo, "_lock", Refused())
    assert parse_instance(TEXTS[0]).specs[0].cf is cf and choice_table(cf) is table


def test_a_value_charged_past_the_row_bound_is_returned_and_not_kept(monkeypatch):
    table = choice_table(OrderChoice(2, (1, 0)))  # charged 2 << 2 rows
    rows = choice._Memo._rows
    monkeypatch.setattr(choice, "MEMO_ROWS", 64)
    key = (OrderChoice, 40, tuple(range(40)), 1, -1)  # charged 2·40 + 40²/512 = 83 rows
    for misses in (1, 2):
        assert choice._interned(key) == OrderChoice(40, tuple(range(40)))
        assert choice._interned.cache_info()[:2] == (0, misses)
    assert choice._interned.cache_info().currsize == 0 and choice._Memo._rows == rows
    assert choice_table(OrderChoice(2, (1, 0))) is table
    assert choice_table.cache_info()[::3] == (1, 1)  # one hit, one entry


def test_parsing_an_order_agent_past_the_row_bound_keeps_the_store():
    k = 16_500  # 2k + k²/512 = 564,738 rows, past MEMO_ROWS = 2^19
    table = choice_table(OrderChoice(2, (1, 0)))
    ids = " ".join(f"c{i}" for i in range(k))
    text = "\n".join(["[firms] f", "[workers] w", "[contracts]",
                      *(f"c{i} f w 1 1" for i in range(k)),
                      "[choice f] kind=order", ids, "[choice w] kind=order", ids]) + "\n"
    m = parse_instance(text)
    assert m.spec_of("f").cf.universe_size == k and m.spec_of("w").cf == m.spec_of("f").cf
    assert choice._interned.cache_info().currsize == 0
    assert len(choice._Memo._store) == choice_table.cache_info().currsize == 1
    assert choice_table(OrderChoice(2, (1, 0))) is table
