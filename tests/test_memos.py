"""Every per-value memo of an exhaustive result lives in one bounded store.

``choice_table``, the Plott verdicts, the kept slices of enumeration, the
order decompositions, the Lehmann audits and the rebuilt tables are memos of
``choice._Memo``, which share one store bounded in entries and in table rows;
no ``lru_cache`` is left. The benchmark's tracer and the ``_empty_memos``
fixture read each memo's counters in ``functools``' shape.
"""

from __future__ import annotations

import gc
import random
import re
import tracemalloc
from pathlib import Path

from conftest import empty_memos, module_memos
from plottmatch import (
    ExplicitTable,
    OrderChoice,
    audit_lehmann_axioms,
    choice_table,
    decompose_into_orders,
    enumerate_stable_sets,
    is_plott,
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


def test_every_per_value_memo_is_one_of_the_store():
    memos = module_memos()
    assert sorted(memos) == ["_audited", "_decomposition", "_kept", "_rebuilt", "_verdict",
                            "choice_table"]
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
