from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plottmatch import (
    AxiomsFail,
    CapExceeded,
    ContractSet,
    DerivedLehmann,
    ExplicitTable,
    ExtensionalLehmann,
    InternalError,
    OrderChoice,
    UniverseMismatch,
    audit_lehmann_axioms,
    blair_leq,
    choice_table,
    closure_star,
    lehmann_prec,
    reconstruct_choice,
)
from plottmatch import hyperorders
from plottmatch.hyperorders import AUDIT_CAP, AxiomCheck, AxiomReport
from plottmatch.oracle import generate_instance, l_operator

EX1_F = OrderChoice.by_utility((0, 10, 20, -10, 30, 5))
EX1_G = OrderChoice.by_utility((20, 10, 0, 30, -10, 5))
ORD3_G = OrderChoice(3, (2, 1, 0))
QUOTA = OrderChoice(3, (0, 1, 2), 2)
SMALL_PLOTT = (ORD3_G, QUOTA, ExplicitTable(2, (0, 1, 2, 2)))


def cs(n, *indices):
    return ContractSet.from_indices(n, indices)


@st.composite
def plott_sides(draw):
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    return generate_instance(seed, n, k)


# ---------------------------------------------------------------------------
# the two relations
# ---------------------------------------------------------------------------


def test_blair_examples():
    assert blair_leq(EX1_G, cs(6, 2), cs(6, 1))
    assert blair_leq(EX1_G, cs(6, 1), cs(6, 0))
    assert not blair_leq(EX1_G, cs(6, 0), cs(6, 2))
    assert blair_leq(EX1_G, cs(6, 0), cs(6, 0))
    with pytest.raises(UniverseMismatch):
        blair_leq(EX1_G, cs(2, 0), cs(6, 0))


def test_blair_is_reflexive_and_transitive():
    for cf in SMALL_PLOTT:
        n = cf.universe_size
        sets = [ContractSet(n, m) for m in range(1 << n)]
        for a in sets:
            assert blair_leq(cf, a, a)
        for a in sets:
            for b in sets:
                for c in sets:
                    if blair_leq(cf, a, b) and blair_leq(cf, b, c):
                        assert blair_leq(cf, a, c)


def test_blair_union_consistency():
    # a hyper-order: two sets below B put their union below B
    for cf in SMALL_PLOTT:
        n = cf.universe_size
        sets = [ContractSet(n, m) for m in range(1 << n)]
        for a in sets:
            for b in sets:
                for target in sets:
                    if blair_leq(cf, a, target) and blair_leq(cf, b, target):
                        assert blair_leq(cf, a | b, target)


def test_blair_equals_closure_membership():
    for cf in SMALL_PLOTT:
        n = cf.universe_size
        for am in range(1 << n):
            for bm in range(1 << n):
                a, b = ContractSet(n, am), ContractSet(n, bm)
                assert blair_leq(cf, a, b) == (a <= closure_star(cf, b))


def test_blair_assert_catches_non_plott_input():
    broken = DerivedLehmann(ExplicitTable(2, (0, 1, 0, 0)))
    with pytest.raises(InternalError):
        blair_leq(broken.cf, cs(2, 1), cs(2, 0))


def test_lehmann_examples():
    rel = DerivedLehmann(ORD3_G)
    assert lehmann_prec(rel, cs(3, 0), cs(3, 1))
    assert not lehmann_prec(rel, cs(3, 1), cs(3, 0))
    assert lehmann_prec(DerivedLehmann(EX1_F), cs(6, 3), cs(6, 1))
    with pytest.raises(UniverseMismatch):
        lehmann_prec(rel, cs(2, 0), cs(3, 0))


def test_lehmann_is_irreflexive():
    for cf in SMALL_PLOTT:
        n = cf.universe_size
        rel = DerivedLehmann(cf)
        for m in range(1 << n):
            assert not lehmann_prec(rel, ContractSet(n, m), ContractSet(n, m))


def test_lehmann_implies_blair():
    for cf in SMALL_PLOTT:
        n = cf.universe_size
        strict = DerivedLehmann(cf)
        for am in range(1 << n):
            for bm in range(1 << n):
                a, b = ContractSet(n, am), ContractSet(n, bm)
                if lehmann_prec(strict, a, b):
                    assert blair_leq(cf, a, b)


def test_lehmann_assert_catches_non_plott_input():
    rel = DerivedLehmann(ExplicitTable(2, (0, 1, 0, 0)))
    with pytest.raises(InternalError):
        lehmann_prec(rel, cs(2, 1), cs(2, 0))


def test_extensional_total_and_partial():
    total = ExtensionalLehmann(2, frozenset({(cs(2, 1).mask, cs(2, 0, 1).mask)}))
    assert lehmann_prec(total, cs(2, 1), cs(2, 0, 1))
    assert not lehmann_prec(total, cs(2, 0), cs(2, 1))
    # a table lists only the pairs that hold: one built from a partial list
    # is a total relation, false on every pair it leaves out, and audits
    listed = ExtensionalLehmann(2, frozenset({(2, 3)}))
    assert listed == total
    assert lehmann_prec(listed, cs(2, 1), cs(2, 0, 1))
    assert not lehmann_prec(listed, cs(2, 0), cs(2, 1))
    assert _check(audit_lehmann_axioms(listed), "L0").passed


@pytest.mark.parametrize("pair", [(-1, 1), (5, 1), (1, 4)])
def test_extensional_rejects_masks_outside_the_universe(pair):
    with pytest.raises(ValueError, match="outside the universe"):
        ExtensionalLehmann(2, frozenset({pair}))


# ---------------------------------------------------------------------------
# axiom audit
# ---------------------------------------------------------------------------


def _check(report, name):
    """The audited axiom of that name."""
    return {c.name: c for c in report.checks}[name]


def test_audit_passes_derived_relations():
    for cf in SMALL_PLOTT + (EX1_F, EX1_G):
        report = audit_lehmann_axioms(DerivedLehmann(cf))
        assert report.overall
        assert [c.name for c in report.checks] == [
            "L0", "L1", "L2", "L3", "L4", "L5", "transitivity"]
        assert all(c.passed and c.witness is None for c in report.checks)


def test_audit_flags_the_fabricated_breach():
    # only {b} < {a,b} holds: monotonicity in both arguments breaks
    rel = ExtensionalLehmann(2, frozenset({(2, 3)}))
    report = audit_lehmann_axioms(rel)
    assert not report.overall
    l1 = _check(report, "L1")
    assert not l1.passed
    assert l1.witness == (cs(2), cs(2, 1), cs(2, 0, 1))
    l4 = _check(report, "L4")
    assert not l4.passed
    assert l4.witness == (cs(2, 1), cs(2, 0))
    for name in ("L0", "L2", "L3", "L5", "transitivity"):
        assert _check(report, name).passed


def test_audit_flags_a_reflexive_pair():
    rel = ExtensionalLehmann(1, frozenset({(1, 1)}))
    report = audit_lehmann_axioms(rel)
    assert not _check(report, "L0").passed
    assert _check(report, "L0").witness == (cs(1, 0),)


def test_audit_cap():
    rel = DerivedLehmann(OrderChoice(9, tuple(range(9))))
    for call in (audit_lehmann_axioms, reconstruct_choice):
        with pytest.raises(CapExceeded, match=r"^axiom audit needs universe_size <= 8, got 9$"):
            call(rel)
        with pytest.raises(TypeError):
            call(rel, cap=9)
    assert hyperorders._audited.cache_info().misses == 0  # refused before the memo is read


@given(plott_sides())
@settings(max_examples=50)
def test_audit_passes_generated_markets(sides):
    assert audit_lehmann_axioms(DerivedLehmann(sides.F)).overall
    assert audit_lehmann_axioms(DerivedLehmann(sides.G)).overall


def _loop_first_true(condition):
    hits = np.argwhere(condition)
    return None if hits.size == 0 else tuple(int(v) for v in hits[0])


def _loop_audit(rel) -> AxiomReport:
    """The audit as one loop per contract or column, queried pair by pair."""
    n = rel.universe_size
    size = 1 << n
    p = np.array([[rel._prec_mask(a, b) for b in range(size)] for a in range(size)],
                 dtype=bool)
    masks = np.arange(size, dtype=np.int64)
    c_s = lambda m: ContractSet(n, int(m))
    checks = []
    hit = _loop_first_true(np.diagonal(p))
    checks.append(AxiomCheck("L0", hit is None, None if hit is None else (c_s(hit[0]),)))
    witness = None
    for c in range(n):
        bit = 1 << c
        rows = (masks & bit) != 0
        hit = _loop_first_true(p[rows] & ~p[masks[rows] ^ bit])
        if hit is not None:
            a = int(masks[rows][hit[0]])
            if witness is None or (a, hit[1]) < (witness[1].mask, witness[2].mask):
                witness = (c_s(a ^ bit), c_s(a), c_s(hit[1]))
    checks.append(AxiomCheck("L1", witness is None, witness))
    witness = None
    for b in range(size):
        col = p[:, b]
        trues = masks[col]
        if trues.size == 0:
            continue
        hit = _loop_first_true(~col[trues[:, None] | trues[None, :]])
        if hit is not None:
            witness = (c_s(trues[hit[0]]), c_s(trues[hit[1]]), c_s(b))
            break
    checks.append(AxiomCheck("L2", witness is None, witness))
    witness = None
    for c in range(n):
        bit = 1 << c
        cols = (masks & bit) == 0
        hit = _loop_first_true(p[:, cols] & ~p[:, masks[cols] ^ bit])
        if hit is not None:
            b = int(masks[cols][hit[1]])
            if witness is None or (hit[0], b) < (witness[0].mask, witness[1].mask):
                witness = (c_s(hit[0]), c_s(b), c_s(b | bit))
    checks.append(AxiomCheck("L3", witness is None, witness))
    unions = masks[:, None] | masks[None, :]
    for name, bad in (("L4", np.take_along_axis(p, unions, axis=1) & ~p),
                      ("L5", ~p[0][:, None] & p[0][None, :] & ~p),
                      ("transitivity", ((p.astype(np.uint8) @ p.astype(np.uint8)) > 0) & ~p)):
        hit = _loop_first_true(bad)
        checks.append(AxiomCheck(name, hit is None,
                                 None if hit is None else (c_s(hit[0]), c_s(hit[1]))))
    return AxiomReport(tuple(checks), all(c.passed for c in checks[:-1]))


def _perturbed_relations(count: int, seed: int):
    """Derived relations of generated functions of 1-5 contracts, 0-3 pairs flipped."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, 5)
        sides = generate_instance(rng.randrange(10**6), n, rng.randint(1, 3))
        base = DerivedLehmann(sides.F if i % 2 else sides.G)
        size = 1 << n
        pairs = {(a, b) for a in range(size) for b in range(size) if base._prec_mask(a, b)}
        for _ in range(rng.randint(0, 3)):
            pairs ^= {(rng.randrange(size), rng.randrange(size))}
        yield ExtensionalLehmann(n, frozenset(pairs))


def test_audit_equals_the_loop_audit_on_perturbed_relations():
    failed = {}
    for rel in _perturbed_relations(1200, seed=7):
        report = audit_lehmann_axioms(rel)
        assert report == _loop_audit(rel)
        for check in report.checks:
            failed[check.name] = failed.get(check.name, 0) + (not check.passed)
        if report.overall:
            n = rel.universe_size
            assert reconstruct_choice(rel).table == tuple(
                a & ~l_operator(rel, ContractSet(n, a)).mask for a in range(1 << n))
    assert all(failed[name] for name in
               ("L0", "L1", "L2", "L3", "L4", "L5", "transitivity")), failed


def test_audit_and_round_trip_memory_at_the_cap():
    cf = generate_instance(8, AUDIT_CAP, 3).F
    rel = DerivedLehmann(cf)
    tracemalloc.start()
    try:
        report = audit_lehmann_axioms(rel)
        rebuilt = reconstruct_choice(rel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.overall
    assert np.array_equal(choice_table(rebuilt), choice_table(cf))
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# L-operator and reconstruction
# ---------------------------------------------------------------------------


def test_l_operator_examples():
    assert l_operator(DerivedLehmann(ORD3_G), cs(3, 2)) == cs(3, 0, 1)
    rel = DerivedLehmann(EX1_F)
    assert l_operator(rel, cs(6, 1)) == cs(6, 0, 3, 5)
    # a negligible argument collects exactly the negligible contracts
    assert l_operator(rel, cs(6, 3)) == cs(6, 3)
    with pytest.raises(UniverseMismatch):
        l_operator(rel, cs(2, 0))


def test_l_operator_is_monotone_under_containment():
    # if A sits inside L(A) ∪ B then everything below A is below B
    for cf in SMALL_PLOTT:
        n = cf.universe_size
        rel = DerivedLehmann(cf)
        l_of = [l_operator(rel, ContractSet(n, m)) for m in range(1 << n)]
        for am in range(1 << n):
            for bm in range(1 << n):
                if am & ~(l_of[am].mask | bm) == 0:
                    assert l_of[am] <= l_of[bm]


def test_reconstruct_round_trips_fixtures():
    for cf in SMALL_PLOTT + (EX1_F, EX1_G):
        rebuilt = reconstruct_choice(DerivedLehmann(cf))
        assert np.array_equal(choice_table(rebuilt), choice_table(cf))


@given(plott_sides())
@settings(max_examples=50)
def test_reconstruct_round_trips_generated_markets(sides):
    for cf in (sides.F, sides.G):
        rebuilt = reconstruct_choice(DerivedLehmann(cf))
        assert np.array_equal(choice_table(rebuilt), choice_table(cf))


def _assert_rebuild_is_a_minus_l(cf):
    rel = DerivedLehmann(cf)
    n = cf.universe_size
    rebuilt = reconstruct_choice(rel)
    for a in range(1 << n):
        assert rebuilt.table[a] == a & ~l_operator(rel, ContractSet(n, a)).mask


def test_reconstruct_reads_the_l_operator():
    for cf in SMALL_PLOTT + (EX1_F, EX1_G):
        _assert_rebuild_is_a_minus_l(cf)


@given(plott_sides())
@settings(max_examples=50)
def test_reconstruct_reads_the_l_operator_on_generated_markets(sides):
    _assert_rebuild_is_a_minus_l(sides.F)
    _assert_rebuild_is_a_minus_l(sides.G)


def test_reconstruct_rejects_a_broken_relation():
    rel = ExtensionalLehmann(2, frozenset({(2, 3)}))
    report = audit_lehmann_axioms(rel)
    for _ in range(2):  # a failure is raised again, with the same report
        with pytest.raises(AxiomsFail) as exc_info:
            reconstruct_choice(rel)
        assert exc_info.value.report == report and not report.overall


def test_reconstruct_the_empty_relation():
    rel = ExtensionalLehmann(2, frozenset())
    rebuilt = reconstruct_choice(rel)
    assert rebuilt.table == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# one audit and one rebuild per relation value
# ---------------------------------------------------------------------------


def _true_pairs(cf):
    n = cf.universe_size
    rel = DerivedLehmann(cf)
    return [(a, b) for a in range(1 << n) for b in range(1 << n) if rel._prec_mask(a, b)]


def test_equal_relations_share_one_audit_and_one_rebuild(monkeypatch):
    built = []
    relation_matrix = hyperorders._relation_matrix
    monkeypatch.setattr(hyperorders, "_relation_matrix",
                        lambda rel, n: built.append(n) or relation_matrix(rel, n))
    for make in (lambda: DerivedLehmann(ExplicitTable(2, (0, 1, 2, 2))),
                 lambda: ExtensionalLehmann(3, frozenset(_true_pairs(QUOTA)))):
        a, b = make(), make()
        assert a == b and a is not b
        report, rebuilt = audit_lehmann_axioms(a), reconstruct_choice(a)
        assert report.overall
        assert audit_lehmann_axioms(b) is report
        assert reconstruct_choice(b) is rebuilt
    assert built == [2, 3]
    assert rebuilt.table == tuple(choice_table(QUOTA).tolist())


def test_memoized_relation_matrices_are_read_only():
    for rel in (DerivedLehmann(QUOTA), ExtensionalLehmann(2, frozenset({(2, 3)}))):
        p, _ = hyperorders._audited(rel)
        assert not p.flags.writeable
        with pytest.raises(ValueError):
            p[0, 0] = True


def test_reconstruct_puts_no_table_into_the_cache():
    reconstruct_choice(ExtensionalLehmann(3, frozenset(_true_pairs(QUOTA))))
    assert choice_table.cache_info().currsize == 0
    reconstruct_choice(DerivedLehmann(QUOTA))
    assert choice_table.cache_info().currsize == 1  # QUOTA's own table


def test_a_failed_certification_is_raised_on_every_call(monkeypatch):
    rel = DerivedLehmann(QUOTA)
    audit_lehmann_axioms(rel)
    monkeypatch.setattr(hyperorders, "_violation_scan", lambda table, n: (1, 3, 1))
    for _ in range(2):
        with pytest.raises(InternalError, match="reconstructed table is not path-independent"):
            reconstruct_choice(rel)
    monkeypatch.undo()
    assert reconstruct_choice(rel).table == tuple(choice_table(QUOTA).tolist())
