from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plottmatch import (
    AxiomsFail,
    BlairRelation,
    CapExceeded,
    ContractSet,
    DerivedLehmann,
    ExplicitTable,
    ExtensionalLehmann,
    InternalError,
    OrderChoice,
    TableIncomplete,
    UniverseMismatch,
    audit_lehmann_axioms,
    blair_leq,
    choice_table,
    closure_star,
    format_relation,
    l_operator,
    lehmann_prec,
    parse_relation,
    reconstruct_choice,
)
from plottmatch.oracle import generate_instance

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
    rel = BlairRelation(EX1_G)
    assert blair_leq(rel, cs(6, 2), cs(6, 1))
    assert blair_leq(rel, cs(6, 1), cs(6, 0))
    assert not blair_leq(rel, cs(6, 0), cs(6, 2))
    assert blair_leq(rel, cs(6, 0), cs(6, 0))
    with pytest.raises(UniverseMismatch):
        blair_leq(rel, cs(2, 0), cs(6, 0))


def test_blair_is_reflexive_and_transitive():
    for cf in SMALL_PLOTT:
        n = cf.universe_size
        rel = BlairRelation(cf)
        sets = [ContractSet(n, m) for m in range(1 << n)]
        for a in sets:
            assert blair_leq(rel, a, a)
        for a in sets:
            for b in sets:
                for c in sets:
                    if blair_leq(rel, a, b) and blair_leq(rel, b, c):
                        assert blair_leq(rel, a, c)


def test_blair_union_consistency():
    # a hyper-order: two sets below B put their union below B
    for cf in SMALL_PLOTT:
        n = cf.universe_size
        sets = [ContractSet(n, m) for m in range(1 << n)]
        rel = BlairRelation(cf)
        for a in sets:
            for b in sets:
                for target in sets:
                    if blair_leq(rel, a, target) and blair_leq(rel, b, target):
                        assert blair_leq(rel, a | b, target)


def test_blair_equals_closure_membership():
    for cf in SMALL_PLOTT:
        n = cf.universe_size
        rel = BlairRelation(cf)
        for am in range(1 << n):
            for bm in range(1 << n):
                a, b = ContractSet(n, am), ContractSet(n, bm)
                assert blair_leq(rel, a, b) == (a <= closure_star(cf, b))


def test_blair_assert_catches_non_plott_input():
    broken = DerivedLehmann(ExplicitTable(2, (0, 1, 0, 0)))
    with pytest.raises(InternalError):
        blair_leq(BlairRelation(broken.cf), cs(2, 1), cs(2, 0))


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
        weak = BlairRelation(cf)
        for am in range(1 << n):
            for bm in range(1 << n):
                a, b = ContractSet(n, am), ContractSet(n, bm)
                if lehmann_prec(strict, a, b):
                    assert blair_leq(weak, a, b)


def test_lehmann_assert_catches_non_plott_input():
    rel = DerivedLehmann(ExplicitTable(2, (0, 1, 0, 0)))
    with pytest.raises(InternalError):
        lehmann_prec(rel, cs(2, 1), cs(2, 0))


def test_extensional_total_and_partial():
    total = ExtensionalLehmann.from_true_pairs(2, [(cs(2, 1), cs(2, 0, 1))])
    assert lehmann_prec(total, cs(2, 1), cs(2, 0, 1))
    assert not lehmann_prec(total, cs(2, 0), cs(2, 1))
    partial = ExtensionalLehmann(2, frozenset({(2, 3)}), frozenset({(2, 3)}))
    assert lehmann_prec(partial, cs(2, 1), cs(2, 0, 1))
    with pytest.raises(TableIncomplete):
        lehmann_prec(partial, cs(2, 0), cs(2, 1))
    with pytest.raises(TableIncomplete):
        audit_lehmann_axioms(partial)


# ---------------------------------------------------------------------------
# axiom audit
# ---------------------------------------------------------------------------


def test_audit_passes_derived_relations():
    for cf in SMALL_PLOTT + (EX1_F, EX1_G):
        report = audit_lehmann_axioms(DerivedLehmann(cf))
        assert report.overall
        assert [c.name for c in report.checks] == [
            "L0", "L1", "L2", "L3", "L4", "L5", "transitivity"]
        assert all(c.passed and c.witness is None for c in report.checks)


def test_audit_flags_the_fabricated_breach():
    # only {b} < {a,b} holds: monotonicity in both arguments breaks
    rel = ExtensionalLehmann.from_true_pairs(2, [(2, 3)])
    report = audit_lehmann_axioms(rel)
    assert not report.overall
    l1 = report.check("L1")
    assert not l1.passed
    assert l1.witness == (cs(2), cs(2, 1), cs(2, 0, 1))
    l4 = report.check("L4")
    assert not l4.passed
    assert l4.witness == (cs(2, 1), cs(2, 0))
    for name in ("L0", "L2", "L3", "L5", "transitivity"):
        assert report.check(name).passed
    with pytest.raises(KeyError):
        report.check("L9")


def test_audit_flags_a_reflexive_pair():
    rel = ExtensionalLehmann.from_true_pairs(1, [(1, 1)])
    report = audit_lehmann_axioms(rel)
    assert not report.check("L0").passed
    assert report.check("L0").witness == (cs(1, 0),)


def test_audit_cap():
    with pytest.raises(CapExceeded):
        audit_lehmann_axioms(DerivedLehmann(OrderChoice(9, tuple(range(9)))))


@given(plott_sides())
@settings(max_examples=50)
def test_audit_passes_generated_markets(sides):
    assert audit_lehmann_axioms(DerivedLehmann(sides.F)).overall
    assert audit_lehmann_axioms(DerivedLehmann(sides.G)).overall


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


def test_reconstruct_rejects_a_broken_relation():
    rel = ExtensionalLehmann.from_true_pairs(2, [(2, 3)])
    with pytest.raises(AxiomsFail) as exc_info:
        reconstruct_choice(rel)
    assert not exc_info.value.report.overall


def test_reconstruct_the_empty_relation():
    rel = ExtensionalLehmann.from_true_pairs(2, [])
    rebuilt = reconstruct_choice(rel)
    assert rebuilt.table == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_format_parse_round_trip():
    labels = ("x", "y", "z")
    rel = DerivedLehmann(ORD3_G)
    text = format_relation(rel, labels)
    parsed = parse_relation(text, labels, 3)
    for am in range(8):
        for bm in range(8):
            a, b = ContractSet(3, am), ContractSet(3, bm)
            assert lehmann_prec(parsed, a, b) == lehmann_prec(rel, a, b)


def test_format_relation_line_shape():
    rel = ExtensionalLehmann.from_true_pairs(2, [(2, 3)])
    assert format_relation(rel, ("a", "b")) == "{b} < {a,b}\n"
    assert format_relation(ExtensionalLehmann.from_true_pairs(2, [])) == ""


def test_parse_relation_comments_and_errors():
    rel = parse_relation("# nothing\n{a} < {b}  # tail\n\n", ("a", "b"), 2)
    assert lehmann_prec(rel, cs(2, 0), cs(2, 1))
    with pytest.raises(ValueError):
        parse_relation("{a} {b}", ("a", "b"), 2)
    with pytest.raises(ValueError):
        parse_relation("{q} < {b}", ("a", "b"), 2)
