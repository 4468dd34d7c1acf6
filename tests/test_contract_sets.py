from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plottmatch import (
    ContractSet,
    ParseError,
    UniverseMismatch,
    format_set,
    parse_instance,
    parse_set,
)
from plottmatch.choice import _bits

masks8 = st.integers(min_value=0, max_value=255)


def test_from_indices_members_and_size():
    s = ContractSet.from_indices(5, [3, 0])
    assert list(s) == [0, 3]
    assert 0 in s and 3 in s and 1 not in s
    assert len(s) == 2
    assert bool(s)


def test_empty_and_full():
    assert not ContractSet.empty(4)
    assert len(ContractSet.full(4)) == 4
    assert ContractSet.full(0) == ContractSet.empty(0)


def test_algebra():
    a = ContractSet.from_indices(4, [0, 1])
    b = ContractSet.from_indices(4, [1, 2])
    assert (a | b).indices() == (0, 1, 2)
    assert (a & b).indices() == (1,)
    assert (a - b).indices() == (0,)
    assert a.complement().indices() == (2, 3)
    assert a.add(3).indices() == (0, 1, 3)
    assert a.remove(0).indices() == (1,)


def test_subset_order():
    a = ContractSet.from_indices(4, [1])
    b = ContractSet.from_indices(4, [1, 2])
    assert a <= b and a < b
    assert not b <= a
    assert b <= b and not b < b


def test_universe_mismatch():
    with pytest.raises(UniverseMismatch):
        ContractSet.empty(3) | ContractSet.empty(4)
    with pytest.raises(UniverseMismatch):
        ContractSet.empty(3) <= ContractSet.empty(4)


def test_bad_construction():
    with pytest.raises(ValueError):
        ContractSet(2, 4)
    with pytest.raises(ValueError):
        ContractSet(-1, 0)
    with pytest.raises(ValueError):
        ContractSet.from_indices(2, [2])
    for n in range(6):
        for mask in range(-2, 1 << (n + 1)):
            if 0 <= mask < 1 << n:
                assert ContractSet(n, mask).mask == mask
            else:
                with pytest.raises(ValueError, match="outside the universe"):
                    ContractSet(n, mask)


def test_membership_outside_universe_is_false():
    s = ContractSet.full(3)
    assert 3 not in s and -1 not in s


def test_format_and_parse():
    labels = ("a", "b", "c")
    s = ContractSet.from_indices(3, [0, 2])
    assert format_set(s, labels) == "{a,c}"
    assert format_set(ContractSet.empty(3), labels) == "{}"
    assert parse_set("{a,c}", labels) == s
    assert parse_set("{ a , c }", labels) == s
    assert parse_set("{}", labels) == ContractSet.empty(3)


def test_format_without_labels_uses_indices():
    assert format_set(ContractSet.from_indices(3, [0, 2])) == "{0,2}"


def test_parse_rejects_garbage():
    with pytest.raises(ParseError, match="^expected a brace-delimited set, got 'a,c'$"):
        parse_set("a,c", ("a", "b", "c"))
    with pytest.raises(ParseError, match="^unknown contract id 'z'$"):
        parse_set("{z}", ("a", "b", "c"))


LABELS = ("a", "b", "c")
# one firm and one worker, who share the three contracts a, b, c
MARKET = "[firms] f\n[workers] w\n[contracts]\na f w\nb f w\nc f w\n[choice w] kind=order\na b c\n"


def _read(read):
    """What a reader returns, or its ParseError's message without the line prefix."""
    try:
        return read()
    except ParseError as error:
        return re.sub(r"^line \d+: ", "", str(error))


@pytest.mark.parametrize("literal", ("{}", "{ }", " {a} ", "{a,a}", "{a, b}", "{a,}", "{,}",
                                     "{z}", "a", "{a", "{a}}", "{{a}", "{a b}", "{c,b,a}"))
def test_parse_set_reads_a_literal_as_the_instance_file_does(literal):
    expected = _read(lambda: parse_set(literal, LABELS).mask)
    if literal == literal.strip():  # a header literal cannot start or end in whitespace after "="
        header = MARKET + f"[choice f] kind=order acceptable={literal}\na b c\n"
        assert _read(lambda: parse_instance(header).spec_of("f").cf.acceptable_mask) == expected
    # a table row takes any literal: that row chooses itself, every other row nothing
    rows = [f"{format_set(ContractSet(3, x), LABELS)} -> {{}}" for x in range(8) if x != expected]
    table = MARKET + "[choice f] kind=explicit\n" + "\n".join([f"{literal} -> {literal}", *rows])
    assert _read(lambda: max(parse_instance(table).spec_of("f").cf.table)) == expected


@given(masks8, masks8)
def test_boolean_laws(a, b):
    x, y = ContractSet(8, a), ContractSet(8, b)
    assert x - y == x & y.complement()
    assert (x | y).complement() == x.complement() & y.complement()
    assert x <= (x | y) and (x & y) <= x


@given(masks8)
def test_iteration_matches_membership(m):
    s = ContractSet(8, m)
    assert set(s) == {i for i in range(8) if m >> i & 1}
    assert len(s) == bin(m).count("1")


@given(masks8)
def test_complement_involution(m):
    s = ContractSet(8, m)
    assert s.complement().complement() == s


@pytest.mark.parametrize("width", (63, 64, 65, 200))
def test_members_past_one_machine_word_come_in_ascending_order(width):
    top = 1 << width - 1
    masks = (0, 1, top, top | 1, (1 << width) - 1, 0x5555555555555555 & (top - 1) | top,
             int("1101" * width, 2) & (1 << width) - 1)
    for mask in masks:
        expected = [i for i in range(width) if mask >> i & 1]
        assert list(ContractSet(width, mask)) == expected
        assert list(_bits(mask)) == expected
        assert format_set(ContractSet(width, mask)) == "{" + ",".join(map(str, expected)) + "}"
