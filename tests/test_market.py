from __future__ import annotations

import gc
import pickle
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from conftest import empty_memos, make_market_text
from hypothesis import given, settings
from hypothesis import strategies as st
from market_reference import reference_parse

from plottmatch import (
    Aggregate,
    CapExceeded,
    ContractSet,
    ExplicitTable,
    MarketInstance,
    OrderChoice,
    ParseError,
    UnknownAgent,
    aggregate_sides,
    market,
    parse_instance,
)

FIXTURES = Path(__file__).parent / "fixtures"


def read(name: str) -> str:
    return (FIXTURES / name).read_text()


TWO_BY_TWO = """\
[firms] f1 f2
[workers] w1 w2
[contracts]
a f1 w1
b f1 w2
c f2 w1
d f2 w2
[choice f1] kind=order
a b
[choice f2] kind=order
d c
[choice w1] kind=order
c a
[choice w2] kind=order
b d
"""


def cs(n, *indices):
    return ContractSet.from_indices(n, indices)


# ---------------------------------------------------------------------------
# parsing the fixtures
# ---------------------------------------------------------------------------


def test_parse_ex2():
    m = parse_instance(read("ex2.mkt"))
    assert m.firms == ("firm1",) and m.workers == ("worker1",)
    assert m.labels == ("a", "b") and m.universe_size == 2
    worker = m.spec_of("worker1")
    assert worker.kind == "explicit" and m.block_of("worker1") == (0, 1)
    assert worker.cf == ExplicitTable(2, (0, 1, 0, 3))
    assert m.spec_of("firm1").cf == ExplicitTable(2, (0, 1, 2, 2))


def test_parse_ex1():
    m = parse_instance(read("ex1.mkt"))
    assert m.labels == ("a", "b", "c", "d", "e", "f")
    assert m.contracts[0].u_worker == 0 and m.contracts[0].u_firm == 20
    assert m.contracts[3].u_worker == -10
    assert m.spec_of("worker1").cf == OrderChoice.by_utility((0, 10, 20, -10, 30, 5))
    assert m.spec_of("firm1").cf == OrderChoice.by_utility((20, 10, 0, 30, -10, 5))


def test_parse_quota_and_orders():
    m = parse_instance(read("quota.mkt"))
    assert m.spec_of("firm1").cf == OrderChoice(3, (0, 1, 2), 2)
    assert m.spec_of("worker1").cf == OrderChoice(3, (0, 1, 2))
    m = parse_instance(read("ord3.mkt"))
    assert m.spec_of("firm1").cf == OrderChoice(3, (2, 1, 0))


def test_block_and_spec_lookup():
    m = parse_instance(TWO_BY_TWO)
    assert m.block_of("f2") == (2, 3) and m.spec_of("f2").cf == OrderChoice(2, (1, 0))
    assert m.block_of("w1") == (0, 2) and m.spec_of("w1").cf == OrderChoice(2, (1, 0))
    with pytest.raises(UnknownAgent):
        m.block_of("nobody")
    with pytest.raises(UnknownAgent):
        m.spec_of("nobody")


def test_labels_are_built_once_and_leave_equality_alone():
    m, twin = parse_instance(TWO_BY_TWO), parse_instance(TWO_BY_TWO)
    assert m.labels is m.labels
    assert m.labels == ("a", "b", "c", "d")
    assert m == twin and hash(m) == hash(twin)  # one has read its labels, the other not


MIXED_KINDS = ("order", "utility", "explicit", "quota")


def test_parsing_a_text_twice_gives_one_object_per_agent_function():
    for text in (*map(read, ("ex1.mkt", "ex2.mkt", "ord3.mkt", "quota.mkt")),
                 make_market_text(6, 3, 2, 7, MIXED_KINDS, MIXED_KINDS)):
        m, twin = parse_instance(text), parse_instance(text)
        assert {spec.kind for spec in m.specs} <= set(MIXED_KINDS)
        assert all(a.cf is b.cf for a, b in zip(m.specs, twin.specs))


def test_equal_agents_owning_differently_labelled_contracts_share_one_object():
    text = make_market_text(6, 3, 2, 11, MIXED_KINDS, MIXED_KINDS)
    relabelled = re.sub(r"\bc(\d+)\b", r"deal_\1", text)
    m, other = parse_instance(text), parse_instance(relabelled)
    assert m != other and other.labels == tuple(f"deal_{i}" for i in range(12))
    assert {spec.kind for spec in m.specs} == set(MIXED_KINDS)
    assert all(a.cf is b.cf for a, b in zip(m.specs, other.specs))


def test_shared_agents_leave_market_equality_hash_repr_and_pickle_alone():
    text = make_market_text(6, 3, 2, 13, MIXED_KINDS, MIXED_KINDS)
    m = parse_instance(text)
    empty_memos()
    fresh = parse_instance(text)  # built anew, not shared with m
    assert all(a.cf is not b.cf for a, b in zip(m.specs, fresh.specs))
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    for copied in (pickle.loads(pickle.dumps(m)), pickle.loads(pickle.dumps(fresh))):
        assert copied == m and hash(copied) == hash(m) and repr(copied) == repr(m)


def test_a_hand_built_agent_with_contracts_but_no_spec_is_unknown():
    m = parse_instance(TWO_BY_TWO)
    hand_built = MarketInstance(m.firms, m.workers, m.contracts,
                                tuple(s for s in m.specs if s.agent != "w2"))
    assert hand_built.block_of("w2") == (1, 3)
    with pytest.raises(UnknownAgent, match="no choice spec for agent 'w2'"):
        aggregate_sides(hand_built)


def test_a_hand_built_instance_takes_its_blocks_from_the_contract_lines():
    m = parse_instance(TWO_BY_TWO)
    hand_built = MarketInstance(m.firms, m.workers, m.contracts, tuple(
        market.ChoiceSpec(s.agent, s.kind, s.cf) for s in m.specs))
    assert hand_built == m
    sides = aggregate_sides(hand_built)
    assert sides.certified
    assert sides.F.blocks == ((0, 2), (1, 3)) and sides.G.blocks == ((0, 1), (2, 3))
    assert hand_built.block_of("w1") == (0, 2) and hand_built.block_of("f1") == (0, 1)


def test_a_hand_built_contract_with_an_undeclared_owner_is_unknown():
    m = parse_instance(TWO_BY_TWO)
    for stray, message in ((market.Contract("e", "f9", "w1"), "no firm named 'f9'"),
                           (market.Contract("e", "f1", "w9"), "no worker named 'w9'")):
        hand_built = MarketInstance(m.firms, m.workers, m.contracts + (stray,), m.specs)
        with pytest.raises(UnknownAgent, match=f"^{message}$"):
            hand_built.block_of("w1")
        with pytest.raises(UnknownAgent, match=f"^{message}$"):
            aggregate_sides(hand_built)


def test_a_hand_built_id_on_both_sides_is_refused_by_every_reader_of_ownership():
    m = parse_instance(TWO_BY_TWO)
    for renamed in ({"w1": "f1"}, {"w1": "f2", "w2": "f1"}):  # the least shared id is named
        workers = tuple(renamed.get(w, w) for w in m.workers)
        contracts = tuple(market.Contract(c.id, c.firm, renamed.get(c.worker, c.worker))
                          for c in m.contracts)
        hand_built = MarketInstance(m.firms, workers, contracts, m.specs)
        for call in (lambda: hand_built.block_of("f1"), lambda: aggregate_sides(hand_built)):
            with pytest.raises(ParseError, match=r"^agent id on both sides: 'f1'$") as caught:
                call()
            assert caught.type is ParseError and caught.value.line is None


def test_block_of_returns_the_block_built_once():
    m = parse_instance(TWO_BY_TWO)
    assert m.block_of("f1") is m.block_of("f1") and m.block_of("w2") is m.block_of("w2")
    assert type(m.block_of("w2")) is tuple


def test_comments_and_blank_lines_are_ignored():
    m = parse_instance("# header\n\n[firms] f1\n[workers] w1  # inline\n"
                       "[contracts]\n a f1 w1 # tail\n[choice f1] kind=order\na\n"
                       "[choice w1] kind=order\na\n")
    assert m.labels == ("a",)


def test_float_utilities():
    m = parse_instance("[firms] f1\n[workers] w1\n[contracts]\na f1 w1 1.5 -0.5\n"
                       "[choice f1] kind=order\na\n[choice w1] kind=utility\n")
    assert m.contracts[0].u_worker == 1.5 and m.contracts[0].u_firm == -0.5
    assert m.spec_of("w1").cf == OrderChoice.by_utility((1.5,))


def test_nan_utilities_are_rejected():
    # a NaN utility would break the order that makes kind=utility path independent
    with pytest.raises(ParseError, match="line 4: expected a number, got 'nan'"):
        parse_instance("[firms] f1\n[workers] w1\n[contracts]\na f1 w1 nan 1\n"
                       "[choice f1] kind=order\na\n[choice w1] kind=utility\n")


def test_agent_without_contracts_needs_no_spec():
    m = parse_instance("[firms] f1 idle\n[workers] w1\n[contracts]\na f1 w1\n"
                       "[choice f1] kind=order\na\n[choice w1] kind=order\na\n")
    assert m.firms == ("f1", "idle") and m.block_of("idle") == ()
    with pytest.raises(UnknownAgent):
        m.spec_of("idle")
    sides = aggregate_sides(m)
    assert sides.certified and sides.G.blocks == ((0,), ())
    assert sides.G.choose(cs(1, 0)) == cs(1, 0)


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------


def _expect(text, exc_type, *needles):
    with pytest.raises(exc_type) as exc_info:
        parse_instance(text)
    message = str(exc_info.value)
    for needle in needles:
        assert needle in message, (needle, message)


def test_unknown_agent_errors():
    _expect("[firms] f1\n[workers] w1\n[contracts]\nx f1 nobody\n",
            UnknownAgent, "line 4", "nobody")
    _expect("[firms] f1\n[workers] w1\n[contracts]\nx ghost w1\n",
            UnknownAgent, "line 4", "ghost")
    _expect("[firms] f1\n[workers] w1\n[contracts]\nx f1 w1\n[choice zz] kind=order\n",
            UnknownAgent, "line 5", "zz")


def test_contract_outside_block():
    text = ("[firms] f1 f2\n[workers] w1\n[contracts]\na f1 w1\nc f2 w1\n"
            "[choice f1] kind=order\na c\n"
            "[choice f2] kind=order\nc\n"
            "[choice w1] kind=order\na c\n")
    _expect(text, ParseError, "line 7", "contract 'c' belongs to another agent")


def test_partial_table():
    text = ("[firms] f1\n[workers] w1\n[contracts]\na f1 w1\n"
            "[choice f1] kind=explicit\n{} -> {}\n"
            "[choice w1] kind=order\na\n")
    _expect(text, ParseError, "line 5", "agent 'f1': table covers 1 of 2 subsets")


def test_explicit_table_over_the_cap_reads_no_row(monkeypatch):
    ids = [f"c{i}" for i in range(17)]
    text = ("[firms] f1\n[workers] w1\n[contracts]\n" + "".join(f"{c} f1 w1\n" for c in ids)
            + "[choice f1] kind=explicit\n{} -> {}\n{c0} -> {c0}\n{c1} -> {zz}\n"
            + "[choice w1] kind=order\n" + " ".join(ids) + "\n")
    reads = []
    original = market._set_mask
    monkeypatch.setattr(market, "_set_mask", lambda *args: reads.append(args) or original(*args))
    message = "^agent 'f1': explicit table needs universe_size <= 16, got 17$"
    with pytest.raises(CapExceeded, match=message):
        parse_instance(text)
    assert reads == []
    assert _outcome(reference_parse, text) == _outcome(parse_instance, text)


def test_structural_parse_errors():
    _expect("junk\n", ParseError, "line 1", "outside any section")
    _expect("[firms f1\n", ParseError, "line 1", "unterminated")
    _expect("[mystery]\n", ParseError, "line 1", "unknown section")
    _expect("[firms] f1\n[firms] f2\n", ParseError, "line 2", "duplicate [firms]")
    _expect("[firms] f1 f1\n", ParseError, "line 1", "duplicate id")
    _expect("[firms] f1\n[workers] w1\n[contracts] extra\n",
            ParseError, "line 3", "no arguments")
    _expect("[firms] f1\n[workers] w1\n[contracts]\na f1\n",
            ParseError, "line 4", "contract line")
    _expect("[firms] f1\n[workers] w1\n[contracts]\na f1 w1\na f1 w1\n",
            ParseError, "line 5", "duplicate contract id")
    _expect("[firms] f1\n[workers] w1\n[contracts]\na f1 w1 x y\n",
            ParseError, "line 4", "number")
    _expect("[firms] both\n[workers] both\n", ParseError, "line 2", "both sides")
    _expect("[workers] w1 both\n\n[firms] both\n", ParseError, "line 3", "'both'")


def test_contract_ids_that_no_set_literal_can_name():
    head = "[firms] f1\n[workers] w1\n[contracts]\nok f1 w1\n"
    for cid in ("a,b", "{a", "a}", "a->b", "->"):
        _expect(head + f"{cid} f1 w1\n", ParseError, "line 5", repr(cid))
    specs = "[choice f1] kind=order\nok a-b\n[choice w1] kind=order\na-b ok\n"
    assert parse_instance(head + "a-b f1 w1\n" + specs).labels == ("ok", "a-b")


def test_duplicate_agent_section_after_an_empty_one():
    _expect("[firms]\n[firms] f1\n", ParseError, "line 2", "duplicate [firms]")
    _expect("[workers]\n[workers] w1\n", ParseError, "line 2", "duplicate [workers]")
    _expect("[firms] f1\n[workers]\n[contracts]\n[workers] w1\n",
            ParseError, "line 4", "duplicate [workers]")


def test_choice_section_errors():
    head = "[firms] f1\n[workers] w1\n[contracts]\na f1 w1\nb f1 w1\n"
    tail = "[choice w1] kind=order\na b\n"
    _expect(head + "[choice f1]\n" + tail, ParseError, "line 6", "requires kind=")
    _expect(head + "[choice f1] kind order\n" + tail, ParseError, "key=value")
    _expect(head + "[choice f1] kind=order kind=order\n" + tail,
            ParseError, "duplicate key")
    _expect(head + "[choice f1] kind=order\na b\n[choice f1] kind=order\na b\n" + tail,
            ParseError, "duplicate [choice]")
    _expect(head + "[choice f1] kind=sorcery\na b\n" + tail,
            ParseError, "unknown kind")
    _expect(head + "[choice f1] kind=order color=red\na b\n" + tail,
            ParseError, "unknown key")
    _expect(head + "[choice f1] kind=explicit acceptable={a}\n" + tail,
            ParseError, "only applies to kind=order|quota")
    _expect(head + "[choice f1] kind=order q=2\na b\n" + tail,
            ParseError, "only applies to kind=quota")
    _expect(head + "[choice f1] kind=quota\na b\n" + tail,
            ParseError, "requires q=")
    _expect(head + "[choice f1] kind=quota q=-1\na b\n" + tail,
            ParseError, "non-negative")
    _expect(head + "[choice f1] kind=quota q=1.5\na b\n" + tail,
            ParseError, "non-negative")
    _expect(head + "[choice f1] kind=order\na\n" + tail,
            ParseError, "exactly once")
    _expect(head + "[choice f1] kind=order\na b a\n" + tail,
            ParseError, "exactly once")
    _expect(head + "[choice f1] kind=order\na b\nb a\n" + tail,
            ParseError, "expected one line")
    _expect(head + "[choice f1] kind=order\na zz\n" + tail,
            ParseError, "unknown contract id")
    _expect(head + "[choice f1] kind=utility\n" + tail,
            ParseError, "no utilities")
    _expect(head + "[choice f1] kind=utility\na b\n" + tail,
            ParseError, "takes no body")


def test_explicit_table_errors():
    head = "[firms] f1\n[workers] w1\n[contracts]\na f1 w1\n"
    tail = "[choice w1] kind=order\na\n"
    base = head + "[choice f1] kind=explicit\n"
    _expect(base + "{} => {}\n{a} -> {a}\n" + tail, ParseError,
            "line 6", "expected '{...} -> {...}'")
    _expect(base + "{} -> {}\n{} -> {}\n{a} -> {a}\n" + tail,
            ParseError, "line 7", "duplicate table row")
    _expect(base + "{} -> {a}\n{a} -> {a}\n" + tail,
            ParseError, "empty set")
    _expect(base + "a -> {a}\n" + tail, ParseError, "brace-delimited")
    text = (head + "b f1 w1\n[choice f1] kind=explicit\n"
            "{} -> {}\n{a} -> {b}\n{b} -> {b}\n{a,b} -> {a}\n" + tail)
    _expect(text, ParseError, "line 8", "outside its argument")


def test_missing_choice_section():
    _expect("[firms] f1\n[workers] w1\n[contracts]\na f1 w1\n"
            "[choice f1] kind=order\na\n",
            ParseError, "line 2", "'w1' has contracts but no [choice]")
    _expect("[workers] w1\n# firms\n[firms] f0 f1\n[contracts]\na f1 w1\n"
            "[choice w1] kind=order\na\n",
            ParseError, "line 3", "'f1' has contracts but no [choice]")


# ---------------------------------------------------------------------------
# the one-pass parser against the two-pass reference
# ---------------------------------------------------------------------------

KINDS = ("order", "quota", "utility", "explicit")
CONTRACT_ID = re.compile(r"\bc\d+\b")


def _line_kinds(lines) -> list[str]:
    """Each line's kind: header (of a choice), contract, row (of a table), order or other."""
    kinds, section = [], "other"
    for line in lines:
        if line.startswith("["):
            section = ("contract" if line == "[contracts]"
                       else "body" if line.startswith("[choice") else "other")
            kinds.append("header" if section == "body" else "other")
        elif section == "body":
            kinds.append("row" if "->" in line else "order")
        else:
            kinds.append(section)
    return kinds


def _pick(rng, lines, *kinds):
    """The index of a random line of one of the kinds, or None."""
    found = [i for i, kind in enumerate(_line_kinds(lines)) if kind in kinds]
    return rng.choice(found) if found else None


def _unknown_id(lines, rng):
    """An undeclared contract id in a choice body, or agent id in a contract or header."""
    at = _pick(rng, lines, "order", "row", "contract", "header")
    tokens = lines[at].split()
    if _line_kinds(lines)[at] == "header":
        tokens[1] = "zz]"
    elif _line_kinds(lines)[at] == "contract":
        tokens[rng.choice((1, 2))] = "zz"
    else:
        tokens = [CONTRACT_ID.sub("zz", lines[at], count=1)]
    lines[at] = " ".join(tokens)


def _foreign_contract(lines, rng):
    at, source = _pick(rng, lines, "order", "row"), _pick(rng, lines, "contract")
    if at is not None:
        lines[at] = CONTRACT_ID.sub(lines[source].split()[0], lines[at], count=1)


def _bad_brace(lines, rng):
    at = _pick(rng, lines, "row")
    if at is not None:
        cut = rng.choice([j for j, ch in enumerate(lines[at]) if ch in "{}"])
        lines[at] = lines[at][:cut] + lines[at][cut + 1:]


def _duplicate_row(lines, rng):
    at = _pick(rng, lines, "row")
    if at is not None:
        lines.insert(at, lines[at])


def _missing_row(lines, rng):
    at = _pick(rng, lines, "row")
    if at is not None:
        del lines[at]


def _bad_key(lines, rng):
    at = _pick(rng, lines, "header")
    lines[at] += rng.choice((" color=red", " q=2", " q=-1", " acceptable={}", " kind=order",
                             " q", " =x", " acceptable={zz}", " acceptable=c0",
                             " acceptable={c0, c1}", " acceptable={ }", " acceptable={c0 c1",
                             " acceptable={c0, zz} q=1"))


def _bad_number(lines, rng):
    at = _pick(rng, lines, "contract")
    tokens = lines[at].split()
    tokens[rng.choice((3, 4))] = rng.choice(("x", "nan", "1.5", "-0", "1e3", "inf", "1_0"))
    lines[at] = " ".join(tokens)


def _shared_agent(lines, rng):
    """A firm id also declared in the [workers] header."""
    firms = next(line for line in lines if line.startswith("[firms]")).split()[1:]
    at = next(i for i, line in enumerate(lines) if line.startswith("[workers]"))
    lines[at] += " " + rng.choice(firms)


def _missing_section(lines, rng):
    """A whole [choice ...] section deleted, header and body."""
    at = _pick(rng, lines, "header")
    end = next((i for i in range(at + 1, len(lines)) if lines[i].startswith("[")), len(lines))
    del lines[at:end]


CORRUPTIONS = (_unknown_id, _foreign_contract, _bad_brace, _duplicate_row, _missing_row,
               _bad_key, _bad_number, _shared_agent, _missing_section)


def _corrupted(text: str, corrupt, seed: int) -> str:
    lines = text.splitlines()
    corrupt(lines, random.Random(seed))
    return "\n".join(lines) + "\n"


@st.composite
def market_documents(draw):
    """Seeded ``make_market_text`` markets of all four kinds, some with one line corrupted."""
    firms = draw(st.integers(1, 4))
    kinds = [tuple(draw(st.permutations(KINDS)))[:draw(st.integers(1, 4))] for _ in "wf"]
    text = make_market_text(draw(st.integers(1, 5)), firms, draw(st.integers(1, min(firms, 3))),
                            draw(st.integers(0, 2**32)), *kinds)
    corrupt = draw(st.sampled_from((None, *CORRUPTIONS)))
    return text if corrupt is None else _corrupted(text, corrupt, draw(st.integers(0, 2**32)))


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(market_documents())
def test_one_pass_parser_matches_the_two_pass_reference(text):
    assert _outcome(parse_instance, text) == _outcome(reference_parse, text)


FAMILIES = ("belongs to another agent", "table covers", "no agent named", "no firm named",
            "no worker named", "agent id on both sides", "has contracts but no [choice] section")


def _family(outcome):
    """None for a parsed document, else the error's class and message family (None if other)."""
    if not isinstance(outcome, tuple):
        return None
    kind, message = outcome
    return kind, next((family for family in FAMILIES if family in message), None)


def test_the_corruptions_reach_every_parse_error_family():
    raised = set()
    for seed in range(40):
        text = make_market_text(4, 3, 2, seed, KINDS, KINDS[::-1])
        for corrupt in CORRUPTIONS:
            outcome = _outcome(reference_parse, _corrupted(text, corrupt, seed))
            assert outcome == _outcome(parse_instance, _corrupted(text, corrupt, seed))
            raised.add(_family(outcome))
    assert raised == {None, (ParseError, None),
                      (ParseError, "belongs to another agent"), (ParseError, "table covers"),
                      (ParseError, "agent id on both sides"),
                      (ParseError, "has contracts but no [choice] section"),
                      (UnknownAgent, "no agent named"), (UnknownAgent, "no firm named"),
                      (UnknownAgent, "no worker named")}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregation_is_blockwise():
    m = parse_instance(TWO_BY_TWO)
    sides = aggregate_sides(m)
    assert sides.certified
    full = ContractSet.full(4)
    assert sides.G.choose(full) == cs(4, 0, 3)  # f1 keeps a, f2 keeps d
    assert sides.F.choose(full) == cs(4, 1, 2)  # w1 keeps c, w2 keeps b
    assert sides.G.choose(cs(4, 1, 2)) == cs(4, 1, 2)


def test_aggregation_reports_the_bad_side():
    sides = aggregate_sides(parse_instance(read("ex2.mkt")))
    assert not sides.certified
    assert not sides.f_report.is_plott and sides.g_report.is_plott
    b, a, element = sides.f_report.heredity_witness
    assert (b.mask, a.mask, element) == (0b11, 0b10, 1)
    assert aggregate_sides(parse_instance(read("ex2.mkt")), certify=False).f_report is None


def test_certifying_a_large_market_evaluates_no_side(market_text, monkeypatch):
    m = parse_instance(market_text(300, 300, 3, seed=5))
    assert m.universe_size == 900
    calls = []
    original = Aggregate._choose_mask

    def counted(self, xmask):
        calls.append(xmask)
        return original(self, xmask)

    monkeypatch.setattr(Aggregate, "_choose_mask", counted)
    sides = aggregate_sides(m)
    assert sides.certified and calls == []


def _retained_per_contract(workers: int) -> float:
    """The bytes that aggregate_sides retains per contract (tracemalloc) on a parsed market."""
    m = parse_instance(make_market_text(workers, workers // 3, 3, seed=1))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sides = aggregate_sides(m)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sides.certified
    return retained / m.universe_size


def test_the_aggregates_retain_memory_linear_in_the_contracts():
    # one record per contract, no global-width mask per agent: 6,000 and 20,001 contracts
    small, large = _retained_per_contract(2000), _retained_per_contract(6667)
    assert large <= 1.25 * small, (small, large)
