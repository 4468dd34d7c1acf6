"""Market instances: agents, contract blocks, per-agent choice, aggregation.

An instance is a set of firms, a set of workers, a list of contracts (each
naming one firm and one worker, optionally carrying a pair of utilities),
and one choice spec per agent over that agent's own contracts. Aggregating
the per-firm functions blockwise yields the firm side G, the per-worker
functions the worker side F.

The file format is line oriented, `#` starts a comment:

    [firms] f1 f2
    [workers] w1
    [contracts]
    a f1 w1 10 0        # id firm worker [u_worker u_firm]
    [choice f1] kind=order acceptable={a}
    a
    [choice w1] kind=utility

A contract id may not contain `,`, `{`, `}` or `->`, which set literals use.
Kinds: ``explicit`` (body: one `{...} -> {...}` line per subset of the
block), ``order`` (body: all block ids best-first; optional `acceptable=`),
``quota`` (like order plus `q=<int>`), ``utility`` (no body; uses the
contract utilities, the firm coordinate for firms, the worker one for
workers). The last three all parse into one :class:`OrderChoice`: order
and quota as written (q = 1 for order), utility as the order by
(−u, index) that accepts exactly the contracts with u ≥ 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

from .choice import Aggregate, ChoiceFunction, ExplicitTable, OrderChoice, _fit
from .errors import ParseError, UnknownAgent
from .stability import SidePair, side_pair

_SET_SYNTAX = re.compile(r"[,{}]|->")  # what a contract id may not contain


@dataclass(frozen=True, slots=True)
class Contract:
    """One contract: its id, the two agents it binds, optional utilities."""

    id: str
    firm: str
    worker: str
    u_worker: int | float | None = None
    u_firm: int | float | None = None


@dataclass(frozen=True, slots=True)
class ChoiceSpec:
    """One agent's choice function over its local block.

    ``block`` lists the global contract indices owned by the agent in
    declaration order; ``cf`` lives on the local universe 0..len(block)-1.
    """

    agent: str
    kind: str
    block: tuple[int, ...]
    cf: ChoiceFunction


@dataclass(frozen=True, eq=True)
class MarketInstance:
    """A parsed market: agents, contracts, and one choice spec per agent."""

    firms: tuple[str, ...]
    workers: tuple[str, ...]
    contracts: tuple[Contract, ...]
    specs: tuple[ChoiceSpec, ...]

    @property
    def universe_size(self) -> int:
        return len(self.contracts)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.contracts)

    @cached_property
    def _specs(self) -> dict[str, ChoiceSpec]:
        """Each agent's choice spec by name, the first one when repeated."""
        return {s.agent: s for s in reversed(self.specs)}

    def block_of(self, agent: str) -> tuple[int, ...]:
        """The agent's contracts: its spec's block, else found on the contract lines."""
        spec = self._specs.get(agent)
        if spec is not None:
            return spec.block
        if agent in self.firms:
            return tuple(i for i, c in enumerate(self.contracts) if c.firm == agent)
        if agent in self.workers:
            return tuple(i for i, c in enumerate(self.contracts) if c.worker == agent)
        raise UnknownAgent(f"no agent named {agent!r}")

    def spec_of(self, agent: str) -> ChoiceSpec:
        spec = self._specs.get(agent)
        if spec is None:
            raise UnknownAgent(f"no choice spec for agent {agent!r}")
        return spec


def _parse_number(token: str, lineno: int):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"expected a number, got {token!r}", lineno) from None
    if math.isnan(value):
        raise ParseError(f"expected a number, got {token!r}", lineno)
    return value


def _parse_keyvals(rest: str, lineno: int) -> dict[str, str]:
    out = {}
    for token in rest.split():
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ParseError(f"expected key=value, got {token!r}", lineno)
        if key in out:
            raise ParseError(f"duplicate key {key!r}", lineno)
        out[key] = value
    return out


def _missing(label: str, lineno: int, index) -> ParseError:
    """The error for a contract id outside the agent's block: foreign, or unknown."""
    if label in index:
        return ParseError(f"contract {label!r} belongs to another agent", lineno)
    return ParseError(f"unknown contract id {label!r}", lineno)


def _set_mask(text: str, bits, lineno: int, index) -> int:
    """The local mask of a ``{a,b}`` literal, read through the agent's label → bit dict."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"expected a brace-delimited set, got {text!r}", lineno)
    mask = 0
    try:
        for label in text[1:-1].split(","):
            mask |= bits[label.strip()]
    except KeyError as miss:
        if text[1:-1].strip():  # else the one label is blank: the empty set
            raise _missing(*miss.args, lineno, index) from None
    return mask


def _build_explicit(agent, bits, body, header_line, index):
    k = len(bits)
    _fit(f"agent {agent!r}: explicit table", k)  # before any of its 2^k rows is read
    rows: dict[int, int] = {}
    for lineno, line in body:
        left, sep, right = line.partition("->")
        if not sep:
            raise ParseError("expected '{...} -> {...}'", lineno)
        xmask = _set_mask(left, bits, lineno, index)
        chosen = _set_mask(right, bits, lineno, index)
        if xmask in rows:
            raise ParseError("duplicate table row", lineno)
        if xmask == 0 and chosen != 0:
            raise ParseError("choice on the empty set must be empty", lineno)
        if chosen & ~xmask:
            raise ParseError("choice selects outside its argument", lineno)
        rows[xmask] = chosen
    if len(rows) != 1 << k:
        raise ParseError(
            f"agent {agent!r}: table covers {len(rows)} of {1 << k} subsets",
            header_line)
    return ExplicitTable(k, tuple(map(rows.__getitem__, range(1 << k))))


def _parse_order_ids(body, bits, agent, header_line, index):
    if len(body) != 1:
        raise ParseError(
            f"agent {agent!r}: expected one line of contract ids, got {len(body)}",
            header_line)
    lineno, line = body[0]
    try:
        picked = list(map(bits.__getitem__, line.split()))
    except KeyError as miss:
        raise _missing(*miss.args, lineno, index) from None
    # k powers of two below 2^k sum to 2^k - 1 only when they are distinct
    if len(picked) != len(bits) or sum(picked) != (1 << len(bits)) - 1:
        raise ParseError(
            f"order must list every contract of agent {agent!r} exactly once", lineno)
    return tuple([bit.bit_length() - 1 for bit in picked])


def parse_instance(text: str) -> MarketInstance:
    """Parse an instance document in one pass, enforcing every structural invariant.

    A malformed document raises ParseError, whose message carries the
    offending line number; a reference to an undeclared agent raises its
    subclass UnknownAgent. An explicit table over EXHAUSTIVE_CAP contracts
    raises CapExceeded before its rows are read. Blocks are built while the
    contract lines are read, as contract id -> local bit dicts.
    """
    # agent id -> {contract id: local bit}, in declaration order
    firms: dict[str, dict[str, int]] = {}
    workers: dict[str, dict[str, int]] = {}
    header_line = {}  # [firms], [workers] and [contracts] -> the line declaring it
    contracts: list[Contract] = []
    index: dict[str, int] = {}  # contract id -> global index
    # agent -> (keyvals, header lineno, body [(lineno, line), ...])
    raw_specs: dict[str, tuple[dict[str, str], int, list]] = {}
    section = body = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        line = raw.strip()
        if not line:
            continue
        if line[0] == "[":
            end = line.find("]")
            if end < 0:
                raise ParseError("unterminated section header", lineno)
            head = line[1:end].split()
            rest = line[end + 1:].strip()
            if not head:
                raise ParseError("empty section header", lineno)
            name = head[0]
            if name in ("firms", "workers", "contracts"):
                if name == "contracts" and (len(head) != 1 or rest):
                    raise ParseError("[contracts] header takes no arguments", lineno)
                if len(head) != 1:
                    raise ParseError(f"[{name}] takes its ids after the bracket", lineno)
                if name in header_line:
                    raise ParseError(f"duplicate [{name}] section", lineno)
                header_line[name] = lineno
                ids = rest.split()  # none after [contracts]
                if len(set(ids)) != len(ids):
                    raise ParseError(f"duplicate id in [{name}]", lineno)
                (firms if name == "firms" else workers).update((a, {}) for a in ids)
                section = "contracts" if name == "contracts" else None
            elif name == "choice":
                if len(head) != 2:
                    raise ParseError("[choice] needs exactly one agent id", lineno)
                agent = head[1]
                if agent not in firms and agent not in workers:
                    raise UnknownAgent(f"no agent named {agent!r}", lineno)
                if agent in raw_specs:
                    raise ParseError(f"duplicate [choice] for agent {agent!r}", lineno)
                keyvals = _parse_keyvals(rest, lineno)
                if "kind" not in keyvals:
                    raise ParseError("[choice] requires kind=", lineno)
                raw_specs[agent] = (keyvals, lineno, body := [])
                section = "choice"
            else:
                raise ParseError(f"unknown section [{name}]", lineno)
            continue
        if section == "contracts":
            tokens = line.split()
            if len(tokens) not in (3, 5):
                raise ParseError(
                    "contract line must be 'id firm worker' plus optional utilities",
                    lineno)
            cid, firm, worker = tokens[:3]
            if _SET_SYNTAX.search(cid):
                raise ParseError(f"contract id {cid!r} contains ',', '{{', '}}' or '->'", lineno)
            if cid in index:
                raise ParseError(f"duplicate contract id {cid!r}", lineno)
            index[cid] = len(contracts)
            firm_bits = firms.get(firm)
            if firm_bits is None:
                raise UnknownAgent(f"no firm named {firm!r}", lineno)
            worker_bits = workers.get(worker)
            if worker_bits is None:
                raise UnknownAgent(f"no worker named {worker!r}", lineno)
            u_worker = u_firm = None
            if len(tokens) == 5:
                u_worker = _parse_number(tokens[3], lineno)
                u_firm = _parse_number(tokens[4], lineno)
            contracts.append(Contract(cid, firm, worker, u_worker, u_firm))
            firm_bits[cid] = 1 << len(firm_bits)
            worker_bits[cid] = 1 << len(worker_bits)
        elif section == "choice":
            body.append((lineno, line))
        else:
            raise ParseError("directive outside any section", lineno)

    overlap = firms.keys() & workers.keys()
    if overlap:
        raise ParseError(f"agent id on both sides: {sorted(overlap)[0]!r}",
                         max(header_line["firms"], header_line["workers"]))

    specs = []
    for agent, (keyvals, header, body) in raw_specs.items():
        side_is_firm = agent in firms
        bits = firms[agent] if side_is_firm else workers[agent]
        block = tuple(map(index.__getitem__, bits))
        kind = keyvals.pop("kind")
        acceptable_text = keyvals.pop("acceptable", None)
        quota_text = keyvals.pop("q", None)
        if keyvals:
            raise ParseError(f"unknown key {sorted(keyvals)[0]!r}", header)
        if acceptable_text is not None and kind not in ("order", "quota"):
            raise ParseError("acceptable= only applies to kind=order|quota", header)
        if quota_text is not None and kind != "quota":
            raise ParseError("q= only applies to kind=quota", header)
        if kind == "explicit":
            cf = _build_explicit(agent, bits, body, header, index)
        elif kind in ("order", "quota"):
            order = _parse_order_ids(body, bits, agent, header, index)
            acceptable = -1
            if acceptable_text is not None:
                acceptable = _set_mask(acceptable_text, bits, header, index)
            q = 1
            if kind == "quota":
                if quota_text is None:
                    raise ParseError("kind=quota requires q=", header)
                q = _parse_number(quota_text, header)
                if not isinstance(q, int) or q < 0:
                    raise ParseError("q= must be a non-negative integer", header)
            cf = OrderChoice(len(block), order, q, acceptable)
        elif kind == "utility":
            if body:
                raise ParseError("kind=utility takes no body", body[0][0])
            utilities = [contracts[g].u_firm if side_is_firm else contracts[g].u_worker
                         for g in block]
            if None in utilities:
                raise ParseError(
                    f"contract {contracts[block[utilities.index(None)]].id!r} has no "
                    f"utilities but agent {agent!r} uses kind=utility", header)
            cf = OrderChoice.by_utility(utilities)
        else:
            raise ParseError(f"unknown kind {kind!r}", header)
        specs.append(ChoiceSpec(agent, kind, block, cf))

    for agents, name in ((firms, "firms"), (workers, "workers")):
        for agent, bits in agents.items():
            if bits and agent not in raw_specs:
                raise ParseError(f"agent {agent!r} has contracts but no [choice] section",
                                 header_line[name])

    return MarketInstance(tuple(firms), tuple(workers), tuple(contracts), tuple(specs))


def aggregate_sides(m: MarketInstance, *, certify: bool = True) -> SidePair:
    """Build the two aggregate sides: G from the firms, F from the workers.

    Blocks follow agent declaration order, each read off the agent's spec,
    which parse_instance builds from the contract lines (a hand-built
    instance's specs must agree with its contracts); agents without
    contracts get the empty choice function, and an agent with contracts
    but no spec raises UnknownAgent. Certification is exact at any size: a
    side chooses block by block, so it is path independent exactly when
    every agent's function is, and only explicit tables are scanned, each
    over its own 2^k rows, and a table that recurs, in one market or across
    markets, once while its verdict is kept (see is_plott).
    """
    def one_side(agents):
        specs = [m._specs.get(a) for a in agents]
        blocks = tuple(s.block if s else () for s in specs)
        if sum(map(len, blocks)) != m.universe_size:  # some contracts have no spec
            for a, s in zip(agents, specs):
                if s is None and m.block_of(a):
                    m.spec_of(a)
        parts = tuple(s.cf if s and s.block else ExplicitTable(0, (0,)) for s in specs)
        return Aggregate(m.universe_size, blocks, parts)

    G = one_side(m.firms)
    F = one_side(m.workers)
    return side_pair(F, G, certify=certify)
