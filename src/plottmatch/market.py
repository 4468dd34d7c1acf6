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
from dataclasses import dataclass
from functools import cached_property

from .choice import (_SET_SYNTAX, Aggregate, ChoiceFunction, ExplicitTable, OrderChoice, _fit,
                     _interned, _missing, _set_mask)
from .errors import ParseError, UnknownAgent
from .stability import SidePair, side_pair


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
    """One agent's name, the kind of its spec, and its choice function.

    ``cf`` lives on the agent's local universe: local index j is the agent's
    j-th contract in declaration order, that is ``block_of(agent)[j]``.
    """

    agent: str
    kind: str
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

    @cached_property
    def _blocks(self) -> dict[str, tuple[int, ...]]:
        """Each agent's contracts in one pass over the contract lines; no id may name two agents."""
        firms, workers = {a: [] for a in self.firms}, {a: [] for a in self.workers}
        if shared := firms.keys() & workers.keys():
            raise ParseError(f"agent id on both sides: {sorted(shared)[0]!r}")
        for i, c in enumerate(self.contracts):
            if c.firm not in firms:
                raise UnknownAgent(f"no firm named {c.firm!r}")
            if c.worker not in workers:
                raise UnknownAgent(f"no worker named {c.worker!r}")
            firms[c.firm].append(i)
            workers[c.worker].append(i)
        return {a: tuple(block) for a, block in (*workers.items(), *firms.items())}

    def block_of(self, agent: str) -> tuple[int, ...]:
        """The agent's contracts, ascending, off the contract lines."""
        if agent not in self._blocks:
            raise UnknownAgent(f"no agent named {agent!r}")
        return self._blocks[agent]

    def choice_of(self, agent: str) -> ChoiceFunction:
        """The agent's function: its spec's, or the empty one for an agent without contracts."""
        return self.spec_of(agent).cf if self.block_of(agent) else _interned((ExplicitTable, 0, (0,)))

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
    out, tokens = {}, iter(rest.split())
    for token in tokens:
        while token.count("{") > token.count("}") and (more := next(tokens, None)):
            token += " " + more  # a set literal with spaces, joined up to its "}" or the line end
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ParseError(f"expected key=value, got {token!r}", lineno)
        if key in out:
            raise ParseError(f"duplicate key {key!r}", lineno)
        out[key] = value
    return out


def _build_explicit(agent, position, body, header_line, index):
    k = len(position)
    _fit(f"agent {agent!r}: explicit table", k)  # before any of its 2^k rows is read
    rows: dict[int, int] = {}
    for lineno, line in body:
        left, sep, right = line.partition("->")
        if not sep:
            raise ParseError("expected '{...} -> {...}'", lineno)
        xmask = _set_mask(left, position, lineno, index)
        chosen = _set_mask(right, position, lineno, index)
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
    return _interned((ExplicitTable, k, tuple(map(rows.__getitem__, range(1 << k)))))


def _parse_order_ids(body, position, agent, header_line, index):
    if len(body) != 1:
        raise ParseError(
            f"agent {agent!r}: expected one line of contract ids, got {len(body)}",
            header_line)
    lineno, line = body[0]
    try:
        order = tuple(map(position.__getitem__, line.split()))
    except KeyError as miss:
        raise _missing(*miss.args, lineno, index) from None
    if not len(set(order)) == len(order) == len(position):
        raise ParseError(
            f"order must list every contract of agent {agent!r} exactly once", lineno)
    return order


def parse_instance(text: str) -> MarketInstance:
    """Parse an instance document in one pass, enforcing every structural invariant.

    A malformed document raises ParseError, whose message carries the
    offending line number; a reference to an undeclared agent raises its
    subclass UnknownAgent. An explicit table over EXHAUSTIVE_CAP contracts
    raises CapExceeded before its rows are read. Each agent's local numbering
    is built as the contract lines are read, a contract id -> position dict.
    Agents are built through the memo store (choice._interned): equal ones,
    of this market or another, share one object while the store keeps it.
    """
    # agent id -> {contract id: local position}, in declaration order
    firms: dict[str, dict[str, int]] = {}
    workers: dict[str, dict[str, int]] = {}
    header_line = {}  # [firms], [workers] and [contracts] -> the line declaring it
    contracts: list[Contract] = []
    index: dict[str, int] = {}  # contract id -> global index
    # agent -> (keyvals, header lineno, body [(lineno, line), ...])
    raw_specs: dict[str, tuple[dict[str, str], int, list]] = {}
    section = body = None

    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), 1):  # drop a byte-order mark
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
            firm_position = firms.get(firm)
            if firm_position is None:
                raise UnknownAgent(f"no firm named {firm!r}", lineno)
            worker_position = workers.get(worker)
            if worker_position is None:
                raise UnknownAgent(f"no worker named {worker!r}", lineno)
            u_worker = u_firm = None
            if len(tokens) == 5:
                u_worker = _parse_number(tokens[3], lineno)
                u_firm = _parse_number(tokens[4], lineno)
            contracts.append(Contract(cid, firm, worker, u_worker, u_firm))
            firm_position[cid] = len(firm_position)
            worker_position[cid] = len(worker_position)
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
        position = firms[agent] if side_is_firm else workers[agent]
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
            cf = _build_explicit(agent, position, body, header, index)
        elif kind in ("order", "quota"):
            order = _parse_order_ids(body, position, agent, header, index)
            acceptable = (1 << len(position)) - 1
            if acceptable_text is not None:
                acceptable = _set_mask(acceptable_text, position, header, index)
            q = 1
            if kind == "quota":
                if quota_text is None:
                    raise ParseError("kind=quota requires q=", header)
                q = _parse_number(quota_text, header)
                if not isinstance(q, int) or q < 0:
                    raise ParseError("q= must be a non-negative integer", header)
            cf = _interned((OrderChoice, len(position), order, q, acceptable))
        elif kind == "utility":
            if body:
                raise ParseError("kind=utility takes no body", body[0][0])
            owned = [contracts[index[cid]] for cid in position]
            utilities = [c.u_firm if side_is_firm else c.u_worker for c in owned]
            if None in utilities:
                raise ParseError(
                    f"contract {owned[utilities.index(None)].id!r} has no "
                    f"utilities but agent {agent!r} uses kind=utility", header)
            cf = _interned((OrderChoice.by_utility, tuple(utilities)))
        else:
            raise ParseError(f"unknown kind {kind!r}", header)
        specs.append(ChoiceSpec(agent, kind, cf))

    for agents, name in ((firms, "firms"), (workers, "workers")):
        for agent, position in agents.items():
            if position and agent not in raw_specs:
                raise ParseError(f"agent {agent!r} has contracts but no [choice] section",
                                 header_line[name])

    return MarketInstance(tuple(firms), tuple(workers), tuple(contracts), tuple(specs))


def aggregate_sides(m: MarketInstance, *, certify: bool = True) -> SidePair:
    """Build the two aggregate sides: G from the firms, F from the workers.

    Blocks follow agent declaration order, each read by block_of, and each
    agent's part by choice_of (UnknownAgent for an agent with contracts but
    no spec). Certification is exact at any size (see is_plott).
    """
    def one_side(agents):
        return Aggregate(m.universe_size, tuple(map(m.block_of, agents)),
                         tuple(map(m.choice_of, agents)))

    return side_pair(one_side(m.workers), one_side(m.firms), certify=certify)
