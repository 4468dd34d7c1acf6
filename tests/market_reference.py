"""The two-pass market parser, kept as the reference for the one-pass parser.

``reference_parse`` and its helpers are the parser as it was before
contract blocks were built while the contract lines are read, word for
word, except that the stub instance it asks for blocks is ``_Blocks``, a
block walk over the contracts of its own, and that a spec no longer
carries its block. ``tests/test_market.py`` requires the package's parser to
return an equal instance, or to raise the same error class with the same
message, on generated and corrupted documents.
"""

from __future__ import annotations

import math

from plottmatch.choice import EXHAUSTIVE_CAP, ExplicitTable, OrderChoice
from plottmatch.errors import CapExceeded, ParseError, UnknownAgent
from plottmatch.market import ChoiceSpec, Contract, MarketInstance


class _Blocks:
    """Every agent's block, built in one walk over the contracts."""

    def __init__(self, firms, workers, contracts):
        firms = {a: [] for a in firms}
        workers = {a: [] for a in workers}
        for i, c in enumerate(contracts):
            if c.firm in firms:
                firms[c.firm].append(i)
            if c.worker in workers:
                workers[c.worker].append(i)
        self._blocks = {a: tuple(b) for a, b in (*workers.items(), *firms.items())}

    def block_of(self, agent: str) -> tuple[int, ...]:
        if agent not in self._blocks:
            raise UnknownAgent(f"no agent named {agent!r}")
        return self._blocks[agent]


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


def _local_index(label: str, index_of, lineno: int, all_labels) -> int:
    """The index of a contract id within the agent's block."""
    if label not in index_of:
        if label in all_labels:
            raise ParseError(f"contract {label!r} belongs to another agent", lineno)
        raise ParseError(f"unknown contract id {label!r}", lineno)
    return index_of[label]


def _local_set_mask(text: str, index_of, lineno: int, all_labels) -> int:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"expected a brace-delimited set, got {text!r}", lineno)
    body = text[1:-1].strip()
    if not body:
        return 0
    mask = 0
    for part in body.split(","):
        mask |= 1 << _local_index(part.strip(), index_of, lineno, all_labels)
    return mask


def _build_explicit(agent, block, index_of, body, header_line, all_labels):
    k = len(block)
    if k > EXHAUSTIVE_CAP:
        raise CapExceeded(
            f"agent {agent!r}: explicit table needs universe_size <= {EXHAUSTIVE_CAP}, got {k}")
    rows: dict[int, int] = {}
    for lineno, line in body:
        left, sep, right = line.partition("->")
        if not sep:
            raise ParseError("expected '{...} -> {...}'", lineno)
        xmask = _local_set_mask(left.strip(), index_of, lineno, all_labels)
        chosen = _local_set_mask(right.strip(), index_of, lineno, all_labels)
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
    return ExplicitTable(k, tuple(rows[m] for m in range(1 << k)))


def _parse_order_ids(body, index_of, agent, header_line, all_labels):
    if len(body) != 1:
        raise ParseError(
            f"agent {agent!r}: expected one line of contract ids, got {len(body)}",
            header_line)
    lineno, line = body[0]
    order = [_local_index(token, index_of, lineno, all_labels) for token in line.split()]
    if sorted(order) != list(range(len(index_of))):
        raise ParseError(
            f"order must list every contract of agent {agent!r} exactly once", lineno)
    return tuple(order)


def reference_parse(text: str) -> MarketInstance:
    """Parse an instance document, enforcing every structural invariant.

    Errors carry the offending line number: ParseError for malformed
    directives, its subclass UnknownAgent for references to undeclared
    agents. An explicit table over EXHAUSTIVE_CAP contracts raises
    CapExceeded.
    """
    # agent ids in declaration order, as dicts for constant-time lookups
    firms: dict[str, None] = {}
    workers: dict[str, None] = {}
    contracts: list[Contract] = []
    contract_ids: set[str] = set()
    spec_agents: set[str] = set()
    sections_seen: dict[str, int] = {}  # [firms], [workers] and [contracts] -> header line
    # (agent, keyvals, header lineno, body [(lineno, line), ...])
    raw_specs: list[tuple[str, dict[str, str], int, list]] = []
    section = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            end = line.find("]")
            if end < 0:
                raise ParseError("unterminated section header", lineno)
            head = line[1:end].split()
            rest = line[end + 1:].strip()
            if not head:
                raise ParseError("empty section header", lineno)
            name = head[0]
            if name in ("firms", "workers"):
                if len(head) != 1:
                    raise ParseError(f"[{name}] takes its ids after the bracket", lineno)
                if name in sections_seen:
                    raise ParseError(f"duplicate [{name}] section", lineno)
                sections_seen[name] = lineno
                target = firms if name == "firms" else workers
                ids = rest.split()
                if len(set(ids)) != len(ids):
                    raise ParseError(f"duplicate id in [{name}]", lineno)
                target.update(dict.fromkeys(ids))
                section = None
            elif name == "contracts":
                if len(head) != 1 or rest:
                    raise ParseError("[contracts] header takes no arguments", lineno)
                if name in sections_seen:
                    raise ParseError("duplicate [contracts] section", lineno)
                sections_seen[name] = lineno
                section = "contracts"
            elif name == "choice":
                if len(head) != 2:
                    raise ParseError("[choice] needs exactly one agent id", lineno)
                agent = head[1]
                if agent not in firms and agent not in workers:
                    raise UnknownAgent(f"no agent named {agent!r}", lineno)
                if agent in spec_agents:
                    raise ParseError(f"duplicate [choice] for agent {agent!r}", lineno)
                spec_agents.add(agent)
                keyvals = _parse_keyvals(rest, lineno)
                if "kind" not in keyvals:
                    raise ParseError("[choice] requires kind=", lineno)
                raw_specs.append((agent, keyvals, lineno, []))
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
            if any(sep in cid for sep in (",", "{", "}", "->")):
                raise ParseError(f"contract id {cid!r} contains ',', '{{', '}}' or '->'", lineno)
            if cid in contract_ids:
                raise ParseError(f"duplicate contract id {cid!r}", lineno)
            contract_ids.add(cid)
            if firm not in firms:
                raise UnknownAgent(f"no firm named {firm!r}", lineno)
            if worker not in workers:
                raise UnknownAgent(f"no worker named {worker!r}", lineno)
            u_worker = u_firm = None
            if len(tokens) == 5:
                u_worker = _parse_number(tokens[3], lineno)
                u_firm = _parse_number(tokens[4], lineno)
            contracts.append(Contract(cid, firm, worker, u_worker, u_firm))
        elif section == "choice":
            raw_specs[-1][3].append((lineno, line))
        else:
            raise ParseError("directive outside any section", lineno)

    overlap = firms.keys() & workers.keys()
    if overlap:
        raise ParseError(f"agent id on both sides: {sorted(overlap)[0]!r}",
                         max(sections_seen["firms"], sections_seen["workers"]))

    contracts_t = tuple(contracts)
    all_labels = tuple(c.id for c in contracts_t)
    instance_stub = _Blocks(tuple(firms), tuple(workers), contracts_t)

    specs = []
    for agent, keyvals, header_line, body in raw_specs:
        block = instance_stub.block_of(agent)
        index_of = {all_labels[g]: j for j, g in enumerate(block)}
        kind = keyvals.pop("kind")
        acceptable_text = keyvals.pop("acceptable", None)
        quota_text = keyvals.pop("q", None)
        if keyvals:
            raise ParseError(f"unknown key {sorted(keyvals)[0]!r}", header_line)
        if acceptable_text is not None and kind not in ("order", "quota"):
            raise ParseError("acceptable= only applies to kind=order|quota", header_line)
        if quota_text is not None and kind != "quota":
            raise ParseError("q= only applies to kind=quota", header_line)
        if kind == "explicit":
            cf = _build_explicit(agent, block, index_of, body, header_line, all_labels)
        elif kind in ("order", "quota"):
            order = _parse_order_ids(body, index_of, agent, header_line, all_labels)
            acceptable = -1
            if acceptable_text is not None:
                acceptable = _local_set_mask(acceptable_text, index_of,
                                             header_line, all_labels)
            q = 1
            if kind == "quota":
                if quota_text is None:
                    raise ParseError("kind=quota requires q=", header_line)
                q = _parse_number(quota_text, header_line)
                if not isinstance(q, int) or q < 0:
                    raise ParseError("q= must be a non-negative integer", header_line)
            cf = OrderChoice(len(block), order, q, acceptable)
        elif kind == "utility":
            if body:
                raise ParseError("kind=utility takes no body", body[0][0])
            side_is_firm = agent in firms
            utilities = []
            for g in block:
                u = contracts_t[g].u_firm if side_is_firm else contracts_t[g].u_worker
                if u is None:
                    raise ParseError(
                        f"contract {all_labels[g]!r} has no utilities but agent "
                        f"{agent!r} uses kind=utility", header_line)
                utilities.append(u)
            cf = OrderChoice.by_utility(utilities)
        else:
            raise ParseError(f"unknown kind {kind!r}", header_line)
        specs.append(ChoiceSpec(agent, kind, cf))

    for agent in (*firms, *workers):
        if agent not in spec_agents and instance_stub.block_of(agent):
            raise ParseError(f"agent {agent!r} has contracts but no [choice] section",
                             sections_seen["firms" if agent in firms else "workers"])

    return MarketInstance(tuple(firms), tuple(workers), contracts_t, tuple(specs))
