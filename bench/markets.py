"""Seeded market generator for the benchmark.

A market is built from a fixed *shape* (groups of agents, extra contracts
and the choice kind of every agent) and a seed that draws the preferences
and the firms of the extra contracts. Keeping the shape fixed and walking
the same list of shapes in every run means that two runs differ only in
preferences, not in the structural cost of their markets.

Every agent's choice comes from the generator's own data, which the
reference code in ``reference.py`` reads directly:

* ``order`` / ``quota``: an order over the agent's contracts (best first),
  an acceptable set and a quota (1 for ``order``);
* ``utility``: the contract utilities (the worker or the firm coordinate);
* ``explicit``: a full table of rows, computed here as the union of a few
  top-q choices over orders, which makes it path-independent.

Preferences are partly opposed: within most groups each worker's favourite
firm ranks that worker last, so that worker- and firm-optimal stable sets
differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

@dataclass(frozen=True)
class Shape:
    """The structure of a market: everything except the preferences.

    The agents form groups of k workers and k firms with one contract
    between every worker and firm of a group. ``cross`` further contracts
    are dealt to the workers in turn, each with a firm drawn at random so
    that firms receive them as evenly as workers do. ``worker_kinds`` and ``firm_kinds`` are cycled
    over the agents. A group's preferences are opposed with probability
    ``opposed`` (under a random numbering of its firms, worker i ranks firm
    i+t t-th and firm j ranks worker j+1+t t-th, which gives the group k
    stable matchings) and random otherwise. A cross contract sits at the
    bottom of both agents' rankings, except that with probability ``mix``
    it takes a random place instead.
    """

    groups: tuple[int, ...]
    cross: int
    worker_kinds: tuple[str, ...]
    firm_kinds: tuple[str, ...]
    quota: int = 2
    opposed: float = 0.8
    mix: float = 0.25

    @property
    def agents(self) -> int:
        return sum(self.groups)

    @property
    def contracts(self) -> int:
        return sum(k * k for k in self.groups) + self.cross


@dataclass(frozen=True)
class Agent:
    """One agent's choice data over its block of global contract indices.

    ``parts`` lists (order, acceptable mask, quota) triples whose top-q
    choices are united; ``order``, ``quota`` and ``utility`` agents have one
    part, ``explicit`` agents several. ``rows`` is the explicit table,
    indexed by local mask over ``block``.
    """

    name: str
    kind: str
    block: tuple[int, ...]
    parts: tuple[tuple[tuple[int, ...], int, int], ...]
    rows: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Market:
    """A generated market: agents, contracts with utilities, choice data."""

    firms: tuple[str, ...]
    workers: tuple[str, ...]
    # (firm index, worker index, worker utility, firm utility)
    contracts: tuple[tuple[int, int, int, int], ...]
    firm_agents: tuple[Agent, ...]
    worker_agents: tuple[Agent, ...]

    @property
    def size(self) -> int:
        return len(self.contracts)

    def label(self, c: int) -> str:
        return f"c{c}"

    def text(self) -> str:
        """The market in the package's instance file format."""
        out = ["[firms] " + " ".join(self.firms),
               "[workers] " + " ".join(self.workers),
               "[contracts]"]
        for c, (f, w, uw, uf) in enumerate(self.contracts):
            out.append(f"{self.label(c)} {self.firms[f]} {self.workers[w]} {uw} {uf}")
        for agent in self.firm_agents + self.worker_agents:
            out.extend(self._choice_lines(agent))
        return "\n".join(out) + "\n"

    def _set_text(self, block, local_mask: int) -> str:
        return "{" + ",".join(self.label(g) for j, g in enumerate(block)
                              if local_mask >> j & 1) + "}"

    def _choice_lines(self, agent: Agent) -> list[str]:
        head = f"[choice {agent.name}] kind={agent.kind}"
        if agent.kind == "utility":
            return [head]
        if agent.kind == "explicit":
            return [head] + [f"{self._set_text(agent.block, x)} -> "
                             f"{self._set_text(agent.block, y)}"
                             for x, y in enumerate(agent.rows)]
        order, acceptable, q = agent.parts[0]
        if agent.kind == "quota":
            head += f" q={q}"
        full = sum(1 << g for g in agent.block)
        if acceptable != full:
            head += " acceptable={" + ",".join(
                self.label(g) for g in agent.block if acceptable >> g & 1) + "}"
        return [head, " ".join(self.label(g) for g in order)]

    def weakened(self) -> "Market":
        """The same market with every worker's quota raised by one.

        ``order`` and ``utility`` workers become ``quota`` workers with q = 2
        over the same order and acceptable set; ``explicit`` workers get
        every part's quota raised. Each new choice contains the old one on
        every set, so the new worker side dominates the old.
        """
        workers = []
        for a in self.worker_agents:
            parts = tuple((o, acc, q + 1) for o, acc, q in a.parts)
            if a.kind == "explicit":
                workers.append(replace(a, parts=parts, rows=_union_rows(a.block, parts)))
            else:
                workers.append(replace(a, kind="quota", parts=parts))
        return replace(self, worker_agents=tuple(workers))


def _top_q(order, acceptable: int, q: int, xmask: int) -> int:
    chosen = 0
    taken = 0
    for g in order:
        if taken == q:
            break
        if xmask >> g & 1 and acceptable >> g & 1:
            chosen |= 1 << g
            taken += 1
    return chosen


def _union_rows(block, parts) -> tuple[int, ...]:
    """The explicit table of a union of top-q choices, by local mask."""
    local_of = {g: j for j, g in enumerate(block)}
    rows = []
    for x in range(1 << len(block)):
        xmask = sum(1 << g for j, g in enumerate(block) if x >> j & 1)
        chosen = 0
        for order, acceptable, q in parts:
            chosen |= _top_q(order, acceptable, q, xmask)
        rows.append(sum(1 << local_of[g] for g in block if chosen >> g & 1))
    return tuple(rows)


def generate(shape: Shape, seed: str) -> Market:
    """Draw one market of the given shape from a string seed."""
    rng = random.Random(seed)
    n_agents = shape.agents
    pairs = []                  # (firm, worker) per contract
    worker_rank = [[] for _ in range(n_agents)]
    firm_rank = [[] for _ in range(n_agents)]
    base = 0
    for k in shape.groups:
        members = range(base, base + k)
        ids = {}
        for i in members:
            for j in members:
                ids[i, j] = len(pairs)
                pairs.append((j, i))
        if rng.random() < shape.opposed:
            firm = [base + f for f in rng.sample(range(k), k)]
            for i in range(k):
                worker_rank[base + i] = [ids[base + i, firm[(i + t) % k]] for t in range(k)]
                firm_rank[firm[i]] = [ids[base + (i + 1 + t) % k, firm[i]] for t in range(k)]
        else:
            for i in members:
                worker_rank[i] = [ids[i, j] for j in members]
                rng.shuffle(worker_rank[i])
                firm_rank[i] = [ids[w, i] for w in members]
                rng.shuffle(firm_rank[i])
        base += k
    slots = [i % n_agents for i in range(shape.cross)]
    rng.shuffle(slots)
    for i, f in enumerate(slots):
        w = i % n_agents
        c = len(pairs)
        pairs.append((f, w))
        for rank in (worker_rank[w], firm_rank[f]):
            if rng.random() < shape.mix:
                rank.insert(rng.randrange(len(rank) + 1), c)
            else:
                rank.append(c)
    n = len(pairs)
    u_worker = [0] * n
    u_firm = [0] * n
    for ranks, utility in ((worker_rank, u_worker), (firm_rank, u_firm)):
        for rank in ranks:
            # the last contract of a ranking is unacceptable one time in four
            drop = 1 if len(rank) > 1 and rng.random() < 0.25 else 0
            for pos, c in enumerate(rank):
                utility[c] = len(rank) - drop - pos
                if utility[c] <= 0:
                    utility[c] -= 1
    contracts = tuple((f, w, u_worker[c], u_firm[c]) for c, (f, w) in enumerate(pairs))

    def agent(name, kind, block, utility):
        order = tuple(sorted(block, key=lambda g: (-utility[g], g)))
        acceptable = sum(1 << g for g in block if utility[g] >= 0)
        if kind in ("order", "utility"):
            return Agent(name, kind, block, ((order, acceptable, 1),))
        if kind == "quota":
            return Agent(name, kind, block, ((order, acceptable, shape.quota),))
        other = list(block)
        rng.shuffle(other)
        other_acc = sum(1 << g for g in block if acceptable >> g & 1 and rng.random() < 0.75)
        parts = ((order, acceptable, 1), (tuple(other), other_acc, 1))
        return Agent(name, kind, block, parts, _union_rows(block, parts))

    firms = tuple(f"f{i}" for i in range(n_agents))
    workers = tuple(f"w{i}" for i in range(n_agents))
    firm_agents = tuple(
        agent(name, shape.firm_kinds[i % len(shape.firm_kinds)],
              tuple(c for c in range(n) if contracts[c][0] == i), u_firm)
        for i, name in enumerate(firms))
    worker_agents = tuple(
        agent(name, shape.worker_kinds[i % len(shape.worker_kinds)],
              tuple(c for c in range(n) if contracts[c][1] == i), u_worker)
        for i, name in enumerate(workers))
    return Market(firms, workers, contracts, firm_agents, worker_agents)
