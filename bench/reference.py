"""Reference computations the benchmark checks the package against.

Nothing here imports ``plottmatch``. Each agent's choice is read from the
generator's own data (orders, quotas, utilities, explicit rows), sets are
plain integer bitmasks over the contract indices, and the three procedures
are written from their definitions:

* stability: S1 (each side keeps S) and S2 (no outside contract is chosen
  by both of its agents once added to S);
* generalized deferred acceptance (Hatfield and Milgrom 2005, the same
  fixed point as Fleiner 2003), proposed by either side;
* a scan of all stable sets that grows S one contract at a time and drops
  a branch as soon as an agent would reject part of its own slice, which is
  exact because every generated choice is substitutable.
"""

from __future__ import annotations

from .markets import Agent, Market


def _agent_chooser(agent: Agent, utility):
    """A function from a mask inside the agent's block to its choice."""
    if agent.kind == "utility":
        block = agent.block

        def choose(x: int) -> int:
            best = -1
            for g in block:
                if x >> g & 1 and utility[g] >= 0 and (best < 0 or utility[g] > utility[best]):
                    best = g
            return 0 if best < 0 else 1 << best
        return choose
    if agent.kind == "explicit":
        block = agent.block
        rows = agent.rows

        def choose(x: int) -> int:
            local = 0
            for j, g in enumerate(block):
                local |= (x >> g & 1) << j
            picked = rows[local]
            out = 0
            for j, g in enumerate(block):
                out |= (picked >> j & 1) << g
            return out
        return choose
    (order, acceptable, q), = agent.parts

    def choose(x: int) -> int:
        live = x & acceptable
        chosen = 0
        taken = 0
        for g in order:
            if taken == q:
                break
            if live >> g & 1:
                chosen |= 1 << g
                taken += 1
        return chosen
    return choose


class Side:
    """One side's aggregate choice: every agent chooses from its own slice."""

    def __init__(self, agents, utility, n: int):
        self.blocks = tuple(sum(1 << g for g in a.block) for a in agents)
        self.choosers = tuple(_agent_chooser(a, utility) for a in agents)
        self.agent_of = [0] * n
        for i, a in enumerate(agents):
            for g in a.block:
                self.agent_of[g] = i

    def choose(self, x: int) -> int:
        out = 0
        for block, choose in zip(self.blocks, self.choosers):
            part = x & block
            if part:
                out |= choose(part)
        return out

    def keeps_with(self, s: int, c: int) -> bool:
        """Whether contract c is chosen by its agent from its slice of S + c."""
        i = self.agent_of[c]
        bit = 1 << c
        return self.choosers[i]((s & self.blocks[i]) | bit) & bit != 0

    def keeps_slice(self, s: int, i: int) -> bool:
        part = s & self.blocks[i]
        return self.choosers[i](part) == part


class Reference:
    """Stability, deferred acceptance and the stable-set scan for one market."""

    def __init__(self, market: Market):
        n = market.size
        self.n = n
        self.full = (1 << n) - 1
        u_worker = [c[2] for c in market.contracts]
        u_firm = [c[3] for c in market.contracts]
        self.workers = Side(market.worker_agents, u_worker, n)
        self.firms = Side(market.firm_agents, u_firm, n)

    def is_stable(self, s: int) -> bool:
        if self.workers.choose(s) != s or self.firms.choose(s) != s:
            return False
        outside = self.full & ~s
        while outside:
            low = outside & -outside
            c = low.bit_length() - 1
            if self.workers.keeps_with(s, c) and self.firms.keeps_with(s, c):
                return False
            outside ^= low
        return True

    def deferred_acceptance(self, proposing: str) -> int:
        """The stable set best for the proposing side ("workers" or "firms").

        X_P = C − R_R(X_R) and X_R = C − R_P(X_P) from X_R = ∅, where R is
        what a side rejects; at the fixed point C_P(X_P) = C_R(X_R) is the
        proposing side's optimal stable set.
        """
        proposer, receiver = ((self.workers, self.firms) if proposing == "workers"
                              else (self.firms, self.workers))
        x_r = 0
        for _ in range(self.n + 2):
            x_p = self.full & ~(x_r & ~receiver.choose(x_r))
            nxt = self.full & ~(x_p & ~proposer.choose(x_p))
            if nxt == x_r:
                break
            x_r = nxt
        else:
            raise AssertionError("deferred acceptance did not converge")
        s = proposer.choose(x_p)
        if s != receiver.choose(x_r) or s != x_p & x_r:
            raise AssertionError("deferred acceptance fixed point is inconsistent")
        return s

    def stable_sets(self) -> list[int]:
        """Every stable set, ascending by mask."""
        n = self.n
        w_of = self.workers.agent_of
        f_of = self.firms.agent_of
        out = []
        stack = [(0, 0)]
        while stack:
            c, s = stack.pop()
            if c == n:
                if self.is_stable(s):
                    out.append(s)
                continue
            stack.append((c + 1, s))
            grown = s | 1 << c
            if self.workers.keeps_slice(grown, w_of[c]) and self.firms.keeps_slice(grown, f_of[c]):
                stack.append((c + 1, grown))
        return sorted(out)

    def firm_leq(self, a: int, b: int) -> bool:
        """A ⪯ B in the firm-side Blair order: the firms choose within B from A ∪ B."""
        return self.firms.choose(a | b) & ~b == 0
