from __future__ import annotations

import random

import pytest

from plottmatch import choice, hyperorders


def module_memos() -> dict:
    """Every module-level object of choice and hyperorders with a ``cache_clear``, by name."""
    return {name: memo for module in (choice, hyperorders) for name, memo in vars(module).items()
            if hasattr(memo, "cache_clear") and not isinstance(memo, type)}


def empty_memos():
    """Empty the table cache and the per-value memos: every one of ``module_memos``."""
    for memo in module_memos().values():
        memo.cache_clear()


@pytest.fixture(autouse=True)
def _empty_memos():
    """Start every test with the table cache and the per-value memos empty.

    Every module-level object with a ``cache_clear``, other than a class, is
    emptied, so tests that count cache hits, table builds or relation
    matrices read the same counts in any order, and a memo added later is
    emptied too.
    """
    empty_memos()


def _format(labels, mask: int) -> str:
    return "{" + ",".join(lab for j, lab in enumerate(labels) if mask >> j & 1) + "}"


def _spec(agent: str, kind: str, ids: list[str], rng: random.Random) -> list[str]:
    """One [choice] section of the given kind over the agent's contract ids."""
    order = ids[:]
    rng.shuffle(order)
    if kind == "order":
        return [f"[choice {agent}] kind=order", " ".join(order)]
    if kind == "quota":
        return [f"[choice {agent}] kind=quota q=2", " ".join(order)]
    if kind == "utility":
        return [f"[choice {agent}] kind=utility"]
    # explicit: the union of the best offers under two orders, path independent
    second = ids[:]
    rng.shuffle(second)
    rows = [f"[choice {agent}] kind=explicit"]
    for x in range(1 << len(ids)):
        chosen = 0
        for ranking in (order, second):
            best = next((ids.index(c) for c in ranking if x >> ids.index(c) & 1), None)
            if best is not None:
                chosen |= 1 << best
        rows.append(f"{_format(ids, x)} -> {_format(ids, chosen)}")
    return rows


def make_market_text(workers: int, firms: int, per_worker: int, seed: int,
                     worker_kinds=("order",), firm_kinds=("quota",)) -> str:
    """A seeded market of workers × per_worker contracts.

    Each worker contracts with ``per_worker`` distinct random firms; every
    contract carries random utilities. Kinds are cycled over the agents of
    each side; quotas are 2 and explicit tables are unions of two orders.
    """
    rng = random.Random(seed)
    lines = ["[firms] " + " ".join(f"f{i}" for i in range(firms)),
             "[workers] " + " ".join(f"w{i}" for i in range(workers)),
             "[contracts]"]
    of_firm = {f"f{i}": [] for i in range(firms)}
    of_worker = {f"w{i}": [] for i in range(workers)}
    for w in range(workers):
        for f in rng.sample(range(firms), per_worker):
            cid = f"c{len(lines) - 3}"
            lines.append(f"{cid} f{f} w{w} {rng.randrange(-2, 20)} {rng.randrange(-2, 20)}")
            of_firm[f"f{f}"].append(cid)
            of_worker[f"w{w}"].append(cid)
    for kinds, blocks in ((firm_kinds, of_firm), (worker_kinds, of_worker)):
        for i, (agent, ids) in enumerate(blocks.items()):
            if ids:
                lines.extend(_spec(agent, kinds[i % len(kinds)], ids, rng))
    return "\n".join(lines) + "\n"


def make_terms_market_text(workers: int, terms: int, seed: int) -> str:
    """A seeded market of contracts with terms, the setting of Kelso–Crawford (1982) and
    Hatfield–Milgrom (2005).

    Each worker meets 3 random firms of ``workers // 3``, and each worker–firm
    pair has one contract per term t = 0..terms−1. Workers take one contract
    (kind=order), by term from high to low and then by a random rank of their
    firms; firms take two (kind=quota q=2), by term from low to high and then
    by a random rank of their workers.
    """
    rng = random.Random(seed)
    firms = workers // 3
    lines = ["[firms] " + " ".join(f"f{i}" for i in range(firms)),
             "[workers] " + " ".join(f"w{i}" for i in range(workers)),
             "[contracts]"]
    of_firm = [[] for _ in range(firms)]  # (term, worker, id) of each firm's contracts
    specs = []
    for w in range(workers):
        mine = []  # (−term, firm rank, id)
        for rank, f in enumerate(rng.sample(range(firms), 3)):
            for t in range(terms):
                cid = f"c{len(lines) - 3}"
                lines.append(f"{cid} f{f} w{w} {t} {terms - 1 - t}")
                mine.append((-t, rank, cid))
                of_firm[f].append((t, w, cid))
        specs += [f"[choice w{w}] kind=order", " ".join(cid for *_, cid in sorted(mine))]
    for f, owned in enumerate(of_firm):
        if owned:
            rank = {w: rng.random() for w in sorted({w for _, w, _ in owned})}
            specs += [f"[choice f{f}] kind=quota q=2",
                      " ".join(cid for *_, cid in sorted(owned, key=lambda o: (o[0], rank[o[1]])))]
    return "\n".join(lines + specs) + "\n"


def make_long_run_market_text(n: int, seed: int | None = None) -> str:
    """A complete one-to-one market of n workers and n firms, n ≥ 4, whose worker-proposing
    Φ from (∅, C) runs n² − 3n + 4 = |C| − 3√|C| + 4 steps, near the |C|+2 bound.

    Every agent is kind=order, and contract ``w{i}f{j}`` joins worker i and firm j. With
    m = n − 1, worker i < m ranks firms i, i+1, … mod m and then firm m, worker m ranks
    firms 0, …, m, firm j < m ranks worker m first and then workers j+1, j+2, … mod m, and
    firm m ranks workers 0, …, m. A seed shuffles the order in which firms, workers,
    contracts and [choice] sections are declared, which leaves the market as a matching
    market unchanged; with no seed every list is in index order.
    """
    m = n - 1
    worker_ranks = [[*range(i, m), *range(i), m] for i in range(m)] + [list(range(n))]
    firm_ranks = [[m, *range(j + 1, m), *range(j + 1)] for j in range(m)] + [list(range(n))]
    firms, workers = [f"f{j}" for j in range(n)], [f"w{i}" for i in range(n)]
    contracts = [f"w{i}f{j} f{j} w{i}" for i in range(n) for j in range(n)]
    specs = [[f"[choice w{i}] kind=order", " ".join(f"w{i}f{j}" for j in ranks)]
             for i, ranks in enumerate(worker_ranks)]
    specs += [[f"[choice f{j}] kind=order", " ".join(f"w{i}f{j}" for i in ranks)]
              for j, ranks in enumerate(firm_ranks)]
    if seed is not None:
        rng = random.Random(seed)
        for listed in (firms, workers, contracts, specs):
            rng.shuffle(listed)
    lines = ["[firms] " + " ".join(firms), "[workers] " + " ".join(workers), "[contracts]"]
    return "\n".join(lines + contracts + [line for spec in specs for line in spec]) + "\n"


@pytest.fixture
def market_text():
    """The seeded market generator, ``make_market_text``."""
    return make_market_text
