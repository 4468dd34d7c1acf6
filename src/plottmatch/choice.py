"""Choice functions over a finite contract universe.

A contract universe is the index range 0..n-1; subsets are bitmasks wrapped
in :class:`ContractSet`. A :class:`ChoiceFunction` maps every subset X to a
selection G(X) ⊆ X. Path independence (G(X∪Y) = G(G(X)∪Y), the Plott
condition) is Heredity + Outcast, which :func:`is_plott` verifies. On top
sit the closure G*, the Nil-set, unions, and the decomposition of a
path-independent function into linear-order maximizers. Orders, quotas and
utility maximizers are one class, :class:`OrderChoice`.
"""

from __future__ import annotations

import re
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import cached_property, partial, update_wrapper
from itertools import compress, count
from numbers import Integral
from threading import Lock

import numpy as np

from .errors import CapExceeded, EmptyList, InternalError, NotCertified, ParseError, UniverseMismatch

EXHAUSTIVE_CAP = 16
# Bounds of the one store of every per-value memo, in entries and table rows (see _Memo).
MEMO_ENTRIES = 1024
MEMO_ROWS = 1 << 19
CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])  # as functools'


_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int):
    """The set-bit indices of mask in ascending order, in time linear in its width."""
    return compress(count(), bin(mask)[:1:-1].encode().translate(_DIGITS))  # digit i is bit i


@dataclass(frozen=True, slots=True)
class ContractSet:
    """An immutable subset of a contract universe of known size.

    The members are stored as a bitmask; all set algebra is exact. Mixing
    sets from different universes raises :class:`UniverseMismatch`.
    """

    universe_size: int
    mask: int = 0

    def __post_init__(self):
        if self.universe_size < 0:
            raise ValueError("universe_size must be non-negative")
        if not (0 <= self.mask and self.mask.bit_length() <= self.universe_size):
            raise ValueError("mask references indices outside the universe")

    @classmethod
    def from_indices(cls, universe_size: int, indices) -> "ContractSet":
        mask = 0
        for i in indices:
            if not 0 <= i < universe_size:
                raise ValueError(f"index {i} outside universe of size {universe_size}")
            mask |= 1 << i
        return cls(universe_size, mask)

    @classmethod
    def empty(cls, universe_size: int) -> "ContractSet":
        return cls(universe_size, 0)

    @classmethod
    def full(cls, universe_size: int) -> "ContractSet":
        return cls(universe_size, (1 << universe_size) - 1)

    def _same_universe(self, other: "ContractSet"):
        if self.universe_size != other.universe_size:
            raise UniverseMismatch(
                f"universe sizes differ: {self.universe_size} vs {other.universe_size}"
            )

    def indices(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def add(self, index: int) -> "ContractSet":
        return ContractSet(self.universe_size, self.mask | (1 << index))

    def remove(self, index: int) -> "ContractSet":
        return ContractSet(self.universe_size, self.mask & ~(1 << index))

    def complement(self) -> "ContractSet":
        full = (1 << self.universe_size) - 1
        return ContractSet(self.universe_size, full ^ self.mask)

    def __or__(self, other: "ContractSet") -> "ContractSet":
        self._same_universe(other)
        return ContractSet(self.universe_size, self.mask | other.mask)

    def __and__(self, other: "ContractSet") -> "ContractSet":
        self._same_universe(other)
        return ContractSet(self.universe_size, self.mask & other.mask)

    def __sub__(self, other: "ContractSet") -> "ContractSet":
        self._same_universe(other)
        return ContractSet(self.universe_size, self.mask & ~other.mask)

    def __le__(self, other: "ContractSet") -> bool:
        self._same_universe(other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "ContractSet") -> bool:
        return self <= other and self.mask != other.mask

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.universe_size and self.mask >> index & 1 == 1

    def __iter__(self):
        return _bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __repr__(self) -> str:
        return f"ContractSet(n={self.universe_size}, {format_set(self)})"


def format_set(X: ContractSet, labels=None) -> str:
    """Render a set as ``{a,b}`` using labels (else indices), in declaration (index) order."""
    return "{" + ",".join(str(i) if labels is None else labels[i] for i in X) + "}"


def parse_set(text: str, labels) -> ContractSet:
    """Parse a ``{a,b}`` literal over a label list's universe; ParseError if it is malformed."""
    return ContractSet(len(labels), _set_mask(text, dict(zip(labels, count())), None, ()))


_SET_SYNTAX = re.compile(r"[,{}]|->")  # what a contract id may not contain


def _missing(label: str, lineno, index) -> ParseError:
    """The error for a contract id outside the agent's block: foreign, or unknown."""
    if label in index:
        return ParseError(f"contract {label!r} belongs to another agent", lineno)
    return ParseError(f"unknown contract id {label!r}", lineno)


def _set_mask(text: str, position, lineno, index) -> int:
    """The local mask of a ``{a,b}`` literal, read through a label → local position dict."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"expected a brace-delimited set, got {text!r}", lineno)
    mask = 0
    try:
        for label in text[1:-1].split(","):
            mask |= 1 << position[label.strip()]
    except KeyError as miss:
        if text[1:-1].strip():  # else the one label is blank: the empty set
            raise _missing(*miss.args, lineno, index) from None
    return mask


# ---------------------------------------------------------------------------
# Choice function representations
# ---------------------------------------------------------------------------


class ChoiceFunction:
    """Base class: a total selection map over subsets of one universe.

    Subclasses implement ``_choose_mask``; they are immutable and hashable,
    so full tables are memoized by value. ``_gains`` tells for every c
    outside X whether c is chosen from X ∪ {c}, by default one call each.
    A subclass must choose within X: semi_stable_pair and σ's kept chains
    rely on it to skip G(Y) when Y ⊆ F(Z) (see stability._sigma).
    """

    universe_size: int

    def _choose_mask(self, xmask: int) -> int:
        raise NotImplementedError

    def _gains(self, xmask: int) -> int:
        """The contracts c outside xmask chosen from xmask ∪ {c}, each added alone."""
        gains, rest = 0, ((1 << self.universe_size) - 1) ^ xmask
        while rest:
            bit = rest & -rest
            gains |= self._choose_mask(xmask | bit) & bit
            rest ^= bit
        return gains

    def _table(self, masks: np.ndarray) -> np.ndarray:
        """The choice on every mask of ``masks`` (all subsets, ascending)."""
        return np.fromiter((self._choose_mask(m) for m in range(masks.size)),
                           dtype=np.int64, count=masks.size)

    def choose(self, X: ContractSet) -> ContractSet:
        """Evaluate the function on X. The result is always a subset of X."""
        if X.universe_size != self.universe_size:
            raise UniverseMismatch(
                f"set over universe {X.universe_size}, function over {self.universe_size}"
            )
        return ContractSet(self.universe_size, self._choose_mask(X.mask))


@dataclass(frozen=True)
class ExplicitTable(ChoiceFunction):
    """A choice function given by its full table, one entry per subset.

    ``table[xmask]`` is the chosen submask of ``xmask``. Tables are only
    allowed up to ``EXHAUSTIVE_CAP`` contracts, must select subsets, and
    must choose nothing from the empty set.
    """

    universe_size: int
    table: tuple[int, ...]

    def __post_init__(self):
        n = self.universe_size
        _fit("explicit table", n)
        if len(self.table) != 1 << n:
            raise ValueError(f"table must have {1 << n} entries, got {len(self.table)}")
        if self.table[0] != 0:
            raise ValueError("choice on the empty set must be empty")
        for xmask, chosen in enumerate(self.table):
            if chosen & ~xmask:
                raise ValueError(f"entry for mask {xmask} selects outside the subset")
        # hashed once, not per cache lookup; not a field, so eq and repr ignore it
        object.__setattr__(self, "_hash", hash((n, self.table)))

    def __hash__(self) -> int:
        return self._hash

    def _choose_mask(self, xmask: int) -> int:
        return self.table[xmask]

    def _table(self, masks: np.ndarray) -> np.ndarray:
        return np.array(self.table, dtype=np.int64)


@dataclass(frozen=True)
class OrderChoice(ChoiceFunction):
    """Pick the top ``quota`` acceptable elements of X along a strict total order.

    ``order`` lists all contract indices best-first; ``acceptable_mask``
    restricts which contracts can ever be chosen (default: all). With quota
    1 this is a linear-order maximizer, and :meth:`by_utility` builds a
    utility maximizer as one. Every such function is path independent.
    """

    universe_size: int
    order: tuple[int, ...]
    quota: int = 1
    acceptable_mask: int = -1

    def __post_init__(self):
        n = self.universe_size
        if sorted(self.order) != list(range(n)):
            raise ValueError("order must be a permutation of all contract indices")
        if not isinstance(self.quota, Integral):
            raise ValueError("quota must be an integer")
        if self.quota < 0:
            raise ValueError("quota must be non-negative")
        if self.acceptable_mask == -1:
            object.__setattr__(self, "acceptable_mask", (1 << n) - 1)
        if not 0 <= self.acceptable_mask < (1 << n):
            raise ValueError("acceptable_mask outside the universe")
        # hashed once, as ExplicitTable is, with the mask normalised; not a field
        object.__setattr__(self, "_hash", hash((n, self.order, self.quota, self.acceptable_mask)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def by_utility(cls, utilities) -> "OrderChoice":
        """The utility maximizer: highest u ≥ 0 first, the lowest index on ties.

        That is the order by (−u, index) with exactly the contracts of
        utility u ≥ 0 acceptable.
        """
        n = len(utilities)
        order = tuple(sorted(range(n), key=[-u for u in utilities].__getitem__))
        return cls(n, order, 1, sum(1 << i for i, u in enumerate(utilities) if u >= 0))

    @cached_property
    def _kernels(self):
        """Choice and gains on local masks, the acceptable bits best first (none at quota 0)."""
        bits = tuple([1 << j for j in self.order if self.acceptable_mask >> j & 1])
        q = self.quota
        return (partial(_top_choice, bits, sum(bits) if q else 0, q),
                partial(_top_gains, bits if q else (), q))

    @cached_property
    def _choose_mask(self):  # the kernel itself, kept on first use
        return self._kernels[0]

    @cached_property
    def _gains(self):
        return self._kernels[1]

    def _table(self, masks: np.ndarray) -> np.ndarray:
        table = np.zeros_like(masks)
        taken = np.zeros(masks.size, dtype=np.int8)  # at most EXHAUSTIVE_CAP
        for c in self.order:
            if self.acceptable_mask >> c & 1:
                got = masks & (1 << c)
                got *= taken < self.quota
                table |= got
                taken += got != 0
        return table


@dataclass(frozen=True)
class UnionChoice(ChoiceFunction):
    """The pointwise union of several choice functions on one universe.

    Unions of path-independent functions are path-independent, which makes
    this the carrier for order decompositions and random instance
    generation.
    """

    universe_size: int
    parts: tuple[ChoiceFunction, ...]

    def __post_init__(self):
        if not self.parts:
            raise EmptyList("a union needs at least one choice function")
        for part in self.parts:
            if part.universe_size != self.universe_size:
                raise UniverseMismatch("union members must share one universe")

    def _choose_mask(self, xmask: int) -> int:
        chosen = 0
        for part in self.parts:
            chosen |= part._choose_mask(xmask)
        return chosen

    def _gains(self, xmask: int) -> int:
        """c is chosen from X ∪ {c} by the union exactly when some part chooses it."""
        gains = 0
        for part in self.parts:
            gains |= part._gains(xmask)
        return gains

    def _table(self, masks: np.ndarray) -> np.ndarray:
        table = np.zeros_like(masks)
        for part in self.parts:
            table |= choice_table(part)
        return table


def _top_choice(bits, acceptable: int, quota: int, xmask: int) -> int:
    """The first ``quota`` members of ``xmask ∩ acceptable`` along ``bits``."""
    live = xmask & acceptable
    if live.bit_count() <= quota:
        return live
    chosen = 0
    for bit in bits:
        if live & bit:
            chosen |= bit
            quota -= 1
            if not quota:
                return chosen
    return chosen


def _top_gains(bits, quota: int, xmask: int) -> int:
    """The non-members of xmask met along ``bits`` before its ``quota``-th member, quota ≥ 1."""
    gains = 0
    for bit in bits:
        if xmask & bit:
            quota -= 1
            if not quota:
                return gains
        else:
            gains |= bit
    return gains


def _split(side, xmask: int) -> list:
    """Each agent's local slice of a global mask, read through a side's record (see _coords)."""
    blocks, _, agent, position = side
    if xmask == (1 << len(agent)) - 1:  # the whole universe: every agent's whole block
        return [(1 << len(block)) - 1 for block in blocks]
    slices = [0] * len(blocks)
    for c in _bits(xmask) if xmask else ():
        slices[agent[c]] |= 1 << position[c]
    return slices


def _members(blocks, picks) -> list:
    """The contracts of (agent, local mask) pairs, local bit j of agent a being blocks[a][j]."""
    members = []
    for a, local in picks:
        block = blocks[a]
        while local:
            members.append(block[(local & -local).bit_length() - 1])
            local &= local - 1
    return members


def _lift(n: int, blocks, picks) -> int:
    """The global mask of (agent, local mask) pairs (see _members)."""
    return _mask(n, _members(blocks, picks))


def _mask(n: int, contracts) -> int:
    """The global mask of some contracts, set one by one in a byte buffer."""
    buf = bytearray((n >> 3) + 1)
    for c in contracts:
        buf[c >> 3] |= 1 << (c & 7)
    return int.from_bytes(buf, "little")


def _gather(xs, block):
    """The local masks of global masks xs, an int or an int64 array: bit block[j] moves to bit j."""
    local = xs & 0
    for j, g in enumerate(block):
        local |= (xs >> g & 1) << j
    return local


def _scatter(local, block):
    """The global masks of local masks, an int or an int64 array: bit j moves to bit block[j]."""
    out = local & 0
    for j, g in enumerate(block):
        out |= (local >> j & 1) << g
    return out


class _Rows(dict):
    """Up to ``maxsize`` masks or mask pairs by key, emptied when full, with hit and miss counts."""

    maxsize, hits, misses = 256, 0, 0

    def add(self, key, row):
        """Keep an answer computed on a miss; a hit is counted where it is read."""
        self.misses += 1
        if len(self) >= self.maxsize:
            self.clear()
        self[key] = row
        return row


def _cache_info(*stores: _Rows) -> CacheInfo:
    """The hits, misses, bounds and entries of row stores, summed."""
    return CacheInfo(sum(s.hits for s in stores), sum(s.misses for s in stores),
                     sum(s.maxsize for s in stores), sum(map(len, stores)))


@dataclass(frozen=True)
class Aggregate(ChoiceFunction):
    """Blockwise choice: a partition of the universe with one function per block.

    ``blocks[i]`` lists the global indices owned by part i in ascending
    order: local index j of that part's universe 0..len(block)-1 is the
    block's j-th smallest contract, so local order is global order. The
    choice on X is the disjoint union of each part's choice on its slice of X.

    Each contract has one record, its agent (block index) and its position
    there. ``_choose_mask`` and ``_gains`` split X into the agents' slices
    through it and ask each agent's own function (see _split and _lift);
    σ moves single contracts between agents by the same records (see
    stability._chain). Nothing here grows faster than |C|. Up to 256
    choices are kept by set mask, the store emptied when full (1.3 MiB at
    |C| = 20,001); threads may compute a row twice, never read a wrong one.
    """

    universe_size: int
    blocks: tuple[tuple[int, ...], ...]
    parts: tuple[ChoiceFunction, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.parts):
            raise ValueError("one choice function per block required")
        n = self.universe_size
        agent, position = [None] * n, [0] * n
        for a, (block, part) in enumerate(zip(self.blocks, self.parts)):
            if part.universe_size != len(block):
                raise ValueError("part universe must match its block size")
            if list(block) != sorted(block):
                raise ValueError("each block must list its contracts in ascending order")
            for j, g in enumerate(block):
                if not 0 <= g < n or agent[g] is not None:  # outside, or owned already
                    raise ValueError("blocks must partition the universe")
                agent[g], position[g] = a, j
        if None in agent:
            raise ValueError("blocks must cover the whole universe")
        # the blocks, parts and per-contract record, as _coords gives them; not a field
        object.__setattr__(self, "_side", (self.blocks, self.parts, agent, position))
        object.__setattr__(self, "_chosen", _Rows())

    def cache_info(self) -> CacheInfo:
        """The row cache's hits, misses, bound and entries."""
        return _cache_info(self._chosen)

    def __reduce__(self):
        """A copy or a pickle carries the three fields, not the record or the row store."""
        return Aggregate, (self.universe_size, self.blocks, self.parts)

    def _choose_mask(self, xmask: int) -> int:
        row = self._chosen.get(xmask)
        if row is not None:
            self._chosen.hits += 1
            return row
        slices = _split(self._side, xmask)
        chosen = [part._choose_mask(x) if x else 0 for part, x in zip(self.parts, slices)]
        return self._chosen.add(xmask, _lift(self.universe_size, self.blocks, enumerate(chosen)))

    def _gains(self, xmask: int) -> int:
        gains = [part._gains(x) for part, x in zip(self.parts, _split(self._side, xmask))]
        return _lift(self.universe_size, self.blocks, enumerate(gains))

    def _table(self, masks: np.ndarray) -> np.ndarray:
        table = np.zeros_like(masks)
        for block, part in zip(self.blocks, self.parts):
            table |= _scatter(choice_table(part)[_gather(masks, block)], block)
        return table


def _coords(cf: ChoiceFunction):
    """(blocks, parts, agent of each contract, its position in its block): an aggregate's own,
    and any other function as one agent over range(n)."""
    if isinstance(cf, Aggregate):
        return cf._side
    n = cf.universe_size
    return (tuple(range(n)),), (cf,), [0] * n, list(range(n))


def union(cfs) -> UnionChoice:
    """Union a nonempty list of choice functions over one shared universe."""
    cfs = tuple(cfs)
    if not cfs:
        raise EmptyList("union of zero choice functions")
    return UnionChoice(cfs[0].universe_size, cfs)


# ---------------------------------------------------------------------------
# Full choice tables
# ---------------------------------------------------------------------------


class _Memo:
    """A function of one key, memoized by value in the one store that every memo shares.

    The store keeps values by (memo, key), equal keys sharing one entry,
    least recently used first, and drops the oldest until at most
    MEMO_ENTRIES entries and MEMO_ROWS table rows are left. Each is charged
    ``charge(key, value)``, the rows it keeps alive: 2^k for a k-contract
    key plus the value's own (2^k for a table, 4^k for a relation matrix, 16
    per order of about 330 bytes, 3 per kept slice and its gains; a parsed
    agent 2^k as a table and 2k + k²/512 as an order with its kernels, 1 KiB
    + 80k + k²/16 bytes by tracemalloc). A row takes at most 40 bytes and an
    entry at most 4 KiB more, so the store holds at most 24 MiB in all. A
    value charged more than MEMO_ROWS is returned as a miss and never kept.
    A hit takes no lock: threads may lose a count or a move, never read a
    wrong value. The lock guards misses, additions and evictions; values are
    computed outside it. No exception or None is kept.
    """

    # (memo, key) -> (value, rows, ticket), and ticket -> (memo, key) least recently used first:
    # a hit hashes its key once, and moves a ticket
    _store, _order, _tickets = {}, OrderedDict(), count()
    _rows, _lock = 0, Lock()

    def __init__(self, charge, fn):
        self.charge, self.hits, self.misses, self.currsize = charge, 0, 0, 0
        update_wrapper(self, fn)

    def __len__(self) -> int:
        return self.currsize

    def __call__(self, key):
        at = self, key
        entry = self._store.get(at)
        if entry is not None:
            try:
                self._order.move_to_end(entry[2])
            except KeyError:  # another thread has just dropped the entry
                pass
            self.hits += 1
            return entry[0]
        with self._lock:
            self.misses += 1
        value = self.__wrapped__(key)
        if value is None or (rows := self.charge(key, value)) > MEMO_ROWS:
            return value
        entry = value, rows, next(self._tickets)
        with self._lock:
            kept = self._store.setdefault(at, entry)  # another thread's, if it kept one first
            if kept is entry:
                self._order[entry[2]] = at
                self.currsize += 1
                _Memo._rows += entry[1]
                while len(self._store) > MEMO_ENTRIES or _Memo._rows > MEMO_ROWS:
                    _, oldest = self._order.popitem(last=False)
                    oldest[0].currsize -= 1
                    _Memo._rows -= self._store.pop(oldest)[1]
            return kept[0]

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, MEMO_ENTRIES, self.currsize)

    def cache_clear(self) -> None:
        with self._lock:
            for at in [at for at in self._store if at[0] is self]:
                _, rows, ticket = self._store.pop(at)
                del self._order[ticket]
                _Memo._rows -= rows
            self.hits = self.misses = self.currsize = 0


@partial(_Memo, lambda key, cf: 1 << cf.universe_size if type(cf) is ExplicitTable
         else 2 * cf.universe_size + cf.universe_size ** 2 // 512)
def _interned(key: tuple) -> ChoiceFunction:
    """``key[0](*key[1:])``, one object per equal key: the parser builds every agent by it."""
    return key[0](*key[1:])


@partial(_Memo, lambda cf, table: 2 << cf.universe_size)
def choice_table(cf: ChoiceFunction) -> np.ndarray:
    """The function's full table as a read-only array indexed by subset mask.

    Only available up to EXHAUSTIVE_CAP contracts, checked on every call;
    each class builds its own in ``_table``. Enumeration reads one table per
    agent, never a whole side's (a catalog's fingerprint does). Tables are
    kept by value (see _Memo), so a recurring agent is looked up, not rebuilt.
    """
    n = cf.universe_size
    _fit("full table", n)
    table = cf._table(np.arange(1 << n, dtype=np.int64))
    table.setflags(write=False)
    return table


def _fit(what: str, n: int, limit: int = EXHAUSTIVE_CAP) -> None:
    """Refuse ``what`` over n contracts above ``limit``: every exhaustive size check."""
    if n > limit:
        raise CapExceeded(f"{what} needs universe_size <= {limit}, got {n}")


@partial(_Memo, lambda cf, kept: (1 << cf.universe_size) + 3 * len(kept))
def _kept(cf: ChoiceFunction) -> tuple[tuple[int, int], ...]:
    """cf's fixed points x = cf(x), ascending, each with its gains: c ∉ x chosen from x + c."""
    table = choice_table(cf)
    xs = np.flatnonzero(table == np.arange(table.size))
    gains = sum(table[xs | 1 << j] & 1 << j for j in range(cf.universe_size))  # one bit each
    return tuple(zip(xs.tolist(), (gains & ~xs).tolist()))


# ---------------------------------------------------------------------------
# Path-independence verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlottReport:
    """Outcome of a path-independence check.

    When ``is_plott`` is false exactly one witness is present:
    ``heredity_witness`` is (B, A, element) with A = B minus one contract and
    element chosen from B but not from A; ``outcast_witness`` is (X, Y) with
    Y obtained from X by dropping one rejected contract yet choosing
    differently. Re-evaluating a witness reproduces the violation.
    """

    is_plott: bool
    heredity_witness: tuple[ContractSet, ContractSet, int] | None = None
    outcast_witness: tuple[ContractSet, ContractSet] | None = None


def _violation_scan(table: np.ndarray, n: int):
    """The least Plott violation in a table of n contracts.

    One pass over the one-element removals A = B∖{c} of every row B ∋ c
    records the least violation of each axiom: Heredity fails when some
    element of G(B) ∩ A is not in G(A), Outcast when c ∉ G(B) yet G(A) ≠
    G(B). Rows are ordered by mask, ties broken by c; the Heredity witness
    names its lowest offending element. Returns ``_plott_witness``'s tuples:
    Heredity first, then Outcast.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    least = [None, None]  # per axiom: (row, c) of the least row, the least c on ties
    for c in range(n):
        bit = 1 << c
        rows = masks[(masks & bit) != 0]
        subs = rows ^ bit
        chosen, kept = table[rows], table[subs]
        for axiom, bad in enumerate(((chosen & subs & ~kept) != 0,
                                     ((chosen & bit) == 0) & (kept != chosen))):
            hits = rows[bad]  # ascending, so the least row of this c comes first
            if hits.size and (least[axiom] is None or hits[0] < least[axiom][0]):
                least[axiom] = int(hits[0]), c
    heredity, outcast = least
    if heredity is not None:
        b, c = heredity
        a = b ^ (1 << c)
        offending = int(table[b]) & a & ~int(table[a])
        return 0, b, a, (offending & -offending).bit_length() - 1
    if outcast is not None:
        x, c = outcast
        return 1, x, x ^ (1 << c)
    return None


@partial(_Memo, lambda cf, witness: 1 << cf.universe_size)
def _verdict(cf: ChoiceFunction):
    """The least Plott violation of cf's own table, or () when it is clean; kept either way."""
    return _violation_scan(choice_table(cf), cf.universe_size) or ()


def _plott_witness(cf: ChoiceFunction):
    """The least Plott violation of cf.

    Returns None when cf is path independent, else ``(0, B, A, element)``
    for Heredity or ``(1, X, Y)`` for Outcast, so that tuple order puts
    Heredity first and then the least set. An OrderChoice is path
    independent by construction, and so is any union of path independent
    functions (Aizerman–Malishevski). An aggregate is exactly when every
    part is; its blocks ascend, so each part's least violation, scattered
    through its block, is the least of the whole with a contract there.
    Anything else is scanned over its own table, within EXHAUSTIVE_CAP, and
    its verdict kept by value (see _verdict).
    """
    if type(cf) is OrderChoice:
        return None
    if type(cf) is Aggregate:
        hits = ((block, _plott_witness(part)) for block, part in zip(cf.blocks, cf.parts)
                if type(part) is not OrderChoice)
        return min(((kind, _scatter(x, block), _scatter(y, block), *map(block.__getitem__, rest))
                    for block, hit in hits if hit for kind, x, y, *rest in [hit]), default=None)
    if type(cf) is UnionChoice and all(_plott_witness(part) is None for part in cf.parts):
        return None
    _fit("exhaustive check", cf.universe_size)
    return _verdict(cf) or None


def _dominates(F: ChoiceFunction, F2: ChoiceFunction):
    """Check choose(F,X) ⊆ choose(F2,X) everywhere; returns the least failing X mask or None.

    Exact at any size when F and F2 choose over the same blocks (see
    _coords): both choose block by block, so dominance holds exactly when it
    holds on every block whose parts differ, and a block's least failing
    slice, with the other blocks empty, is the least failing set of the
    whole with a contract there. Those blocks, and two functions over
    different blocks, are compared through whole tables, which must fit
    under the table limit.
    """
    (blocks, ours, *_), (their_blocks, theirs, *_) = _coords(F), _coords(F2)
    if blocks != their_blocks:
        blocks, ours, theirs = (range(F.universe_size),), (F,), (F2,)
    pairs = [(block, p, q) for block, p, q in zip(blocks, ours, theirs) if p != q]
    for block, _, _ in pairs:
        _fit("dominance check", len(block))
    least = None
    for block, p, q in pairs:
        bad = (choice_table(p) & ~choice_table(q)).nonzero()[0]
        if bad.size:
            x = _scatter(int(bad[0]), block)  # nonzero ascends
            least = x if least is None else min(least, x)
    return least


def is_plott(cf: ChoiceFunction) -> PlottReport:
    """Check Heredity and Outcast, whose conjunction is path independence.

    Exact at any universe size, by the structural walk of _plott_witness:
    only tables that no structure certifies are scanned, every one-element
    removal over their own 2^k rows, which by induction decides both axioms
    over all subset pairs; each must fit under EXHAUSTIVE_CAP, and its
    verdict is kept by value (see _Memo). The witness is the one a scan of
    the whole function's table would return: heredity first, then the least set.
    """
    n = cf.universe_size
    hit = _plott_witness(cf)
    if hit is None:
        return PlottReport(True)
    if hit[0] == 0:
        _, b, a, element = hit
        return PlottReport(False, heredity_witness=(ContractSet(n, b), ContractSet(n, a), element))
    _, x, y = hit
    return PlottReport(False, outcast_witness=(ContractSet(n, x), ContractSet(n, y)))


# ---------------------------------------------------------------------------
# Closure operator and Nil-set
# ---------------------------------------------------------------------------


def closure_star(cf: ChoiceFunction, X: ContractSet) -> ContractSet:
    """The largest superset of X with the same choice as X.

    For a path-independent function this equals X plus every single contract
    whose addition leaves the choice unchanged; callers must certify path
    independence themselves, the behavior is undefined otherwise. By
    Outcast those are the contracts c not chosen from X ∪ {c}, so the
    closure is all but ``_gains(X)``.
    """
    if X.universe_size != cf.universe_size:
        raise UniverseMismatch("closure over a foreign universe")
    return ContractSet(cf.universe_size, ((1 << cf.universe_size) - 1) ^ cf._gains(X.mask))


def nil_set(cf: ChoiceFunction) -> ContractSet:
    """Contracts that never matter: the closure of the empty set.

    Equals the set of contracts whose singleton chooses nothing; adding or
    removing Nil contracts never changes any choice.
    """
    return closure_star(cf, ContractSet.empty(cf.universe_size))


# ---------------------------------------------------------------------------
# Decomposition into linear-order maximizers
# ---------------------------------------------------------------------------


def _order_covering(choices: list[int], active: int, X: int, x: int) -> tuple[int, ...]:
    """The order of :func:`decompose_into_orders` for the demand (X, x)."""
    order, rest = [], active
    while outside := choices[rest] & ~X:
        order.append((outside & -outside).bit_length() - 1)
        rest ^= 1 << order[-1]
    if not choices[rest] >> x & 1:
        raise InternalError("outcast fails: f(R) ⊆ X ⊆ R, yet x ∈ f(X) is not in f(R)")
    order.append(x)
    rest ^= 1 << x
    while rest:
        order.append((choices[rest] & -choices[rest]).bit_length() - 1)
        rest ^= 1 << order[-1]
    return tuple(order)


def decompose_into_orders(cf: ChoiceFunction) -> list[OrderChoice]:
    """Write a path-independent function f as a union of order maximizers.

    The orders are built, not searched for. The demands (X, x) with x ∈ f(X)
    are walked with X, then x, ascending, and each one that no order so far
    covers gets a new order (such an X holds no Nil contract). The order
    starts from R = the non-Nil contracts and ranks next, and removes from
    R, the lowest member of f(R) outside X, until f(R) ⊆ X ⊆ R; Outcast then
    gives f(X) = f(R), so x ∈ f(R) is ranked next (checked), and the lowest
    member of f(R) follows each time until R is empty. So the order is
    pointwise inferior to f and picks x from X. A forward pass then drops
    every order whose demands the others still cover.

    Every returned order ranks all contracts, the Nil ones last, and accepts
    exactly the non-Nil ones; their union reproduces f on every subset
    (asserted). The result is deterministic but neither canonical nor
    minimum-size. EXHAUSTIVE_CAP is checked on every call; behind it the
    orders are built once per function value (see _Memo). A function that
    is not path independent raises NotCertified on every call.
    """
    _fit("decomposition", cf.universe_size)
    return list(_decomposition(cf))


@partial(_Memo, lambda cf, orders: (1 << cf.universe_size) + 16 * len(orders))
def _decomposition(cf: ChoiceFunction) -> tuple[OrderChoice, ...]:
    """decompose_into_orders for a function within the limit."""
    n = cf.universe_size
    if not is_plott(cf).is_plott:
        raise NotCertified("cannot decompose: function is not path-independent")
    table = choice_table(cf)
    active = cf._gains(0)  # the non-Nil contracts: each is chosen from its singleton
    nil_tail = tuple(_bits(((1 << n) - 1) ^ active))
    masks = np.arange(1 << n, dtype=np.int64)
    bit = np.append(1 << masks[:n], 0)  # bit[c] is 1 << c, and bit[n] is 0 for no pick
    contract_of = np.full(1 << n, n, dtype=np.int8)  # c at 1 << c, n at every other mask
    contract_of[bit[:n]] = masks[:n]
    choices = table.tolist()
    orders, picks = [], []  # picks[k][X]: the contract that order k picks from X
    left = table.copy()  # the demands no order covers yet
    while (pending := left.nonzero()[0]).size:
        X = int(pending[0])
        x = int(left[X] & -left[X]).bit_length() - 1
        order = OrderChoice(n, _order_covering(choices, active, X, x) + nil_tail, 1, active)
        picked = order._table(masks)
        left &= ~picked
        orders.append(order)
        picks.append(contract_of[picked])
    # uses[X, c]: how many orders pick c from X; no pick (c = n) never holds an order
    uses = np.zeros((1 << n, n + 1), dtype=np.int32)
    uses[:, n] = len(orders) + 1
    for at in picks:
        uses[masks, at] += 1
    kept, recombined = [], np.zeros_like(masks)
    for order, at in zip(orders, picks):
        if uses[masks, at].min() > 1:  # another order makes each of its picks
            uses[masks, at] -= 1
        else:
            kept.append(order)
            recombined |= bit[at]
    if not np.array_equal(recombined, table):
        raise InternalError("decomposition union does not reproduce the function")
    return tuple(kept)
