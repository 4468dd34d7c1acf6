"""Choice functions over a finite contract universe.

A contract universe is the index range 0..n-1; subsets are bitmasks wrapped
in :class:`ContractSet`. A :class:`ChoiceFunction` maps every subset X to a
selection G(X) ⊆ X. Path independence (G(X∪Y) = G(G(X)∪Y), the Plott
condition) is equivalent to the pair Heredity + Outcast, which is what
:func:`is_plott` verifies. On top of that sit the closure operator G*, the
Nil-set of never-chosen contracts, unions of choice functions, and the
decomposition of a path-independent function into a union of linear-order
maximizers, built one order per uncovered demand (X, x) with x ∈ G(X), up
to the table cap. Orders, quotas and utility maximizers are one class,
:class:`OrderChoice`: the top q acceptable contracts along a linear order.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import cached_property, partial, update_wrapper
from itertools import count
from numbers import Integral
from threading import Lock

import numpy as np

from .errors import CapExceeded, EmptyList, InternalError, NotCertified, ParseError, UniverseMismatch

EXHAUSTIVE_CAP = 16
# Bounds of the one store of every per-value memo, in entries and table rows (see _Memo).
MEMO_ENTRIES = 1024
MEMO_ROWS = 1 << 19
CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])  # as functools'


def _bits(mask: int):
    """Yield set-bit indices of mask in ascending order, in time linear in its width."""
    digits = bin(mask)[:1:-1]  # digit i is bit i
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _lift(mask: int, place) -> int:
    """The mask of local indices j mapped to the global indices ``place[j]``."""
    out = 0
    for j in _bits(mask):
        out |= 1 << place[j]
    return out


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
        inner = ",".join(str(i) for i in self)
        return f"ContractSet(n={self.universe_size}, {{{inner}}})"


def format_set(X: ContractSet, labels=None) -> str:
    """Render a set as ``{a,b}`` using labels, in declaration (index) order."""
    if labels is None:
        return "{" + ",".join(str(i) for i in X) + "}"
    return "{" + ",".join(labels[i] for i in X) + "}"


def parse_set(text: str, labels, universe_size: int) -> ContractSet:
    """Parse a ``{a,b}`` literal against a label list; ParseError if it is malformed."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"expected a brace-delimited set, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ContractSet.empty(universe_size)
    index_of = {lab: i for i, lab in enumerate(labels)}
    indices = []
    for part in body.split(","):
        part = part.strip()
        if part not in index_of:
            raise ParseError(f"unknown contract label {part!r}")
        indices.append(index_of[part])
    return ContractSet.from_indices(universe_size, indices)


# ---------------------------------------------------------------------------
# Choice function representations
# ---------------------------------------------------------------------------


class ChoiceFunction:
    """Base class: a total selection map over subsets of one universe.

    Subclasses implement ``_choose_mask``; they are immutable and hashable,
    so full tables are memoized by value, and an aggregate keeps the rows
    it computes in a bounded cache. ``_gains`` tells for every c outside X whether
    c is chosen from X ∪ {c}: one chooser call per c by default, one kernel
    call per aggregate block.
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

    def _rechoose(self, old: int, chosen: int, new: int) -> int:
        """The choice on ``new``; ``chosen`` must be the exact choice on ``old``."""
        return self._choose_mask(new)

    def _table(self, masks: np.ndarray) -> np.ndarray:
        """The choice on every mask of ``masks`` (all subsets, ascending)."""
        return np.fromiter((self._choose_mask(m) for m in range(masks.size)),
                           dtype=np.int64, count=masks.size)

    def _kernels(self, place):
        """This function's choice and gains on global masks, local index j sitting at ``place[j]``.

        An aggregate compiles each part through it once; the default gathers
        the mask into local indices, applies the method, and lifts the result back.
        """
        pairs = tuple((1 << g, 1 << j) for j, g in enumerate(place))
        return partial(_local, self._choose_mask, pairs), partial(_local, self._gains, pairs)

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
    def _own(self):
        """The kernels on this function's own masks, built on first use."""
        return self._kernels(range(self.universe_size))

    def _choose_mask(self, xmask: int) -> int:
        return self._own[0](xmask)

    def _gains(self, xmask: int) -> int:
        return self._own[1](xmask)

    def _kernels(self, place):
        """Choice and gains straight on global bits, the acceptable ones best first; none at quota 0."""
        bits = tuple([1 << place[j] for j in self.order if self.acceptable_mask >> j & 1])
        q = self.quota
        return (partial(_top_choice, bits, sum(bits) if q else 0, q),
                partial(_top_gains, bits if q else (), q))

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


def _local(kernel, bit_pairs, xmask: int) -> int:
    """Gather xmask by (global, local) ``bit_pairs``, apply a part's kernel, lift back."""
    local = 0
    for gbit, lbit in bit_pairs:
        if xmask & gbit:
            local |= lbit
    picked = kernel(local)
    out = 0
    for gbit, lbit in bit_pairs:
        if picked & lbit:
            out |= gbit
    return out


def _runs(place) -> list[tuple[int, int, int]]:
    """(global start, local start, length) of each run of consecutive global indices in place."""
    runs = []
    for j, g in enumerate(place):
        if runs and runs[-1][0] + runs[-1][2] == g:
            runs[-1] = (runs[-1][0], runs[-1][1], runs[-1][2] + 1)
        else:
            runs.append((g, j, 1))
    return runs


def _gather(xs: np.ndarray, runs) -> np.ndarray:
    """The local masks of the global masks in xs, each run moved to its local start (a pext)."""
    local = np.zeros_like(xs)
    for g, j, k in runs:
        local |= (xs >> g & ((1 << k) - 1)) << j
    return local


def _scatter(local: np.ndarray, runs) -> np.ndarray:
    """The global masks of the local masks, each run moved to its global start (a pdep)."""
    out = np.zeros_like(local)
    for g, j, k in runs:
        out |= (local >> j & ((1 << k) - 1)) << g
    return out


class _Rows(dict):
    """Up to ``maxsize`` rows (ints) by set mask, emptied when full, with hit and miss counts."""

    maxsize, hits, misses = 256, 0, 0

    def add(self, key: int, row: int) -> int:
        """Keep a row computed on a miss; a hit is counted where it is read."""
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

    ``blocks[i]`` lists the global indices owned by part i, in the order that
    maps them onto that part's local universe 0..len(block)-1. The choice on X
    is the disjoint union of each part's choice on its slice of X.

    Each part is compiled once, through its ``_kernels``, into a choice and a
    gains kernel on global masks. A re-evaluation (``_rechoose``) visits only
    the blocks where the new set differs from the old, so an evaluation, a
    re-evaluation from the empty set, visits only the blocks that X touches.
    ``_gains`` makes one kernel call per nonempty block; a block inside X
    gains none. A whole table is gathered agent by agent (``_table``).

    A row cache keeps up to 256 answers by set mask in each of two
    stores, choices (``_choose_mask``, and ``_rechoose``, whose hint is
    trusted) and gains, and empties a full store before adding a row. A row
    is two ints of at most |C| bits: at most 2.7 MiB per aggregate at |C| =
    20,001 and 13.1 MiB at 100,002. Store steps are single dict calls, so
    threads may compute a row twice or lose a count, never read a wrong row.
    """

    universe_size: int
    blocks: tuple[tuple[int, ...], ...]
    parts: tuple[ChoiceFunction, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.parts):
            raise ValueError("one choice function per block required")
        n = self.universe_size
        owner, gain_kernels = [None] * n, []
        for block, part in zip(self.blocks, self.parts):
            if part.universe_size != len(block):
                raise ValueError("part universe must match its block size")
            mask = 0
            for g in block:
                if not 0 <= g < n or owner[g] is not None:  # outside, or owned already
                    raise ValueError("blocks must partition the universe")
                owner[g] = ()  # claimed; the block's entry replaces it below
                mask |= 1 << g
            if block:
                choose, gains = part._kernels(block)
                gain_kernels.append(gains)
                entry = (mask, choose)
                for g in block:
                    owner[g] = entry
        if None in owner:
            raise ValueError("blocks must cover the whole universe")
        # contract -> (its block's global mask, that block's choice kernel); not fields
        object.__setattr__(self, "_owner", tuple(owner))
        object.__setattr__(self, "_gain_kernels", tuple(gain_kernels))
        object.__setattr__(self, "_chosen", _Rows())
        object.__setattr__(self, "_gained", _Rows())

    def cache_info(self) -> CacheInfo:
        """The row cache's hits, misses, bound and entries, both stores summed."""
        return _cache_info(self._chosen, self._gained)

    def __reduce__(self):
        """A copy or a pickle carries the three fields, not the kernels or the row stores."""
        return Aggregate, (self.universe_size, self.blocks, self.parts)

    def _choose_mask(self, xmask: int) -> int:
        return self._rechoose(0, 0, xmask)

    def _gains(self, xmask: int) -> int:
        gains = self._gained.get(xmask)
        if gains is not None:
            self._gained.hits += 1
            return gains
        gains = 0
        for gain in self._gain_kernels:  # each reads only its own block's bits of xmask
            gains |= gain(xmask)
        return self._gained.add(xmask, gains)

    def _rechoose(self, old: int, chosen: int, new: int) -> int:
        row = self._chosen.get(new)
        if row is not None:
            self._chosen.hits += 1
            return row
        owner, diff = self._owner, old ^ new
        while diff:
            block, choose = owner[diff.bit_length() - 1]
            chosen ^= (chosen & block) ^ choose(new & block)
            diff ^= diff & block
        return self._chosen.add(new, chosen)

    def _table(self, masks: np.ndarray) -> np.ndarray:
        agents = _agents(self)
        return _choose(agents, _slices(agents, masks), masks)


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
    key (what an ExplicitTable holds) plus the value's own (2^k for a table,
    4^k for a relation matrix, 16 per order of about 330 bytes). A row
    takes at most 40 bytes (a pointer and an int in a table's tuple) and an
    entry at most 4 KiB more, so the store holds at most 24 MiB in all. A
    value is computed outside the lock that guards every step, so memos may
    call each other. An exception or a None is never kept.
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
        with self._lock:
            entry = self._store.get(at)
            if entry is not None:
                self._order.move_to_end(entry[2])
                self.hits += 1
                return entry[0]
            self.misses += 1
        value = self.__wrapped__(key)
        if value is None:
            return None
        entry = value, self.charge(key, value), next(self._tickets)
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


@partial(_Memo, lambda cf, table: 2 << cf.universe_size)
def choice_table(cf: ChoiceFunction) -> np.ndarray:
    """The function's full table as a read-only array indexed by subset mask.

    Only available up to EXHAUSTIVE_CAP contracts; each class builds its
    own in ``_table``. The exhaustive checks read the table of the function
    they check, and enumeration reads one table per agent, never a whole
    side's (a catalog's fingerprint does, when it is read). Tables are kept
    by value (see _Memo), so an agent that recurs from one market to the
    next is looked up, not rebuilt. A function over the cap is refused on
    every call.
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


def _blocks(cf: ChoiceFunction) -> list[tuple[tuple[int, ...], ChoiceFunction]]:
    """An aggregate's (block, part) pairs; any other function is one agent over range(n)."""
    if isinstance(cf, Aggregate):
        return list(zip(cf.blocks, cf.parts))
    return [(tuple(range(cf.universe_size)), cf)]


def _agents(cf: ChoiceFunction) -> list[tuple[tuple[int, ...], list, np.ndarray, np.ndarray]]:
    """Each agent of a side (see _blocks) as (block, runs, its table, the table on global bits)."""
    agents = []
    for block, part in _blocks(cf):
        runs, table = _runs(block), choice_table(part)
        agents.append((block, runs, table, _scatter(table, runs)))
    return agents


def _slices(agents, xs: np.ndarray) -> list[np.ndarray]:
    """Each agent's local masks of its slice of every global mask in xs."""
    return [_gather(xs, runs) for _, runs, _, _ in agents]


def _choose(agents, slices, xs: np.ndarray) -> np.ndarray:
    """A side's choice on each mask in xs, from its agents' slices: their choices' union."""
    chosen = np.zeros_like(xs)
    for (_, _, _, lifted), local in zip(agents, slices):
        chosen |= lifted[local]
    return chosen


def _gains(agents, slices, xs: np.ndarray) -> np.ndarray:
    """For each mask in xs, the contracts c outside it chosen from it plus c alone."""
    gains = np.zeros_like(xs)
    for (block, _, _, lifted), local in zip(agents, slices):
        for j, g in enumerate(block):
            gains |= lifted[local | 1 << j] & 1 << g
    return gains & ~xs


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


def _rank_keys(masks: np.ndarray, place) -> np.ndarray:
    """Renumber local masks so that integer order is the order of their lifts.

    Local index j becomes its rank among ``place``; a lifted mask compares by
    its highest global bit, so ranks preserve that order in k bits.
    """
    if list(place) == sorted(place):
        return masks
    keys = np.zeros_like(masks)
    for r, j in enumerate(sorted(range(len(place)), key=place.__getitem__)):
        keys |= (masks >> j & 1) << r
    return keys


def _violation_scan(table: np.ndarray, n: int, place):
    """The least Plott violation in a table, lifted through ``place``.

    One pass over the one-element removals A = B∖{c} of every row B ∋ c
    records the least violation of each axiom: Heredity fails when some
    element of G(B) ∩ A is not in G(A), Outcast when c ∉ G(B) yet G(A) ≠
    G(B). Rows are ordered by their lifts, ties broken by ``place[c]``; the
    Heredity witness names its lowest offending element in that order.
    Returns ``_plott_witness``'s tuples: Heredity first, then Outcast.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    keys = _rank_keys(masks, place)
    least = [None, None]  # per axiom: (row key, place[c], row, c)
    for c in range(n):
        bit = 1 << c
        rows = masks[(masks & bit) != 0]
        subs = rows ^ bit
        chosen, kept = table[rows], table[subs]
        for axiom, bad in enumerate(((chosen & subs & ~kept) != 0,
                                     ((chosen & bit) == 0) & (kept != chosen))):
            hits = rows[bad]
            if hits.size:
                row = int(hits[np.argmin(keys[hits])])
                hit = (int(keys[row]), place[c], row, c)
                if least[axiom] is None or hit < least[axiom]:
                    least[axiom] = hit
    heredity, outcast = least
    if heredity is not None:
        *_, b, c = heredity
        a = b ^ (1 << c)
        element = min(_bits(int(table[b]) & a & ~int(table[a])), key=place.__getitem__)
        return 0, _lift(b, place), _lift(a, place), place[element]
    if outcast is not None:
        *_, x, c = outcast
        return 1, _lift(x, place), _lift(x ^ (1 << c), place)
    return None


@partial(_Memo, lambda cf, clean: 1 << cf.universe_size)
def _proven(cf: ChoiceFunction):
    """True when cf's own table is path independent, else None, which is not kept."""
    n = cf.universe_size
    return _violation_scan(choice_table(cf), n, range(n)) is None or None


def _plott_witness(cf: ChoiceFunction, place):
    """The least Plott violation of cf, with masks lifted through ``place``.

    Returns None when cf is path independent, else ``(0, B, A, element)``
    for Heredity or ``(1, X, Y)`` for Outcast, so that tuple order puts
    Heredity first and then the least set. An OrderChoice is path
    independent by construction, and so is any union of path
    independent functions (Aizerman–Malishevski). An aggregate acts on each
    block alone, G(X) = ∪ G_i(X ∩ block_i), so it is path independent
    exactly when every part is, and each violation of a part, with the
    other blocks empty, is the least violation of the whole with that
    contract. Everything else is scanned over its own table, which must fit
    under EXHAUSTIVE_CAP; a clean table's verdict is kept (see
    _proven), and only a table that fails there is scanned for its witness.
    """
    if type(cf) is OrderChoice:
        return None
    if type(cf) is Aggregate:
        hits = (_plott_witness(part, tuple(map(place.__getitem__, block)))
                for block, part in zip(cf.blocks, cf.parts) if type(part) is not OrderChoice)
        return min((w for w in hits if w is not None), default=None)
    if type(cf) is UnionChoice and all(
            _plott_witness(part, place) is None for part in cf.parts):
        return None
    n = cf.universe_size
    _fit("exhaustive check", n)
    if _proven(cf):
        return None
    return _violation_scan(choice_table(cf), n, place)


def _dominates(F: ChoiceFunction, F2: ChoiceFunction):
    """Check choose(F,X) ⊆ choose(F2,X) everywhere; returns the least failing X mask or None.

    Exact at any size when F and F2 choose over the same blocks (see
    _blocks): both choose block by block, so dominance holds exactly when it
    holds on every block whose parts differ, and a block's least failing
    slice, with the other blocks empty, is the least failing set of the
    whole with a contract there. Those blocks, and two functions over
    different blocks, are compared through whole tables, which must fit
    under the table limit.
    """
    ours, theirs = _blocks(F), _blocks(F2)
    if [block for block, _ in ours] != [block for block, _ in theirs]:
        ours, theirs = [(range(F.universe_size), F)], [(range(F.universe_size), F2)]
    pairs = [(block, p, q) for (block, p), (_, q) in zip(ours, theirs) if p != q]
    for block, _, _ in pairs:
        _fit("dominance check", len(block))
    least = None
    for block, p, q in pairs:
        bad = (choice_table(p) & ~choice_table(q)).nonzero()[0]
        if bad.size:
            x = _lift(int(bad[np.argmin(_rank_keys(bad, block))]), block)
            least = x if least is None else min(least, x)
    return least


def is_plott(cf: ChoiceFunction) -> PlottReport:
    """Check Heredity and Outcast, whose conjunction is path independence.

    Exact at any universe size. The check walks the structure of cf: an
    OrderChoice passes by construction, a union passes when its parts do,
    and an aggregate is path independent exactly when every block's part
    is, because it chooses block by block. Only the remaining tables
    (explicit ones, failing unions, other functions) are scanned, every
    one-element removal over their own 2^k rows, which by induction decides
    both axioms over all subset pairs; each scanned table must fit under
    the limit, EXHAUSTIVE_CAP, on every call. Tables found path independent
    are memoized by value (see _Memo); a failing one is scanned on every
    call, so that its witness is placed by that call. The witness is the one
    a scan of the whole function's table would return: heredity first, then
    the least set.
    """
    n = cf.universe_size
    hit = _plott_witness(cf, range(n))
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
    closure is all but ``_gains(X)``: one kernel call per aggregate block.
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
    covers gets a new order. (Such an X holds no Nil contract: the order
    that covers X minus them covers X too.) The order starts from R = the
    non-Nil contracts and ranks next, and removes from R, the lowest member
    of f(R) outside X, until f(R) ⊆ X ⊆ R. Outcast then gives f(X) = f(R),
    so x ∈ f(R) is ranked next (checked), and the lowest member of f(R)
    follows each time until R is empty. Each step ranks a member of f(R)
    above the rest of R, so the order is pointwise inferior to f, and it
    picks x from X. A forward pass then drops every order whose demands the
    others still cover. Each order is marked by its own table, kept as one
    byte per subset and out of the choice-table cache.

    Every returned order ranks all contracts, the Nil ones last, accepts
    exactly the non-Nil ones, and is pointwise inferior to f; their union
    reproduces f on every subset (asserted when it is built). The result is
    deterministic but neither canonical nor minimum-size.

    The limit, EXHAUSTIVE_CAP, is checked on every call. Behind it the
    orders are built once per function value (see _Memo); each call returns
    a new list of them. A function that is not path independent raises
    NotCertified on every call.
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
