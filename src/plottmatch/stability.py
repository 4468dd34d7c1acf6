"""Stability of contract sets and the improvement dynamics on semi-stable pairs.

A market is a pair of choice functions F (workers) and G (firms) over one
contract universe. A set S is stable when both sides keep it (S1) and no
outside contract is wanted by both (S2). The Φ update Y' = Y ∪ F(Z),
Z' = (Z ∖ F(Z)) ∪ G(F(Z)) maps semi-stable pairs to semi-stable pairs and
reaches a fixpoint whose set F(Z) = G(Y) is stable. On top of σ (the
fixpoint map) sit side optima, the lattice operations and comparative statics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .choice import (
    CacheInfo,
    ChoiceFunction,
    ContractSet,
    PlottReport,
    _cache_info,
    _coords,
    _dominates,
    _mask,
    _members,
    _Rows,
    _split,
    format_set,
    is_plott,
)
from .errors import (
    EmptyList,
    InternalError,
    NotCertified,
    NotDominated,
    NotSemiStable,
    NotStable,
    UniverseMismatch,
)
from .hyperorders import blair_leq


@dataclass(frozen=True)
class SidePair:
    """The two sides of a market: F (workers) and G (firms) on one universe.

    ``f_report`` and ``g_report`` are the sides' path-independence checks;
    the dynamics refuse to run uncertified. ``universe_size``, ``certified``
    (both reports present and path independent) and three stores are not
    fields. A pair answers a query once, for either side proposing: the
    stores keep σ's stable set by (y, z, flip), flip when G proposes
    (``_fixpoints``); the mask pair (C − G's gains, C − F's gains) of each S
    that passed is_stable_set or enumerate_stable_sets found (``_pairs``),
    its closures on a certified pair; and σ's rounds from C, one per
    proposer (``_chains``, see _sigma). Each holds up to 256 answers,
    emptied when full, and ``cache_info`` sums all three. No failure is
    kept; threads may compute an answer twice, never read a wrong one.
    """

    F: ChoiceFunction
    G: ChoiceFunction
    f_report: PlottReport | None = None
    g_report: PlottReport | None = None

    def __post_init__(self):
        if self.F.universe_size != self.G.universe_size:
            raise UniverseMismatch("both sides must share one universe")
        f, g = self.f_report, self.g_report
        object.__setattr__(self, "universe_size", self.F.universe_size)
        object.__setattr__(self, "certified", bool(f and g and f.is_plott and g.is_plott))
        object.__setattr__(self, "_fixpoints", _Rows())  # σ's stable set by (y, z, flip)
        object.__setattr__(self, "_pairs", _Rows())  # the mask pair of each stable set
        object.__setattr__(self, "_chains", _Rows())  # σ's rounds by (C, flip)

    def swap(self) -> "SidePair":
        """The same market with the roles of the two sides exchanged, with empty stores."""
        return SidePair(self.G, self.F, self.g_report, self.f_report)

    def cache_info(self) -> CacheInfo:
        """The three stores' hits, misses, bounds and entries, summed."""
        return _cache_info(self._fixpoints, self._pairs, self._chains)

    def __reduce__(self):
        """A copy or a pickle carries the four fields, not the stores."""
        return SidePair, (self.F, self.G, self.f_report, self.g_report)

    def require_certified(self):
        """Raise NotCertified unless both sides are certified, naming a failed side."""
        if self.certified:
            return
        for name, report in (("F", self.f_report), ("G", self.g_report)):
            if report is not None and not report.is_plott:
                raise NotCertified(f"side {name} is not path-independent")
        raise NotCertified("operation requires both sides certified path-independent")


def side_pair(F: ChoiceFunction, G: ChoiceFunction, *, certify: bool = True) -> SidePair:
    """Pair two sides, checking path independence of both (exactly, see is_plott) unless told
    not to; the universes are checked first."""
    certify = certify and F.universe_size == G.universe_size  # else SidePair refuses the pair
    return SidePair(F, G, is_plott(F), is_plott(G)) if certify else SidePair(F, G)


@dataclass(frozen=True)
class SemiStablePair:
    """A pair (Y, Z) with Y ∪ Z = C and choose(G, Y) ⊆ choose(F, Z)."""

    Y: ContractSet
    Z: ContractSet


@dataclass(frozen=True)
class StablePair:
    """A pair with Y ∪ Z = C and choose(G, Y) = choose(F, Z) = S."""

    Y: ContractSet
    Z: ContractSet
    S: ContractSet


@dataclass(frozen=True)
class ProcessTrace:
    """A full Φ run as σ found it: its first and last (Y, Z) masks, each step's changes, S.

    ``changes[t]`` holds step t's picks (the contracts that entered F(Z)
    there, all of F(Z₀) at step 0) and rejections (F(Z) ∖ G(F(Z))). By
    Heredity F(Z) loses only rejected contracts, so ``_walk`` reads every
    step's sets off this record; ``steps`` and ``result`` are built when first read.
    """

    universe_size: int
    start: tuple[int, int]
    changes: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    end: tuple[int, int]
    stable_mask: int

    def _walk(self):
        """Each step's (Y, Z, F(Z), G(F(Z))) masks, no side asked: F(Z) is the last one within Z
        plus the picks, G(F(Z)) is F(Z) minus the rejections, and both are S at the fixpoint."""
        n, (y, z), fz = self.universe_size, self.start, 0
        for picked, rejected in self.changes:
            fz, dropped = (fz & z) | _mask(n, picked), _mask(n, rejected)
            yield y, z, fz, fz & ~dropped
            y, z = y | fz, z & ~dropped
        yield y, z, self.stable_mask, self.stable_mask

    @cached_property
    def steps(self) -> tuple[SemiStablePair, ...]:
        n = self.universe_size
        return tuple(SemiStablePair(ContractSet(n, y), ContractSet(n, z))
                     for y, z, *_ in self._walk())

    @cached_property
    def result(self) -> StablePair:
        n, (y, z) = self.universe_size, self.end
        return StablePair(ContractSet(n, y), ContractSet(n, z), ContractSet(n, self.stable_mask))

    @property
    def terminated_at(self) -> int:
        """The index of the fixpoint in ``steps``."""
        return len(self.changes)


@dataclass(frozen=True)
class StabilityCheck:
    """Stability verdict with the failure kind and offender when unstable.

    ``condition`` is "S1" (a side rejects part of S; ``side`` says which)
    or "S2" (some outside contract blocks; ``contract`` names it).
    """

    stable: bool
    condition: str | None = None
    side: str | None = None
    contract: int | None = None

    def __bool__(self) -> bool:
        return self.stable


def _scan(sides: SidePair, S: ContractSet):
    """S's mask pair (C − G's gains, C − F's gains), kept by S, if S is stable; else its failure.

    Each agent's own function runs on its slice of S: S1 holds when every
    agent keeps its slice, and S2 is its definition, the contracts outside S
    that both sides' agents gain. A kept set is one lookup.
    """
    n = sides.universe_size
    if S.universe_size != n:
        raise UniverseMismatch("set outside the market universe")
    store, s = sides._pairs, S.mask
    pair = store.get(s)
    if pair is not None:
        store.hits += 1
        return pair
    gains = []
    for side, cf in (("F", sides.F), ("G", sides.G)):
        blocks, parts, *_ = record = _coords(cf)
        slices = _split(record, s)
        if any(part._choose_mask(x) != x for part, x in zip(parts, slices) if x):
            return StabilityCheck(False, "S1", side=side)
        gains.append(_mask(n, _members(blocks, enumerate(
            part._gains(x) for part, x in zip(parts, slices)))))
    f, g = gains
    if blocking := f & g:
        return StabilityCheck(False, "S2", contract=(blocking & -blocking).bit_length() - 1)
    return store.add(s, (((1 << n) - 1) ^ g, ((1 << n) - 1) ^ f))


def is_stable_set(sides: SidePair, S: ContractSet) -> StabilityCheck:
    """Check S1 (both sides keep S) and S2 (no outside contract blocks).

    S1 is checked for F before G; the lowest blocking contract is the S2
    witness. Exact whether or not the sides are path independent. A set
    that passes keeps the stable pair its scan built (see SidePair).
    """
    found = _scan(sides, S)
    return StabilityCheck(True) if type(found) is tuple else found


def _ssp_check(n: int, y: int, z: int, gy: int, fz: int):
    """SSP1 and SSP2 on masks y, z whose choices are gy = choose(G,y), fz = choose(F,z)."""
    if y | z != (1 << n) - 1:
        raise NotSemiStable("SSP1 fails: Y and Z do not cover the universe")
    if gy & ~fz:
        raise NotSemiStable("SSP2 fails: choose(G,Y) is not within choose(F,Z)")


def semi_stable_pair(sides: SidePair, Y: ContractSet, Z: ContractSet) -> SemiStablePair:
    """Validate SSP1 (Y ∪ Z = C) and SSP2 (choose(G,Y) ⊆ choose(F,Z)).

    σ's start rule (see _sigma): F(Z) first, then G(Y) only when Y ⊄ F(Z),
    since a choice lies within its argument (see ChoiceFunction).
    """
    n, y, z = sides.universe_size, Y.mask, Z.mask
    if Y.universe_size != n or Z.universe_size != n:
        raise UniverseMismatch("pair outside the market universe")
    fz = sides.F._choose_mask(z)
    _ssp_check(n, y, z, sides.G._choose_mask(y) if y & ~fz else 0, fz)
    return SemiStablePair(Y, Z)


def phi_step(sides: SidePair, p: SemiStablePair) -> SemiStablePair:
    """One update Y' = Y ∪ F(Z), Z' = (Z ∖ F(Z)) ∪ G(F(Z)).

    The input is revalidated by semi_stable_pair, which asks G only when
    Y ⊄ F(Z); the output is again semi-stable and moves up in the (Y grows,
    Z shrinks) order, both enforced. The step's choices and the output's
    checks are full evaluations.
    """
    sides.require_certified()
    semi_stable_pair(sides, p.Y, p.Z)
    F, G, n, (py, pz) = sides.F, sides.G, sides.universe_size, (p.Y.mask, p.Z.mask)
    fz = F._choose_mask(pz)
    y, z = py | fz, (pz & ~fz) | G._choose_mask(fz)
    try:
        _ssp_check(n, y, z, G._choose_mask(y), F._choose_mask(z))
    except NotSemiStable as exc:
        raise InternalError("update left the semi-stable family") from exc
    if py & ~y or z & ~pz:
        raise InternalError("update left the componentwise order")
    return SemiStablePair(ContractSet(n, y), ContractSet(n, z))


def _chain(F: ChoiceFunction, G: ChoiceFunction, y: int, z: int, gy: int | None, fz: int):
    """Φ from a semi-stable (y, z) that is not its fixpoint, F proposing, on agent slices.

    fz = F(z), and gy = G(y) or None when y ⊆ fz; then a firm's G(Y) starts
    as its G(F(Z₀)), re-chosen in round 1 if its Y grows. Agents hold local
    slices (see Aggregate). A round drops the rejected contracts from their
    workers' Z and re-chooses those workers, then the firms whose F(Z) or Y
    changed; as Y ⊇ F(Z) after a round, the next offers are their F(Z)
    outside Y. Each round checks SSP2 there, the end G(F(Z)) = F(Z) = G(Y)
    everywhere; over |C|+2 rounds raise InternalError. Returns (fz, each
    round's picks and rejected contracts as ProcessTrace keeps them, the
    last Y ∖ Y₀, Z and S).
    """
    n = F.universe_size
    f_blocks, f_parts, f_agent, f_position = f_side = _coords(F)
    g_blocks, g_parts, g_agent, g_position = g_side = _coords(G)
    zs, fs = _split(f_side, z), _split(f_side, fz)
    gs, ys = _split(g_side, fz), _split(g_side, y)
    held = [part._choose_mask(x) if x else 0 for part, x in zip(g_parts, gs)]  # G(F(Z)) by firm
    yg = list(held) if gy is None else _split(g_side, gy)  # G(Y) by firm
    firms, offers, rounds = range(len(g_parts)), {b: x for b, x in enumerate(gs) if x}, []
    picks = _members(g_blocks, offers.items())
    while True:
        rejected = _members(g_blocks, [(b, gs[b] ^ held[b]) for b in firms if gs[b] != held[b]])
        if not rejected and not offers:
            break
        if len(rounds) > n + 1:
            raise InternalError("dynamics exceeded the |C|+2 step bound")
        rounds.append((tuple(picks), tuple(rejected)))
        grown, firms, picks = {b for b, x in offers.items() if x & ~ys[b]}, set(), []
        for b in grown:  # the firms whose Y grows
            ys[b] |= offers[b]
        for c in rejected:
            zs[f_agent[c]] &= ~(1 << f_position[c])
        for a in {f_agent[c] for c in rejected}:
            new, block = f_parts[a]._choose_mask(zs[a]), f_blocks[a]
            flips, fs[a] = new ^ fs[a], new
            while flips:  # each changed pick moves to its firm
                low = flips & -flips
                flips ^= low
                c = block[low.bit_length() - 1]
                if new & low:
                    picks.append(c)
                firms.add(b := g_agent[c])
                gs[b] ^= 1 << g_position[c]
        offers = {b: x for b in firms if (x := gs[b] & ~ys[b])}
        for b in firms:
            held[b] = g_parts[b]._choose_mask(gs[b])
        for b in grown:
            yg[b] = held[b] if ys[b] == gs[b] else g_parts[b]._choose_mask(ys[b])
        if any(yg[b] & ~gs[b] for b in firms | grown):
            raise InternalError("update left the semi-stable family")
    if held != gs:
        raise InternalError("fixpoint reached with choose(G,choose(F,Z)) != choose(F,Z)")
    if yg != gs:
        raise InternalError("fixpoint reached with choose(G,Y) != choose(F,Z)")
    return (fz, tuple(rounds), fz | _mask(n, [c for o, _ in rounds[1:] for c in o]),
            z & ~_mask(n, [c for _, r in rounds for c in r]),
            _mask(n, _members(f_blocks, enumerate(fs))))


def _sigma(F: ChoiceFunction, G: ChoiceFunction, y: int, z: int, chains: _Rows, flip: bool):
    """σ on masks, F proposing, from a semi-stable (y, z): (each step's changes, the last (Y, Z), S).

    Every start is checked by one rule: F(Z₀) is read first, from a kept
    chain when one serves the start, and G(Y₀) is asked only when Y₀ ⊄ F(Z₀)
    (else G(Y₀) ⊆ Y₀ ⊆ F(Z₀), see ChoiceFunction). A start with F(Z₀) ⊆ Y₀
    and G(F(Z₀)) = F(Z₀) is Φ's fixpoint, answered without rounds. Since
    Z′ = Z ∖ (F(Z) ∖ G(F(Z))) reads Z alone, the rounds (see _chain) of a
    start that did not ask G(Y₀) serve every start within F(Z₀) with that
    Z₀; they are kept in ``chains`` by (z, flip), and SSP1 makes z = C.
    """
    chain = chains.get((z, flip))
    if chain is not None and not y & ~chain[0]:
        chains.hits += 1
        fz = chain[0]
    else:
        chain, fz = None, F._choose_mask(z)
    gy = G._choose_mask(y) if y & ~fz else None
    _ssp_check(F.universe_size, y, z, gy or 0, fz)
    if not fz & ~y and G._choose_mask(fz) == fz:  # (y, z) is the fixpoint
        if gy is not None and gy != fz:
            raise InternalError("fixpoint reached with choose(G,Y) != choose(F,Z)")
        return (), (y, z), fz
    if chain is None:
        chain = _chain(F, G, y, z, gy, fz)
        if gy is None:
            chains.add((z, flip), chain)
    _, rounds, u, z_end, s = chain
    return rounds, (y | u, z_end), s


def _fixpoint(sides: SidePair, y: int, z: int, flip: bool = False) -> int:
    """σ's stable set from masks (y, z), as ``_sigma`` finds it (G proposing if flip); kept."""
    key, store = (y, z, flip), sides._fixpoints
    s = store.get(key)
    if s is None:
        F, G = (sides.G, sides.F) if flip else (sides.F, sides.G)
        return store.add(key, _sigma(F, G, y, z, sides._chains, flip)[2])
    store.hits += 1
    return s


def run_to_fixpoint(sides: SidePair, p0: SemiStablePair) -> ProcessTrace:
    """Iterate Φ from p0 until it stops moving; the fixpoint yields a stable set.

    σ runs on masks (``_sigma``), and the trace keeps each step's changed
    contracts; masks and step objects are built only when they are read.
    """
    sides.require_certified()
    n = sides.universe_size
    if p0.Y.universe_size != n or p0.Z.universe_size != n:
        raise UniverseMismatch("pair outside the market universe")
    start = p0.Y.mask, p0.Z.mask
    return ProcessTrace(n, start, *_sigma(sides.F, sides.G, *start, sides._chains, False))


def format_trace(trace: ProcessTrace, labels=None):
    """Yield a run's lines, one per step with its newline, showing the quantities Φ reads.

    Every set is read off σ's record (see ProcessTrace); no side is asked.
    """
    n = trace.universe_size
    for k, masks in enumerate(trace._walk()):
        y, z, fz, gfz = (format_set(ContractSet(n, m), labels) for m in masks)
        yield f"step {k}: Y={y} Z={z} F(Z)={fz} G(F(Z))={gfz}\n"


def _closures(sides: SidePair, S: ContractSet) -> tuple[int, int]:
    """The masks of (closure_star(G,S), closure_star(F,S)) of a stable set S, kept by S.

    Read off is_stable_set's scan: by Outcast each closure is C minus that
    side's gains, which S2 computes. Raises NotStable naming the condition
    that fails. Only a certified pair's masks are closures (see SidePair).
    """
    found = _scan(sides, S)
    if type(found) is not tuple:
        raise NotStable(f"set fails {found.condition}")
    return found


def set_to_pair(sides: SidePair, S: ContractSet) -> StablePair:
    """The stable pair (closure_star(G,S), closure_star(F,S)) of a stable set; NotStable if not."""
    sides.require_certified()
    return StablePair(*(ContractSet(sides.universe_size, m) for m in _closures(sides, S)), S)


def side_optimal(sides: SidePair, favored: str) -> ContractSet:
    """The stable set best for one side: σ(∅, C) on masks, run with that side proposing.

    No step objects are built; run_to_fixpoint returns the same set with a
    trace. The pair keeps the answer for either side (see SidePair), so
    only the first call runs σ; the checks run on every call.
    """
    if favored not in ("F", "G"):
        raise ValueError("favored must be 'F' or 'G'")
    sides.require_certified()
    n = sides.universe_size
    return ContractSet(n, _fixpoint(sides, 0, (1 << n) - 1, favored == "G"))


def _join(sides: SidePair, stable_sets, flip: bool) -> ContractSet:
    """lattice_join, or with flip the join of the swapped market: each pair's halves exchanged."""
    sides.require_certified()
    pairs = [_closures(sides, S)[::-1 if flip else 1] for S in stable_sets]
    if not pairs:
        raise EmptyList("join of zero stable sets")
    y, z = 0, (1 << sides.universe_size) - 1
    for cy, cz in pairs:
        y, z = y | cy, z & cz
    try:  # a theorem makes the start semi-stable
        return ContractSet(sides.universe_size, _fixpoint(sides, y, z, flip))
    except NotSemiStable as exc:
        raise InternalError("union/intersection of stable pairs not semi-stable") from exc


def lattice_join(sides: SidePair, stable_sets) -> ContractSet:
    """Least upper bound of stable sets in the firm-side Blair order.

    Forms Y = ∪ closure_star(G,S_i), Z = ∩ closure_star(F,S_i), which is
    semi-stable, and runs σ; minimality of σ among stable sets above the
    start makes the result the join. The pair keeps the closures and σ's
    answer (see SidePair); certification and universes are checked every call.
    """
    return _join(sides, stable_sets, False)


def lattice_meet(sides: SidePair, stable_sets) -> ContractSet:
    """Greatest lower bound in the firm-side order: the join with the sides' roles exchanged."""
    return _join(sides, stable_sets, True)


def blair_compare_stable(sides: SidePair, S: ContractSet, T: ContractSet) -> str:
    """Compare stable sets in the firm-side Blair order.

    Returns "less", "greater", "equal", or "incomparable"; both directions
    holding forces S = T (antisymmetry on stable sets), which is asserted.
    Stability is checked through the pair's store, as set_to_pair does.
    """
    sides.require_certified()
    for X in (S, T):
        _closures(sides, X)  # NotStable unless X is stable
    st = blair_leq(sides.G, S, T)
    ts = blair_leq(sides.G, T, S)
    if st and ts:
        if S != T:
            raise InternalError("Blair order not antisymmetric on stable sets")
        return "equal"
    if st:
        return "less"
    if ts:
        return "greater"
    return "incomparable"


def comparative_statics(sides: SidePair, f_prime: ChoiceFunction,
                        S: ContractSet) -> ContractSet:
    """Re-solve after weakening the worker side from F to F′ ≥ F.

    Starting from the stable pair of S, the pair (closure_star(G,S),
    closure_star(F′, closure_star(F,S))) is semi-stable under (F′, G);
    σ from there yields S′ with S ⪯_G S′ and S′ ⪯_F S (original F), both
    asserted. Dominance of F′ over F is verified exactly, not assumed.
    """
    sides.require_certified()
    if f_prime.universe_size != sides.universe_size:
        raise UniverseMismatch("weakened side outside the market universe")
    witness = _dominates(sides.F, f_prime)
    if witness is not None:
        X = ContractSet(sides.universe_size, witness)
        raise NotDominated(f"choose(F,X) not within choose(F',X) at X={format_set(X)}", X)
    if not is_plott(f_prime).is_plott:
        raise NotCertified("weakened side is not path-independent")
    n = sides.universe_size
    y, z = _closures(sides, S)
    z = ((1 << n) - 1) ^ f_prime._gains(z)  # closure_star(F′, z)
    try:
        s_prime = ContractSet(n, _sigma(f_prime, sides.G, y, z, _Rows(), False)[2])
    except NotSemiStable as exc:
        raise InternalError("statics start pair not semi-stable") from exc
    if not blair_leq(sides.G, S, s_prime):
        raise InternalError("statics result not above S in the firm-side order")
    if not blair_leq(sides.F, s_prime, S):
        raise InternalError("statics result not below S in the original worker order")
    return s_prime
