"""Stability of contract sets and the improvement dynamics on semi-stable pairs.

A two-sided market is a pair of choice functions F (the worker side) and G
(the firm side) over one contract universe. A set S is stable when both
sides keep it (S1) and no outside contract is wanted by both (S2). Stable
sets correspond to stable pairs (Y, Z) of closures; the Φ update

    Y' = Y ∪ F(Z),   Z' = (Z ∖ F(Z)) ∪ G(F(Z))

maps semi-stable pairs to semi-stable pairs, grows Y, shrinks Z, and
reaches a fixpoint whose set F(Z) = G(Y) is stable. On top of σ (the
fixpoint map) sit side-optimal solutions, the lattice operations on stable
sets, and comparative statics under a weakened worker side.
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
    _dominates,
    _Rows,
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
    the dynamics and everything built on it refuse to run uncertified. The
    fixed facts ``universe_size`` and ``certified`` (both reports present
    and path independent) are set once when the pair is built, not fields.

    A pair answers a query once, for either side proposing: stability and
    both closures do not depend on which side is called F, and σ's keys
    carry the proposer. Two stores, made with the pair and not fields
    (equality, hash and repr are the four fields'), keep σ's stable set
    mask by the key (y, z, flip), flip when G proposes (``_fixpoints``;
    run_to_fixpoint does not read it), and the mask pair (C − G's gains,
    C − F's gains) that is_stable_set's S2 scan built, by the mask of each
    S that passed (``_pairs``). Only on a certified pair are those
    (closure_star(G,S), closure_star(F,S)), so its other readers check
    certification first. Each holds up to 256 answers, is emptied when full
    and counts hits and misses (``cache_info``). A key and its answer are
    three masks of |C| bits, so a full store holds 1.8 MiB at |C| = 20,001
    (2.0 MiB traced). Checks run before a store is read, and no failure is
    kept. Store steps are single dict calls: threads may compute an answer
    twice or lose a count, never read a wrong one.
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

    def swap(self) -> "SidePair":
        """The same market with the roles of the two sides exchanged, with empty stores."""
        return SidePair(self.G, self.F, self.g_report, self.f_report)

    def cache_info(self) -> CacheInfo:
        """The stores' hits, misses, bound and entries, both summed."""
        return _cache_info(self._fixpoints, self._pairs)

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
    """Pair two sides, checking path independence of both unless told not to.

    The check is exact at any size: a side that acts block by block is path
    independent exactly when every agent's function is (see is_plott).
    """
    sides = SidePair(F, G)  # the universes are checked before either side is certified
    return SidePair(F, G, is_plott(F), is_plott(G)) if certify else sides


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
    """A full Φ run as σ found it: the masks of each visited (Y, Z) and of the stable set.

    ``steps`` and ``result`` are built from the masks when first read.
    """

    universe_size: int
    masks: tuple[tuple[int, int], ...]
    stable_mask: int

    @cached_property
    def steps(self) -> tuple[SemiStablePair, ...]:
        n = self.universe_size
        return tuple(SemiStablePair(ContractSet(n, y), ContractSet(n, z)) for y, z in self.masks)

    @cached_property
    def result(self) -> StablePair:
        n, (y, z) = self.universe_size, self.masks[-1]
        return StablePair(ContractSet(n, y), ContractSet(n, z), ContractSet(n, self.stable_mask))

    @property
    def terminated_at(self) -> int:
        """The index of the fixpoint in ``steps``."""
        return len(self.masks) - 1


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

    S2 is its definition, the contracts c outside S that both sides choose
    from S ∪ {c}: one ``_gains`` call per side. A kept set is one lookup,
    neither side evaluated; the pair returned is the one added, never read back.
    """
    if S.universe_size != sides.universe_size:
        raise UniverseMismatch("set outside the market universe")
    store, s = sides._pairs, S.mask
    pair = store.get(s)
    if pair is not None:
        store.hits += 1
        return pair
    if sides.F._choose_mask(s) != s:
        return StabilityCheck(False, "S1", side="F")
    if sides.G._choose_mask(s) != s:
        return StabilityCheck(False, "S1", side="G")
    f, g = sides.F._gains(s), sides.G._gains(s)
    if blocking := f & g:
        return StabilityCheck(False, "S2", contract=(blocking & -blocking).bit_length() - 1)
    full = (1 << sides.universe_size) - 1
    return store.add(s, (full ^ g, full ^ f))


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
    """Validate SSP1 (Y ∪ Z = C) and SSP2 (choose(G,Y) ⊆ choose(F,Z))."""
    n = sides.universe_size
    if Y.universe_size != n or Z.universe_size != n:
        raise UniverseMismatch("pair outside the market universe")
    _ssp_check(n, Y.mask, Z.mask, sides.G._choose_mask(Y.mask), sides.F._choose_mask(Z.mask))
    return SemiStablePair(Y, Z)


def _checked(n: int, py: int, pz: int, y: int, z: int, gy: int, fz: int):
    """Check that Φ's output (y, z), where G(y) = gy and F(z) = fz, is semi-stable and above."""
    try:
        _ssp_check(n, y, z, gy, fz)
    except NotSemiStable as exc:
        raise InternalError("update left the semi-stable family") from exc
    if py & ~y or z & ~pz:
        raise InternalError("update left the componentwise order")


def phi_step(sides: SidePair, p: SemiStablePair) -> SemiStablePair:
    """One update Y' = Y ∪ F(Z), Z' = (Z ∖ F(Z)) ∪ G(F(Z)).

    The input is revalidated; the output is again semi-stable and moves up
    in the (Y grows, Z shrinks) order, both enforced. Every choice is a
    full evaluation.
    """
    sides.require_certified()
    semi_stable_pair(sides, p.Y, p.Z)
    F, G, n = sides.F, sides.G, sides.universe_size
    fz = F._choose_mask(p.Z.mask)
    y, z = p.Y.mask | fz, (p.Z.mask & ~fz) | G._choose_mask(fz)
    _checked(n, p.Y.mask, p.Z.mask, y, z, G._choose_mask(y), F._choose_mask(z))
    return SemiStablePair(ContractSet(n, y), ContractSet(n, z))


def _sigma(F: ChoiceFunction, G: ChoiceFunction, y: int, z: int) -> tuple[tuple, int]:
    """σ on masks, F proposing, from a semi-stable (y, z): every (Y, Z) visited, and the stable set.

    Z can strictly shrink at most |C| times and Y absorbs choose(F,Z) in one
    further step, so more than |C|+2 applications raise InternalError, as
    does a fixpoint without choose(G,choose(F,Z)) = choose(G,Y) = choose(F,Z),
    which make S = choose(F,Z) stable with stable pair (Y, Z). Each
    application makes phi_step's checks, but only the start is evaluated in
    full: the run carries choose(G,Y), choose(F,Z) and choose(G,F(Z)), and
    re-evaluates each through ``_rechoose`` from the nearest carried set
    (the first on a tie), so an aggregate asks only the agents whose slice
    changed; from (∅, C), choose(G,Y') = choose(G,F(Z)) costs nothing.
    """
    n = F.universe_size
    gy, fz = G._choose_mask(y), F._choose_mask(z)
    _ssp_check(n, y, z, gy, fz)
    gfz = G._rechoose(y, gy, fz)
    steps = [(y, z)]
    while True:
        y2, z2 = y | fz, (z & ~fz) | gfz
        old, chosen = (y, gy) if (y ^ y2).bit_count() <= (fz ^ y2).bit_count() else (fz, gfz)
        gy2 = G._rechoose(old, chosen, y2)
        fz2 = F._rechoose(z, fz, z2)
        _checked(n, y, z, y2, z2, gy2, fz2)
        if y2 == y and z2 == z:
            break
        steps.append((y2, z2))
        if len(steps) > n + 2:
            raise InternalError("dynamics exceeded the |C|+2 step bound")
        old, chosen = (fz, gfz) if (fz ^ fz2).bit_count() <= (y2 ^ fz2).bit_count() else (y2, gy2)
        gfz = G._rechoose(old, chosen, fz2)
        y, z, gy, fz = y2, z2, gy2, fz2
    if gfz != fz:
        raise InternalError("fixpoint reached with choose(G,choose(F,Z)) != choose(F,Z)")
    if gy != fz:
        raise InternalError("fixpoint reached with choose(G,Y) != choose(F,Z)")
    return tuple(steps), fz


def _fixpoint(sides: SidePair, y: int, z: int, flip: bool = False) -> int:
    """σ's stable set from masks (y, z), as ``_sigma`` finds it (G proposing if flip); kept."""
    key, store = (y, z, flip), sides._fixpoints
    s = store.get(key)
    if s is None:
        F, G = (sides.G, sides.F) if flip else (sides.F, sides.G)
        return store.add(key, _sigma(F, G, y, z)[1])
    store.hits += 1
    return s


def run_to_fixpoint(sides: SidePair, p0: SemiStablePair) -> ProcessTrace:
    """Iterate Φ from p0 until it stops moving; the fixpoint yields a stable set.

    σ runs on masks (``_sigma``), and the trace keeps them; step objects are
    built only when the trace's steps are read.
    """
    sides.require_certified()
    n = sides.universe_size
    if p0.Y.universe_size != n or p0.Z.universe_size != n:
        raise UniverseMismatch("pair outside the market universe")
    return ProcessTrace(n, *_sigma(sides.F, sides.G, p0.Y.mask, p0.Z.mask))


def format_trace(sides: SidePair, trace: ProcessTrace, labels=None) -> str:
    """Render a run as one line per step, showing the quantities Φ reads."""
    lines = []
    for k, p in enumerate(trace.steps):
        fz = sides.F.choose(p.Z)
        lines.append(
            f"step {k}: Y={format_set(p.Y, labels)} Z={format_set(p.Z, labels)}"
            f" F(Z)={format_set(fz, labels)} G(F(Z))={format_set(sides.G.choose(fz), labels)}"
        )
    return "\n".join(lines) + "\n"


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
    start makes the result the join. σ runs on masks and builds no steps.
    The pair keeps each stable set's closures and σ's answer by start (see
    SidePair). Certification and universes are checked on every call, and
    stability on each call until a set passes.
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
        s_prime = ContractSet(n, _sigma(f_prime, sides.G, y, z)[1])
    except NotSemiStable as exc:
        raise InternalError("statics start pair not semi-stable") from exc
    if not blair_leq(sides.G, S, s_prime):
        raise InternalError("statics result not above S in the firm-side order")
    if not blair_leq(sides.F, s_prime, S):
        raise InternalError("statics result not below S in the original worker order")
    return s_prime
