"""Exhaustive ground truth: enumeration, lattice verification, generators.

Everything here is deliberately independent of the dynamics: stable sets
are found agent by agent from each agent's own choice table against the
S1/S2 definitions, the Blair matrix is evaluated entry by entry from the
same tables, lattice structure is read off the matrix, and the L-operator
is evaluated one relation query at a time. Stability via closures, the
choice recovered from the closure operator and single Lehmann queries are
the cross-checks of the same kind. The engine is then tested against these
answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from math import prod

import numpy as np

from .choice import (
    ContractSet,
    OrderChoice,
    UnionChoice,
    _coords,
    _fit,
    _gather,
    _kept,
    _scatter,
    choice_table,
    closure_star,
    format_set,
)
from .errors import EmptyList, InternalError, NotStable, UniverseMismatch
from .stability import SidePair, lattice_join, lattice_meet, side_pair

SEMI_STABLE_CAP = 10


@dataclass(frozen=True)
class StableSetCatalog:
    """Every stable set of one instance, with the firm-side Blair matrix.

    ``blair_matrix[i][j]`` says stable_sets[i] ⪯ stable_sets[j] under the
    firm side; its transpose is the worker-side matrix (polarization).
    ``sides`` is the market the catalog was enumerated from; equality
    compares it by value together with the sets and the matrix.
    ``fingerprint`` hashes the full choice tables of both sides, so equal
    fingerprints mean literally the same market behavior; it is computed,
    and hashlib with OpenSSL loaded, when first read, not at import.
    """

    sides: SidePair = field(repr=False)
    stable_sets: tuple[ContractSet, ...]
    blair_matrix: tuple[tuple[bool, ...], ...]

    @property
    def universe_size(self) -> int:
        return self.sides.universe_size

    @cached_property
    def fingerprint(self) -> str:
        """16 hex digits of SHA-256 over |C| and both sides' full tables."""
        import hashlib  # maps OpenSSL's libcrypto: here, not in every process that imports us

        digest = hashlib.sha256()
        digest.update(self.universe_size.to_bytes(4, "little"))
        digest.update(choice_table(self.sides.F))  # int64 tables, hashed in place
        digest.update(choice_table(self.sides.G))
        return digest.hexdigest()[:16]

    def bottom(self) -> ContractSet:
        """The ⪯-minimum (worker-best) stable set."""
        return self.stable_sets[self._extreme(lambda i, j: self.blair_matrix[i][j])]

    def top(self) -> ContractSet:
        """The ⪯-maximum (firm-best) stable set."""
        return self.stable_sets[self._extreme(lambda i, j: self.blair_matrix[j][i])]

    def _extreme(self, below) -> int:
        k = len(self.stable_sets)
        if not k:
            raise EmptyList("catalog has no stable sets")
        for i in range(k):
            if all(below(i, j) for j in range(k)):
                return i
        raise InternalError("catalog has no extreme element")


def enumerate_stable_sets(sides: SidePair) -> StableSetCatalog:
    """Find every stable set agent by agent and assemble the catalog.

    A side chooses agent by agent, so S1 holds exactly when every agent
    keeps its slice of S (a mask x = t[x] of its own table), and S2 fails
    at c exactly when c's owners on both sides gain it. A depth-first walk
    (see _walk) gives each agent with contracts of the side whose kept
    slices have the smaller product (F on a tie) one kept slice in turn,
    and looks up each agent of the other side once its contracts are all
    decided; it is at most |C| deep. The Blair matrix is read off each
    agent's table at its slices of S_i ∪ S_j. Only per-agent
    ``choice_table``s are read, never a whole side's. Stable sets ascend.
    The walk also sums both sides' gains, so each stable set's pair (C − G's
    gains, C − F's gains) goes into the pair's store as is_stable_set would
    keep it (see SidePair): joins, meets and closures on the catalog read it.

    For certified sides the catalog is nonempty (finite form of the
    existence theorem), the matrix is antisymmetric, and its transpose
    equals the worker-side matrix; all three are enforced.
    """
    n = sides.universe_size
    _fit("enumeration", n)  # the fingerprint needs whole tables; masks stay int64
    walked, checked = _kept_slices(sides.F), _kept_slices(sides.G)
    flip = prod(len(kept) for _, kept in checked) < prod(len(kept) for _, kept in walked)
    if flip:
        walked, checked = checked, walked
    steps = [(kept.items(), []) for _, kept in walked]
    for block, kept in checked:  # after the last walked agent that shares a contract with it
        steps[max(i for i, (b, _) in enumerate(walked) if b & block)][1].append((block, kept))
    found = []
    _walk(steps, 0, 0, 0, 0, found)
    full = (1 << n) - 1
    for s, ours, theirs in found:  # each stable set's pair, as is_stable_set's scan keeps it
        f, g = (theirs, ours) if flip else (ours, theirs)
        sides._pairs.add(s, (full ^ g, full ^ f))
    stable = sorted(s for s, _, _ in found)

    if sides.certified and not stable:
        raise InternalError("certified sides with no stable set")

    def below(cf):
        """[i][j]: each agent's choice on its slice of S_i ∪ S_j lies within its slice of S_j."""
        matrix = np.ones((len(stable), len(stable)), dtype=bool)
        for block, part in zip(*_coords(cf)[:2]):
            local = [_gather(s, block) for s in stable]
            if len(set(local)) > 1:  # else S_i ∪ S_j has the slice of S_j, which the agent keeps
                table = choice_table(part)
                matrix &= [[not table[x | y] & ~y for y in local] for x in local]
        return matrix

    g_matrix = below(sides.G)
    if sides.certified:
        f_matrix = below(sides.F)
        if (g_matrix & g_matrix.T & ~np.eye(len(stable), dtype=bool)).any():
            raise InternalError("Blair matrix not antisymmetric")
        if (g_matrix != f_matrix.T).any():
            raise InternalError("Blair matrix transpose is not the worker matrix")
    return StableSetCatalog(sides, tuple(ContractSet(n, m) for m in stable),
                            tuple(tuple(row) for row in g_matrix.tolist()))


def _kept_slices(cf) -> list[tuple[int, dict[int, int]]]:
    """Each agent with contracts of a side: (block mask, {kept slice: its gains}), global bits."""
    return [(_scatter((1 << len(block)) - 1, block),
             {_scatter(x, block): _scatter(gains, block) for x, gains in _kept(part)})
            for block, part in zip(*_coords(cf)[:2]) if block]


def _walk(steps, at: int, s: int, ours: int, theirs: int, found: list) -> None:
    """Extend s by each kept slice of walked agent ``at``, whose gains join ``ours``.

    An agent looked up here owns no contract of a later walked agent, so a
    branch ends at the first one that rejects its slice (S1) or gains a
    contract that ``ours`` holds (S2); the gains of those that pass join
    ``theirs``. A stable s is found with both sides' gains: (s, ours, theirs).
    """
    if at == len(steps):
        found.append((s, ours, theirs))
        return
    kept, checks = steps[at]
    for x, gains in kept:
        t, mine, other = s | x, ours | gains, theirs
        for block, slices in checks:
            looked = slices.get(t & block)
            if looked is None or looked & mine:
                break
            other |= looked
        else:
            _walk(steps, at + 1, t, mine, other, found)


def format_catalog(catalog: StableSetCatalog, labels=None) -> str:
    """Golden-file export: fingerprint, universe, stable sets, matrix rows."""
    lines = [f"catalog {catalog.fingerprint}", f"universe {catalog.universe_size}"]
    for s in catalog.stable_sets:
        lines.append(f"stable {format_set(s, labels)}")
    for row in catalog.blair_matrix:
        lines.append("blair " + "".join("1" if v else "0" for v in row))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LatticeReport:
    """Join/meet verification outcome over every (ordered) pair of stable sets."""

    passed: bool
    sets: int
    pairs_checked: int
    failures: tuple[str, ...]


def _bound_from_matrix(matrix, i: int, j: int) -> int | None:
    """Index of the least upper bound of i, j under ``matrix``, if unique; glb on its transpose."""
    bounds = [b for b in range(len(matrix)) if matrix[i][b] and matrix[j][b]]
    extreme = [b for b in bounds if all(matrix[b][o] for o in bounds)]
    return extreme[0] if len(extreme) == 1 else None


def verify_lattice(catalog: StableSetCatalog, sides: SidePair,
                   labels=None) -> LatticeReport:
    """Check that every pair has a lub and glb and the engine returns them.

    Mismatches and missing bounds are reported as failures with witnesses
    rather than raised. Both sides must be certified: on an uncertified pair
    the engine's first join raises NotCertified. Join and meet are
    symmetric in their two sets, so the matrix bound is found and the engine
    asked once per unordered pair, k(k+1)/2 of the k² ordered pairs counted
    in ``pairs_checked``; that the engine ignores the order of its arguments
    is tested apart. ``sides`` must equal ``catalog.sides``, else ValueError.
    """
    if sides != catalog.sides:
        raise ValueError("sides differ from the market that the catalog enumerated")
    sets = catalog.stable_sets
    failures = []
    pairs = 0
    answers = {}  # (lower index, higher index, name) -> (matrix bound, engine answer)
    ops = (("join", lattice_join, catalog.blair_matrix),
           ("meet", lattice_meet, tuple(zip(*catalog.blair_matrix))))
    for i in range(len(sets)):
        for j in range(len(sets)):
            pairs += 1
            si, sj = sets[i], sets[j]
            for name, op, matrix in ops:
                if (key := (min(i, j), max(i, j), name)) not in answers:
                    b = _bound_from_matrix(matrix, i, j)
                    answers[key] = b, None if b is None else op(sides, [si, sj])
                b, got = answers[key]
                if b is None:
                    failures.append(
                        f"no unique {name} bound for {format_set(si, labels)}, "
                        f"{format_set(sj, labels)}")
                    continue
                if got != sets[b]:
                    failures.append(
                        f"{name}({format_set(si, labels)}, {format_set(sj, labels)}) "
                        f"= {format_set(got, labels)}, matrix says "
                        f"{format_set(sets[b], labels)}")
    return LatticeReport(not failures, len(sets), pairs, tuple(failures))


def generate_instance(seed: int, universe_size: int, side_spec) -> SidePair:
    """Deterministically generate a certified two-sided market.

    Each side is a union of k random total orders (``random.shuffle`` under
    one seeded generator) with independent random acceptable sets; k comes
    from side_spec as (k_workers, k_firms), or one int for both. Unions of
    order maximizers are path-independent by construction
    (Aizerman–Malishevski), which the exact check of side_pair recognises
    at any size without a scan; both sides pass it before returning.
    """
    if isinstance(side_spec, int):
        side_spec = (side_spec, side_spec)
    k_f, k_g = side_spec
    n = universe_size
    rng = random.Random(seed)

    def one_side(k: int) -> UnionChoice:
        parts = []
        for _ in range(max(1, k)):
            order = list(range(n))
            rng.shuffle(order)
            acceptable = rng.getrandbits(n) if n else 0
            parts.append(OrderChoice(n, tuple(order), 1, acceptable))
        return UnionChoice(n, tuple(parts))

    F = one_side(k_f)
    G = one_side(k_g)
    sides = side_pair(F, G)
    if not sides.certified:
        raise InternalError("union of order maximizers failed the Plott check")
    return sides


def semi_stable_masks(sides: SidePair) -> list[tuple[int, int]]:
    """All (Y, Z) mask pairs satisfying SSP1 and SSP2, by a scan of the 4^|C| grid.

    The limit is SEMI_STABLE_CAP.
    """
    n = sides.universe_size
    _fit("semi-stable scan", n, SEMI_STABLE_CAP)
    tf, tg = choice_table(sides.F), choice_table(sides.G)
    masks = np.arange(1 << n, dtype=np.int64)
    full = (1 << n) - 1
    cover = (masks[:, None] | masks[None, :]) == full
    ssp2 = (tg[:, None] & ~tf[None, :]) == 0
    ys, zs = np.nonzero(cover & ssp2)
    return [(int(y), int(z)) for y, z in zip(ys, zs)]


def is_stable_set_via_closure(sides: SidePair, S: ContractSet) -> bool:
    """Stability via closures: S1 plus closure_star(F,S) ∪ closure_star(G,S) = C.

    Preconditions: certified sides and S1 already holding (NotStable
    otherwise); agrees with is_stable_set on every such S.
    """
    sides.require_certified()
    if sides.F.choose(S) != S or sides.G.choose(S) != S:
        raise NotStable("closure-based test requires choose(F,S) = choose(G,S) = S")
    covered = closure_star(sides.F, S) | closure_star(sides.G, S)
    return covered == ContractSet.full(sides.universe_size)


def invert_closure(cf, X: ContractSet) -> ContractSet:
    """Recover the choice on X from the closure operator.

    Returns {x ∈ X : x ∉ closure_star(X∖{x})}; for path-independent
    functions this equals choose(X) and serves as a cross-check.
    """
    if X.universe_size != cf.universe_size:
        raise UniverseMismatch("inversion over a foreign universe")
    kept = [x for x in X if x not in closure_star(cf, X - ContractSet(X.universe_size, 1 << x))]
    return ContractSet.from_indices(cf.universe_size, kept)


def lehmann_prec(rel, A: ContractSet, B: ContractSet) -> bool:
    """Evaluate A ≺ B under a derived or extensional Lehmann relation."""
    if A.universe_size != rel.universe_size or B.universe_size != rel.universe_size:
        raise UniverseMismatch("relation and sets must share one universe")
    return rel._prec_mask(A.mask, B.mask)


def l_operator(rel, A: ContractSet) -> ContractSet:
    """L(A) = negligible contracts ∪ {c : {c} ≺ A}, one query per contract.

    A contract is negligible when its singleton is not essential, i.e.
    ∅ ≺ {c} fails. For essential A this is the largest set preceding A.
    """
    if A.universe_size != rel.universe_size:
        raise UniverseMismatch("relation and set must share one universe")
    n = rel.universe_size
    out = 0
    for c in range(n):
        bit = 1 << c
        if not rel._prec_mask(0, bit) or rel._prec_mask(bit, A.mask):
            out |= bit
    return ContractSet(n, out)
