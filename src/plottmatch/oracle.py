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

import hashlib
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .choice import (
    EXHAUSTIVE_CAP,
    ContractSet,
    OrderChoice,
    UnionChoice,
    _agents,
    _choose,
    _fit,
    _gains,
    _slices,
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
    fingerprints mean literally the same market behavior; it is computed
    when first read.
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


def enumerate_stable_sets(sides: SidePair, *, cap: int = EXHAUSTIVE_CAP) -> StableSetCatalog:
    """Find every stable set agent by agent and assemble the catalog.

    A side chooses agent by agent, so S1 holds exactly when every agent
    keeps its own slice of S. The candidates are the products of what each
    worker-side agent keeps (masks t[x] = x of its table), lifted to global
    bits and filtered by the firm side's choice; they number at most
    2^|C|. Each agent gathers its slice of every candidate once, by shifts
    and masks, and S2 and the Blair matrix are read off the same per-agent
    tables at those slices (the slice of a union is the union of slices).
    Only ``choice_table`` of each agent is read, and no whole-side table
    is built. Stable sets come in ascending mask order.

    For certified sides the catalog is nonempty (finite form of the
    existence theorem), the matrix is antisymmetric, and its transpose
    equals the worker-side matrix; all three are enforced.
    """
    n = sides.universe_size
    _fit("enumeration", n, cap)  # the fingerprint needs whole tables; masks stay int64
    f_agents, g_agents = _agents(sides.F), _agents(sides.G)
    sets = np.zeros(1, dtype=np.int64)
    for _, _, table, lifted in f_agents:
        kept = lifted[table == np.arange(table.size)]
        sets = (sets[:, None] | kept[None, :]).reshape(-1)
    g_slices = _slices(g_agents, sets)
    at = np.flatnonzero(_choose(g_agents, g_slices, sets) == sets)
    at = at[np.argsort(sets[at])]  # S1 holds on both sides; ascending
    sets, g_slices = sets[at], [local[at] for local in g_slices]
    f_slices = _slices(f_agents, sets)
    at = np.flatnonzero((_gains(f_agents, f_slices, sets) & _gains(g_agents, g_slices, sets)) == 0)
    stable = sets[at]

    if sides.certified and not stable.size:
        raise InternalError("certified sides with no stable set")
    pairs = stable[:, None] | stable[None, :]

    def below(agents, slices):
        """[i][j]: the side's choice on S_i ∪ S_j lies within S_j."""
        pair_slices = [s[:, None] | s[None, :] for s in (local[at] for local in slices)]
        return (_choose(agents, pair_slices, pairs) & ~stable) == 0

    g_matrix = below(g_agents, g_slices)
    if sides.certified:
        f_matrix = below(f_agents, f_slices)
        if (g_matrix & g_matrix.T & ~np.eye(stable.size, dtype=bool)).any():
            raise InternalError("Blair matrix not antisymmetric")
        if (g_matrix != f_matrix.T).any():
            raise InternalError("Blair matrix transpose is not the worker matrix")
    return StableSetCatalog(
        sides,
        tuple(ContractSet(n, m) for m in stable.tolist()),
        tuple(tuple(row) for row in g_matrix.tolist()),
    )


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
    rather than raised, so a report is always produced. Join and meet are
    symmetric in their two sets, so the matrix bound is found and the engine
    asked once per unordered pair, k(k+1)/2 of the k² ordered pairs counted
    in ``pairs_checked``; that the engine ignores the order of its arguments
    is tested apart.
    """
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

    Each side is a union of k random total orders (Fisher-Yates under one
    seeded generator) with independent random acceptable sets; k comes
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
            for i in range(n - 1, 0, -1):
                j = rng.randrange(i + 1)
                order[i], order[j] = order[j], order[i]
            acceptable = rng.getrandbits(n) if n else 0
            parts.append(OrderChoice(n, tuple(order), 1, acceptable))
        return UnionChoice(n, tuple(parts))

    F = one_side(k_f)
    G = one_side(k_g)
    sides = side_pair(F, G)
    if not sides.certified:
        raise InternalError("union of order maximizers failed the Plott check")
    return sides


def semi_stable_masks(sides: SidePair, *, cap: int = SEMI_STABLE_CAP) -> list[tuple[int, int]]:
    """All (Y, Z) mask pairs satisfying SSP1 and SSP2, by a scan of the 4^|C| grid.

    The cap may lower SEMI_STABLE_CAP but never raise it.
    """
    n = sides.universe_size
    _fit("semi-stable scan", n, cap, SEMI_STABLE_CAP)
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
    kept = [x for x in X if x not in closure_star(cf, X.remove(x))]
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
