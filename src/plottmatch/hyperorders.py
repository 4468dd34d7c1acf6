"""Blair and Lehmann hyper-relations on subsets of a contract universe.

The Blair relation compares subsets by A ⪯ B ⟺ choose(A∪B) ⊆ B; the Lehmann
relation is the strict A ≺ B ⟺ choose(B) ≠ ∅ ∧ choose(A∪B) ∩ A = ∅. Both can
be derived from a path-independent choice function; Lehmann relations can
also be given extensionally as tables, which is what the axiom auditor is
for. :func:`reconstruct_choice` implements the bijection between
path-independent functions and relations satisfying L0 to L5, reading the
L-operator off the audited relation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .choice import (
    ChoiceFunction,
    ContractSet,
    ExplicitTable,
    _Memo,
    _fit,
    _violation_scan,
    choice_table,
)
from .errors import AxiomsFail, InternalError, UniverseMismatch

AUDIT_CAP = 8


@dataclass(frozen=True)
class DerivedLehmann:
    """The strict hyper-order of a choice function.

    A ≺ B ⟺ choose(B) ≠ ∅ and choose(A∪B) ∩ A = ∅. The generating function
    is expected to be path-independent for any of the theory to apply.
    """

    cf: ChoiceFunction

    @property
    def universe_size(self) -> int:
        return self.cf.universe_size

    def _prec_mask(self, amask: int, bmask: int) -> bool:
        gb = self.cf._choose_mask(bmask)
        if gb == 0:
            return False
        gu = self.cf._choose_mask(amask | bmask)
        if gu & amask:
            return False
        # G(A∪B) ⊆ B and misses A forces G(A∪B) = G(B) by outcast (Plott input).
        if gu != gb:
            raise InternalError("lehmann-true pair with choose(A∪B) != choose(B)")
        return True


@dataclass(frozen=True)
class ExtensionalLehmann:
    """A Lehmann relation stored as an explicit table of ordered pairs.

    ``true_pairs`` holds the (A, B) masks related by ≺; every unlisted pair
    is false. A mask outside the universe raises ValueError.
    """

    universe_size: int
    true_pairs: frozenset

    def __post_init__(self):
        if not all(0 <= m < 1 << self.universe_size for pair in self.true_pairs for m in pair):
            raise ValueError("mask references indices outside the universe")

    @classmethod
    def from_true_pairs(cls, universe_size: int, pairs) -> "ExtensionalLehmann":
        """Build a total table from the pairs that hold; everything else is false.

        A pair holds masks or ContractSets of this universe (UniverseMismatch
        for a set of another one).
        """
        def mask(s) -> int:
            if isinstance(s, ContractSet) and s.universe_size != universe_size:
                raise UniverseMismatch(f"set over universe {s.universe_size}, not {universe_size}")
            return s.mask if isinstance(s, ContractSet) else s

        return cls(universe_size, frozenset((mask(a), mask(b)) for a, b in pairs))

    def _prec_mask(self, amask: int, bmask: int) -> bool:
        return (amask, bmask) in self.true_pairs


def blair_leq(cf: ChoiceFunction, A: ContractSet, B: ContractSet) -> bool:
    """Evaluate A ⪯ B, i.e. choose(A∪B) ⊆ B, in the Blair relation of cf."""
    if A.universe_size != cf.universe_size or B.universe_size != cf.universe_size:
        raise UniverseMismatch("relation and sets must share one universe")
    chosen = cf._choose_mask(A.mask | B.mask)
    if chosen & ~B.mask:
        return False
    # When it holds, outcast forces choose(A∪B) = choose(B) for Plott input.
    if chosen != cf._choose_mask(B.mask):
        raise InternalError("blair-true pair with choose(A∪B) != choose(B)")
    return True


# ---------------------------------------------------------------------------
# Axiom auditing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    """One audited axiom: its name, verdict, and a violating witness if any."""

    name: str
    passed: bool
    witness: tuple[ContractSet, ...] | None = None


@dataclass(frozen=True)
class AxiomReport:
    """Verdicts for L0..L5 plus the derived transitivity check.

    ``overall`` covers L0..L5 only; transitivity follows from them for any
    relation, so it is reported as a redundant self-test.
    """

    checks: tuple[AxiomCheck, ...]
    overall: bool

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _relation_matrix(rel, n: int) -> np.ndarray:
    """The full ≺ table as a bool matrix indexed [amask, bmask]."""
    size = 1 << n
    if isinstance(rel, DerivedLehmann):
        t = choice_table(rel.cf)
        masks = np.arange(size, dtype=np.int64)
        return (t != 0) & ((t[masks[:, None] | masks] & masks[:, None]) == 0)
    p = np.zeros((size, size), dtype=bool)
    for a, b in rel.true_pairs:
        p[a, b] = True
    return p


def _first_true(condition: np.ndarray):
    """The least index, in C order, at which condition holds; None if nowhere."""
    at = int(condition.argmax()) if condition.size else None
    if at is None or not condition.flat[at]:
        return None
    return tuple(int(v) for v in np.unravel_index(at, condition.shape))


def _key_rows(rel) -> int:
    """The table rows a relation keeps alive: 2^k, or 3 per pair (88 bytes in a frozenset)."""
    return 1 << rel.universe_size if isinstance(rel, DerivedLehmann) else 3 * len(rel.true_pairs)


@partial(_Memo, lambda rel, audit: _key_rows(rel) + 4 ** rel.universe_size)
def _audited(rel):
    """The read-only relation matrix p[A, B] = A ≺ B of rel, and its axiom report."""
    n = rel.universe_size
    p = _relation_matrix(rel, n)
    p.setflags(write=False)
    masks = np.arange(1 << n, dtype=np.int64)
    bits = 1 << masks[:n]
    flip = masks[:, None] ^ bits  # flip[A, c]: A with c toggled
    has = (masks[:, None] & bits) != 0  # has[A, c]: c ∈ A
    cs = lambda m: ContractSet(n, int(m))
    pair = lambda a, b: (cs(a), cs(b))

    def check(name, bad, witness):
        hit = _first_true(bad)
        return AxiomCheck(name, hit is None, None if hit is None else witness(*hit))

    l2 = None
    for b, col in enumerate(p.T):
        trues = col.nonzero()[0]
        closed = col[trues[:, None] | trues]
        if not closed.all():
            i, j = _first_true(~closed)
            l2 = (cs(trues[i]), cs(trues[j]), cs(b))
            break
    checks = (
        check("L0", np.diagonal(p), lambda a: (cs(a),)),
        # at [A, B, c]: c ∈ A and A ≺ B, yet A∖{c} ⊀ B
        check("L1", has[:, None, :] & p[:, :, None] & ~p[flip].transpose(0, 2, 1),
              lambda a, b, c: (cs(a ^ bits[c]), cs(a), cs(b))),
        AxiomCheck("L2", l2 is None, l2),
        # at [A, B, c]: c ∉ B and A ≺ B, yet A ⊀ B∪{c}
        check("L3", ~has[None, :, :] & p[:, :, None] & ~p[:, flip],
              lambda a, b, c: (cs(a), cs(b), cs(b | bits[c]))),
        check("L4", p[masks[:, None], masks[:, None] | masks] & ~p, pair),
        check("L5", ~p[0][:, None] & p[0] & ~p, pair),
        # a float product counts paths exactly (at most 2^8) and runs on BLAS
        check("transitivity", ((p.astype(np.float32) @ p.astype(np.float32)) > 0) & ~p, pair),
    )
    overall = all(c.passed for c in checks[:-1])
    if overall and not checks[-1].passed:
        raise InternalError("L0-L5 hold but transitivity fails; auditor bug")
    return p, AxiomReport(checks, overall)


def audit_lehmann_axioms(rel, *, cap: int = AUDIT_CAP) -> AxiomReport:
    """Exhaustively audit L0..L5 and (separately) transitivity.

    L1 and L3 are checked in their one-element-step forms, which are
    equivalent to the subset-monotone originals by chain induction; L2 is
    checked on two-set families, which implies every finite family. Any
    failure carries a witness tuple of the subsets involved. For a relation
    satisfying L0..L5, transitivity is a theorem; observing it fail while
    the axioms pass raises InternalError.

    All run off the relation matrix p[A, B] = A ≺ B. L1 and L3 are each one
    boolean array over (A, B, c), n·4^n entries (half a million at the cap),
    the rest whole-matrix expressions; each witness is the first violation
    in index order, (A, B, c) or (A, B). L2 scans the columns B up to the
    first failing one: a whole (B, A1, A2) array has 8^n entries, and at
    the cap it took over 100 times as long as the scan and 32 MiB more.

    The cap, which may lower AUDIT_CAP but never raise it, since the matrix
    grows 4^n, is checked on every call. Behind it a relation is audited once
    per value (see choice._Memo), equal relations sharing the result with
    each other and with reconstruct_choice.
    """
    _fit("axiom audit", rel.universe_size, cap, AUDIT_CAP)
    return _audited(rel)[1]


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------


def reconstruct_choice(rel, *, cap: int = AUDIT_CAP) -> ExplicitTable:
    """Rebuild the choice function T(A) = A ∖ L(A) from a Lehmann relation.

    L(A), the contracts c with ∅ ⊀ {c} or {c} ≺ A, is read off the relation
    matrix of audit_lehmann_axioms, and a relation audited there is not
    audited again. Requires the audit to pass (AxiomsFail, with its report,
    on every call otherwise). The result is certified path independent by
    an exact scan of its table, which the bijection guarantees, so a failed
    certification raises InternalError. So does a derived relation with
    choose(A∪{c}) ≠ choose(A) on a pair {c} ≺ A it reads. The cap, as
    the audit's, is checked on every call; behind it the table is rebuilt
    once per relation value (see choice._Memo).
    """
    _fit("axiom audit", rel.universe_size, cap, AUDIT_CAP)
    return _rebuilt(rel)


@partial(_Memo, lambda rel, table: _key_rows(rel) + (1 << rel.universe_size))
def _rebuilt(rel) -> ExplicitTable:
    """reconstruct_choice for a relation within the cap."""
    p, report = _audited(rel)
    if not report.overall:
        raise AxiomsFail("relation fails the Lehmann axioms", report)
    n = rel.universe_size
    masks = np.arange(1 << n, dtype=np.int64)
    bits = 1 << masks[:n]
    essential = p[0, bits]
    below = p[bits] & essential[:, None]  # below[c, A]: c essential, {c} ≺ A
    if isinstance(rel, DerivedLehmann):
        t = choice_table(rel.cf)
        if (below & (t[masks | bits[:, None]] != t)).any():
            raise InternalError("lehmann-true pair with choose(A∪B) != choose(B)")
    l_masks = ((~essential[:, None] | below) * bits[:, None]).sum(axis=0)
    table = masks & ~l_masks
    if _violation_scan(table, n, range(n)) is not None:
        raise InternalError("reconstructed table is not path-independent")
    return ExplicitTable(n, tuple(table.tolist()))
