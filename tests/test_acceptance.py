"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

The corpus is 1,000 seeded random certified markets with |C| in 4..10.
Every criterion checks engine output against independently computed ground
truth (brute-force scans over raw choice tables), never against the engine
itself.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import numpy as np
import pytest

from plottmatch import (
    ContractSet,
    DerivedLehmann,
    UnionChoice,
    audit_lehmann_axioms,
    choice_table,
    comparative_statics,
    decompose_into_orders,
    enumerate_stable_sets,
    generate_instance,
    is_stable_set,
    reconstruct_choice,
    run_to_fixpoint,
    semi_stable_masks,
    semi_stable_pair,
    side_pair,
    verify_lattice,
)
from plottmatch.choice import OrderChoice
from plottmatch.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_SIZE = 1000


def report(capsys, num: int, passed: bool, detail: str):
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, detail


def note(capsys, text: str):
    with capsys.disabled():
        print(f"ACCEPTANCE note: {text}")


@pytest.fixture(scope="module")
def corpus():
    t0 = time.perf_counter()
    instances = []
    for seed in range(CORPUS_SIZE):
        n = 4 + seed % 7
        rng = random.Random(seed * 7919 + 3)
        spec = (rng.randint(1, 3), rng.randint(1, 3))
        instances.append(generate_instance(seed, n, spec))
    return instances, time.perf_counter() - t0


@pytest.fixture(scope="module")
def catalogs(corpus):
    instances, gen_seconds = corpus
    t0 = time.perf_counter()
    cats = [enumerate_stable_sets(sides) for sides in instances]
    return cats, gen_seconds + (time.perf_counter() - t0)


def test_criterion_01_example2_reproduction(capsys):
    t0 = time.perf_counter()
    code = main(["enumerate", str(FIXTURES / "ex2.mkt")])
    out_enum = capsys.readouterr().out
    code2 = main(["check", str(FIXTURES / "ex2.mkt"), "--side", "F"])
    out_check = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    ok = (code == 0 and out_enum == "no stable sets\n"
          and code2 == 0
          and out_check == ("NOT PLOTT: heredity violated at "
                            "B={a,b}, A={b}, element b\n")
          and elapsed < 1.0)
    report(capsys, 1, ok, f"no stable sets, heredity witness exact, {elapsed:.2f}s")


def test_criterion_02_example1_reproduction(capsys):
    t0 = time.perf_counter()
    code = main(["enumerate", str(FIXTURES / "ex1.mkt")])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    ok = code == 0 and out == "{a}\n{b}\n{c}\n" and elapsed < 1.0
    report(capsys, 2, ok, f"stable sets {{a}},{{b}},{{c}} only, {elapsed:.2f}s")


def test_criterion_03_existence_at_scale(capsys, catalogs):
    cats, seconds = catalogs
    nonempty = sum(1 for c in cats if c.stable_sets)
    ok = nonempty == CORPUS_SIZE and seconds < 60.0
    report(capsys, 3, ok,
           f"{nonempty}/{CORPUS_SIZE} nonempty, generate+enumerate {seconds:.1f}s")


def test_criterion_04_process_correctness(capsys, corpus, catalogs):
    instances, _ = corpus
    cats, _ = catalogs
    failures = 0
    for sides, cat in zip(instances, cats):
        n = sides.universe_size
        start = semi_stable_pair(sides, ContractSet.empty(n), ContractSet.full(n))
        trace = run_to_fixpoint(sides, start)
        if len(trace.steps) > n + 2:
            failures += 1
            continue
        for p in trace.steps:
            semi_stable_pair(sides, p.Y, p.Z)  # revalidate SSP1/SSP2
        # independent F-maximum from the raw worker table
        tf = choice_table(sides.F)
        f_max = [s for s in cat.stable_sets
                 if all((int(tf[t.mask | s.mask]) & ~s.mask) == 0
                        for t in cat.stable_sets)]
        if len(f_max) != 1 or trace.result.S != f_max[0]:
            failures += 1
    report(capsys, 4, failures == 0,
           f"{CORPUS_SIZE - failures}/{CORPUS_SIZE} runs bounded, validated, F-optimal")


def test_criterion_05_minimality(capsys, corpus, catalogs):
    instances, _ = corpus
    cats, _ = catalogs
    violations = 0
    checked = 0
    for i in range(200):
        sides = instances[i]
        tg = choice_table(sides.G)
        n = sides.universe_size
        pairs = semi_stable_masks(sides)
        rng = random.Random(9000 + i)
        targets = [t.mask for t in cats[i].stable_sets]
        for _ in range(50):
            ymask, zmask = pairs[rng.randrange(len(pairs))]
            start = semi_stable_pair(sides, ContractSet(n, ymask),
                                     ContractSet(n, zmask))
            s_run = run_to_fixpoint(sides, start).result.S.mask
            for t in targets:
                if (int(tg[ymask | t]) & ~t) == 0:  # Y below T, so sigma must be
                    checked += 1
                    if (int(tg[s_run | t]) & ~t) != 0:
                        violations += 1
    report(capsys, 5, violations == 0,
           f"{violations} violations over {checked} (start, target) pairs")


def test_criterion_06_lattice_and_polarization(capsys, corpus, catalogs):
    instances, _ = corpus
    cats, _ = catalogs
    lattice_fail = 0
    matrix_fail = 0
    for sides, cat in zip(instances, cats):
        if not verify_lattice(cat, sides).passed:
            lattice_fail += 1
        tf = choice_table(sides.F)
        sets = [s.mask for s in cat.stable_sets]
        k = len(sets)
        for i in range(k):
            for j in range(k):
                f_ji = (int(tf[sets[j] | sets[i]]) & ~sets[i]) == 0
                if cat.blair_matrix[i][j] != f_ji:  # G-matrix = F-matrix transposed
                    matrix_fail += 1
                if i != j and cat.blair_matrix[i][j] and cat.blair_matrix[j][i]:
                    matrix_fail += 1
    ok = lattice_fail == 0 and matrix_fail == 0
    report(capsys, 6, ok,
           f"lattice failures {lattice_fail}, matrix/antisymmetry failures {matrix_fail}")


def test_criterion_07_lehmann_bijection(capsys, corpus):
    instances, _ = corpus
    sides_checked = 0
    failures = 0
    for sides in instances:
        if sides.universe_size > 6:
            continue
        for cf in (sides.F, sides.G):
            sides_checked += 1
            rel = DerivedLehmann(cf)
            if not audit_lehmann_axioms(rel).overall:
                failures += 1
                continue
            rebuilt = reconstruct_choice(rel)
            if not np.array_equal(choice_table(rebuilt), choice_table(cf)):
                failures += 1
    report(capsys, 7, failures == 0,
           f"{sides_checked - failures}/{sides_checked} sides audit and round-trip")


def _closure_table(cf) -> np.ndarray:
    """Independent closure: adjoin every element that leaves the choice fixed."""
    t = choice_table(cf)
    n = cf.universe_size
    masks = np.arange(1 << n, dtype=np.int64)
    ct = masks.copy()
    for c in range(n):
        bit = 1 << c
        grow = ((masks & bit) == 0) & (t[masks | bit] == t)
        ct[grow] |= bit
    return ct


def test_criterion_08_closure_identities(capsys, corpus):
    instances, _ = corpus
    failures = 0
    sides_checked = 0
    for sides in instances:
        n = sides.universe_size
        masks = np.arange(1 << n, dtype=np.int64)
        for cf in (sides.F, sides.G):
            sides_checked += 1
            t = choice_table(cf)
            ct = _closure_table(cf)
            ok = bool(((ct & masks) == masks).all())  # extensive
            ok &= bool((ct[ct] == ct).all())  # idempotent
            for c in range(n):  # monotone along one-element steps
                bit = 1 << c
                ok &= bool(((ct & ~ct[masks | bit]) == 0).all())
            inv = np.zeros(1 << n, dtype=np.int64)
            for c in range(n):  # drop x, close, see whether x comes back
                bit = 1 << c
                back = ((masks & bit) != 0) & ((ct[masks & ~bit] & bit) == 0)
                inv[back] |= bit
            ok &= bool((inv == t).all())
            nil = int(ct[0])
            ok &= bool((t[masks | nil] == t).all())  # Nil neutrality
            if not ok:
                failures += 1
    report(capsys, 8, failures == 0,
           f"{sides_checked - failures}/{sides_checked} sides satisfy all identities")


def test_criterion_09_comparative_statics(capsys, corpus, catalogs):
    instances, _ = corpus
    cats, _ = catalogs
    violations = 0
    not_preserved = []
    for i in range(200):
        sides = instances[i]
        n = sides.universe_size
        rng = random.Random(123456 + i)
        extra = OrderChoice(n, tuple(rng.sample(range(n), n)), 1,
                            rng.randrange(1 << n))
        f_prime = UnionChoice(n, sides.F.parts + (extra,))
        stable = cats[i].stable_sets
        s = stable[rng.randrange(len(stable))]
        s_prime = comparative_statics(sides, f_prime, s)
        tg = choice_table(sides.G)
        tf = choice_table(sides.F)
        if (int(tg[s.mask | s_prime.mask]) & ~s_prime.mask) != 0:
            violations += 1
        if (int(tf[s_prime.mask | s.mask]) & ~s.mask) != 0:
            violations += 1
        weakened = side_pair(f_prime, sides.G, certify=False)
        if not is_stable_set(weakened, s):
            not_preserved.append((i, s))
    if not_preserved:
        i0, s0 = not_preserved[0]
        note(capsys,
             f"weakening broke stability of the old set in "
             f"{len(not_preserved)}/200 cases (open question, logged not failed); "
             f"first: instance {i0}, set {s0}")
    report(capsys, 9, violations == 0,
           f"{violations} order violations over 200 weakenings")


def test_criterion_10_decomposition(capsys, corpus):
    instances, _ = corpus
    failures = 0
    checked = 0
    for sides in instances:
        if checked >= 100:
            break
        if sides.universe_size > 6:
            continue
        for cf in (sides.F, sides.G):
            if checked >= 100:
                break
            checked += 1
            orders = decompose_into_orders(cf)
            rebuilt = np.zeros(1 << cf.universe_size, dtype=np.int64)
            for order in orders:
                rebuilt |= choice_table(order)
            if not np.array_equal(rebuilt, choice_table(cf)):
                failures += 1
    report(capsys, 10, failures == 0,
           f"{checked - failures}/{checked} sides rebuild from their orders")
