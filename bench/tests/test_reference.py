"""The benchmark's reference code against the package's brute-force oracle.

On small generated markets, the reference choice of each side must equal
the parsed market's choice table on every subset, the reference scan must
find exactly the stable sets ``enumerate_stable_sets`` finds, and deferred
acceptance must land on the catalogue's bottom and top.
"""

import pytest

from plottmatch import aggregate_sides, choice_table, enumerate_stable_sets, parse_instance

from bench.markets import Shape, generate
from bench.reference import Reference
from bench.workloads import DESK_FIRMS, DESK_WORKERS, MIXED_FIRMS, MIXED_WORKERS

SHAPES = [
    Shape((2, 2), 2, DESK_WORKERS, DESK_FIRMS, opposed=1.0, mix=0.3),
    Shape((3,), 3, DESK_WORKERS, DESK_FIRMS, opposed=1.0, mix=0.3),
    Shape((2, 2, 2), 0, MIXED_WORKERS, MIXED_FIRMS),
    Shape((3, 2), 0, MIXED_WORKERS, MIXED_FIRMS, opposed=0.5, mix=0.5),
]
CASES = [(shape, seed) for shape in SHAPES for seed in range(12)]


def _check(market):
    sides = aggregate_sides(parse_instance(market.text()))
    assert sides.certified
    ref = Reference(market)
    tf, tg = choice_table(sides.F), choice_table(sides.G)
    for x in range(1 << market.size):
        assert ref.workers.choose(x) == tf[x]
        assert ref.firms.choose(x) == tg[x]
    catalogue = enumerate_stable_sets(sides)
    expected = ref.stable_sets()
    assert sorted(s.mask for s in catalogue.stable_sets) == expected
    assert all(ref.is_stable(s) for s in expected)
    assert catalogue.bottom().mask == ref.deferred_acceptance("workers")
    assert catalogue.top().mask == ref.deferred_acceptance("firms")
    return len(expected)


@pytest.mark.parametrize("shape,seed", CASES)
def test_reference_matches_oracle(shape, seed):
    _check(generate(shape, f"test:{seed}"))


@pytest.mark.parametrize("shape,seed", CASES[::3])
def test_weakened_reference_matches_oracle(shape, seed):
    _check(generate(shape, f"test:{seed}").weakened())


def test_desk_shapes_have_several_stable_sets():
    counts = [_check(generate(SHAPES[0], f"test:{seed}")) for seed in range(12)]
    assert max(counts) > 1
