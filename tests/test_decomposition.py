import random
from itertools import combinations

import pytest

from helpers import (
    brute_force_finest_partition,
    grouping_minimum,
    reference_cheapest_grouping,
    reference_maximal_decomposition,
    reference_row_groups,
    subcode_dimension,
)
from posetcodes.code import LinearCode, enumerate_codes
from posetcodes.decomposition import (
    Decomposition,
    _row_groups,
    cheapest_grouping,
    maximal_decomposition,
    min_grouping_complexity,
    trivial_decomposition,
)
from posetcodes.errors import ValidationError
from posetcodes.suites import random_code

D_CODE = LinearCode.from_generators(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
R4 = LinearCode.from_generators(2, 4, [(1, 1, 1, 1)])


def test_maximal_decomposition_examples():
    dec = maximal_decomposition(D_CODE)
    assert [sorted(c.support()) for c in dec.components] == [[1, 2], [3, 4]]
    assert dec.j0 == frozenset()

    tangled = LinearCode.from_generators(2, 3, [(1, 0, 1), (0, 1, 1)])
    assert maximal_decomposition(tangled).r == 1

    lone = LinearCode.from_generators(2, 4, [(0, 1, 0, 0)])
    dec_lone = maximal_decomposition(lone)
    assert [sorted(c.support()) for c in dec_lone.components] == [[2]]
    assert dec_lone.j0 == {1, 3, 4}


def test_maximal_matches_brute_force_on_random_codes():
    rng = random.Random(21)
    for _ in range(40):
        q = rng.choice([2, 3])
        n = rng.randint(1, 5)
        code = random_code(rng, q, n)
        dec = maximal_decomposition(code)
        assert {c.support() for c in dec.components} == brute_force_finest_partition(code)


# Two positive-deficiency components next to a zero one need n >= 5.
@pytest.mark.parametrize("q,max_n", [(2, 5), (3, 4)])
def test_row_grouping_matches_the_reference_on_every_small_code(q, max_n):
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            for code in enumerate_codes(q, n, k):
                finest = reference_maximal_decomposition(code)
                cheapest = reference_cheapest_grouping(code)
                # built unchecked, each must equal the validated reference
                for got, want in [
                    (maximal_decomposition(code), finest),
                    (cheapest_grouping(code), cheapest),
                ]:
                    assert (got.code, got.components, got.j0) == (
                        want.code,
                        want.components,
                        want.j0,
                    ), code
                assert min_grouping_complexity(code) == cheapest.complexity(), code


def test_row_groups_match_the_reference_on_random_codes():
    rng = random.Random(11)
    zero_deficiency = 0
    for _ in range(400):
        q = rng.choice([2, 3, 5])
        n = rng.randint(1, 12)
        density = rng.choice([0.15, 0.3, 0.6])
        rows = [
            [rng.randrange(1, q) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(rng.randint(1, n))
        ]
        # unit rows give components of deficiency zero
        units = rng.sample(range(n), rng.randint(0, min(2, n)))
        rows += [[int(j == i) for j in range(n)] for i in units]
        if not any(any(row) for row in rows):
            continue
        code = LinearCode.from_generators(q, n, rows)
        groups = _row_groups(code)
        assert groups == reference_row_groups(code), code
        zero_deficiency += sum(1 for _, d in groups if d == 0)
    assert zero_deficiency > 50


def test_components_are_the_block_subcodes():
    rng = random.Random(22)
    for _ in range(15):
        code = random_code(rng, 2, 5)
        for comp in maximal_decomposition(code).components:
            block = comp.support()
            words = [
                w for w in code.codewords()
                if any(w) and all(w[j - 1] == 0 for j in range(1, code.n + 1) if j not in block)
            ]
            assert LinearCode.from_generators(code.q, code.n, words) == comp


def test_maximal_admits_no_valid_split():
    rng = random.Random(23)
    for _ in range(20):
        code = random_code(rng, 2, 5)
        for comp in maximal_decomposition(code).components:
            supp = sorted(comp.support())
            if len(supp) < 2:
                continue
            for r in range(1, len(supp)):
                for piece in combinations(supp, r):
                    left = set(piece)
                    right = set(supp) - left
                    split_dims = subcode_dimension(code, left) + subcode_dimension(code, right)
                    assert split_dims < subcode_dimension(code, set(supp))


def test_profile_examples():
    assert maximal_decomposition(D_CODE).profile() == ((0, 0), (2, 1), (2, 1))
    assert trivial_decomposition(R4).profile() == ((0, 0), (4, 1))
    lone = LinearCode.from_generators(2, 4, [(0, 1, 0, 0)])
    assert maximal_decomposition(lone).profile() == ((3, 3), (1, 1))


def test_profile_totals():
    rng = random.Random(24)
    for _ in range(25):
        code = random_code(rng, 2, 5)
        profile = maximal_decomposition(code).profile()
        assert sum(n for n, _ in profile) == code.n
        assert sum(k for _, k in profile[1:]) == code.k


def test_complexity_examples():
    assert maximal_decomposition(D_CODE).complexity() == 4
    assert trivial_decomposition(R4).complexity() == 8
    full = LinearCode.from_generators(2, 3, [(1, 0, 0), (0, 1, 0)])
    assert maximal_decomposition(full).complexity() == 2  # two perfect components
    merged = Decomposition(full, [full])
    assert merged.complexity() == 1


def test_min_grouping_examples():
    pair = LinearCode.from_generators(2, 4, [(0, 1, 0, 0), (0, 0, 0, 1)])
    assert min_grouping_complexity(pair) == 1
    assert min_grouping_complexity(D_CODE) == 4
    assert min_grouping_complexity(R4) == 8


def test_min_grouping_matches_exhaustive_oracle():
    rng = random.Random(25)
    for _ in range(60):
        q = rng.choice([2, 3])
        code = random_code(rng, q, rng.randint(1, 5))
        assert min_grouping_complexity(code) == grouping_minimum(code)


def test_cheapest_grouping_achieves_the_minimum():
    rng = random.Random(26)
    for _ in range(40):
        code = random_code(rng, 2, 5)
        dec = cheapest_grouping(code)
        assert dec.complexity() == min_grouping_complexity(code)
        assert dec.complexity() <= maximal_decomposition(code).complexity()


def test_partition_view():
    dec = maximal_decomposition(LinearCode.from_generators(2, 4, [(0, 1, 0, 0)]))
    part = dec.partition()
    assert part.j0 == {1, 3, 4}
    assert part.parts == (frozenset({2}),)


def test_decomposition_validation():
    with pytest.raises(ValidationError):
        Decomposition(D_CODE, [LinearCode.from_generators(2, 4, [(1, 1, 1, 1)])])
    overlapping = [
        LinearCode.from_generators(2, 4, [(1, 1, 0, 0)]),
        LinearCode.from_generators(2, 4, [(1, 1, 1, 1)]),
    ]
    with pytest.raises(ValidationError):
        Decomposition(D_CODE, overlapping)
    short = [LinearCode.from_generators(2, 4, [(1, 1, 0, 0)])]
    with pytest.raises(ValidationError):
        Decomposition(D_CODE, short)
