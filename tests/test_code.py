import json
import random
from itertools import combinations, product

import pytest

from helpers import reference_code_restrict
from posetcodes.code import LinearCode, enumerate_codes, rref
from posetcodes.errors import ResourceLimitError, ValidationError
from posetcodes.suites import random_code


def test_from_generators_examples():
    c = LinearCode.from_generators(2, 4, [(1, 1, 1, 1)])
    assert c.k == 1 and c.pivots == (1,)
    dup = LinearCode.from_generators(2, 4, [(1, 1, 1, 1), (1, 1, 1, 1)])
    assert dup.k == 1
    mixed = LinearCode.from_generators(2, 4, [(1, 1, 0, 0), (1, 1, 1, 1)])
    assert mixed.generators == ((1, 1, 0, 0), (0, 0, 1, 1))
    assert mixed.k == 2


def test_zero_code_rejected():
    with pytest.raises(ValidationError):
        LinearCode.from_generators(2, 4, [(0, 0, 0, 0)])


def test_canonical_form_idempotent():
    rng = random.Random(1)
    for _ in range(30):
        q = rng.choice([2, 3])
        n = rng.randint(1, 6)
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(1, n))]
        try:
            code = LinearCode.from_generators(q, n, rows)
        except ValidationError:
            continue
        again = LinearCode.from_generators(q, n, code.generators)
        assert again == code
        shuffled = list(code.generators)
        rng.shuffle(shuffled)
        assert LinearCode.from_generators(q, n, shuffled) == code


def test_rref_by_hand():
    # (2,1,0) scales to (1,2,0); (1,2,2) minus it leaves (0,0,2) -> (0,0,1)
    rows, pivots = rref(3, 3, [(2, 1, 0), (1, 2, 2)])
    assert pivots == (1, 3)
    assert rows == ((1, 2, 0), (0, 0, 1))


def test_support_examples():
    assert LinearCode.from_generators(2, 4, [(1, 1, 1, 1)]).support() == {1, 2, 3, 4}
    single = LinearCode.from_generators(2, 4, [(0, 1, 0, 0)])
    assert single.support() == {2}
    both = LinearCode.from_generators(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert both.support() == {1, 2, 3, 4}


def test_contains():
    c = LinearCode.from_generators(2, 4, [(1, 1, 1, 1)])
    assert c.contains((1, 1, 1, 1))
    assert not c.contains((1, 1, 0, 0))
    assert c.contains((0, 0, 0, 0))


def test_codewords():
    c = LinearCode.from_generators(2, 4, [(1, 1, 1, 1)])
    assert set(c.codewords()) == {(0, 0, 0, 0), (1, 1, 1, 1)}
    d = LinearCode.from_generators(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    words = list(d.codewords())
    assert len(words) == 4 and len(set(words)) == 4
    g3 = LinearCode.from_generators(3, 2, [(1, 2)])
    assert set(g3.codewords()) == {(0, 0), (1, 2), (2, 1)}


def test_codeword_closure_sampled():
    rng = random.Random(8)
    code = LinearCode.from_generators(3, 5, [(1, 0, 2, 0, 1), (0, 1, 1, 1, 0)])
    words = list(code.codewords())
    for _ in range(100):
        a, b = rng.choice(words), rng.choice(words)
        total = tuple((x + y) % 3 for x, y in zip(a, b))
        assert code.contains(total)


def test_codeword_budget():
    big = LinearCode.from_generators(
        2, 25, [tuple(1 if i == j else 0 for i in range(25)) for j in range(25)]
    )
    with pytest.raises(ResourceLimitError):
        list(big.codewords())


def test_parity_check_annihilates_code():
    for q, n, rows in [
        (2, 4, [(1, 1, 1, 1)]),
        (2, 4, [(0, 1, 0, 0), (0, 0, 0, 1)]),
        (3, 5, [(1, 0, 2, 0, 1), (0, 1, 1, 1, 0)]),
    ]:
        code = LinearCode.from_generators(q, n, rows)
        parity = code.parity_check()
        assert len(parity.rows) == n - code.k
        for word in code.codewords():
            assert parity.syndrome(word) == (0,) * (n - code.k)


def test_syndromes_depend_on_free_coordinates_only():
    code = LinearCode.from_generators(2, 4, [(0, 1, 0, 0), (0, 0, 0, 1)])
    parity = code.parity_check()
    for y in product(range(2), repeat=4):
        assert parity.syndrome(y) == (y[0], y[2])


def test_equal_syndrome_iff_difference_in_code():
    for rows in [[(1, 1, 1, 1, 0)], [(1, 1, 0, 0, 0), (0, 0, 1, 1, 1)]]:
        code = LinearCode.from_generators(2, 5, rows)
        parity = code.parity_check()
        vectors = list(product(range(2), repeat=5))
        for x in vectors:
            for y in vectors:
                diff = tuple((a - b) % 2 for a, b in zip(x, y))
                assert (parity.syndrome(x) == parity.syndrome(y)) == code.contains(diff)


def test_full_dimension_code_has_empty_parity():
    code = LinearCode.from_generators(2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert code.parity_check().rows == ()


def test_restrict():
    comp = LinearCode.from_generators(2, 4, [(0, 1, 0, 1)])
    local = comp.restrict([2, 4])
    assert local.n == 2 and local.generators == ((1, 1),)
    with pytest.raises(ValidationError):
        comp.restrict([1, 2])


def test_json_round_trip():
    code = LinearCode.from_generators(3, 4, [(1, 2, 0, 1), (0, 0, 1, 2)])
    blob = json.dumps(code.to_json_dict())
    assert LinearCode.from_json_dict(json.loads(blob)) == code
    with pytest.raises(ValidationError):
        LinearCode.from_json_dict({"q": 2, "generators": [[1]]})


def test_enumerate_codes_counts():
    catalog = list(enumerate_codes(2, 4, 2))
    assert len(catalog) == 35  # two-dimensional subspaces of GF(2)^4
    assert len(set(catalog)) == 35
    mats = [c.generators for c in catalog]
    assert mats == sorted(mats)
    assert all(c.k == 2 for c in catalog)
    assert len(list(enumerate_codes(2, 4, 1))) == 15
    assert len(list(enumerate_codes(3, 3, 1))) == 13


def test_restrict_matches_the_reference_on_supersets_of_the_support():
    rng = random.Random(29)
    for _ in range(60):
        q = rng.choice((2, 3, 5))
        n = rng.randint(1, 6)
        code = random_code(rng, q, n)
        supp = code.support()
        rest = [j for j in range(1, n + 1) if j not in supp]
        for size in range(len(rest) + 1):
            for extra in combinations(rest, size):
                coords = sorted(supp | set(extra))
                local = code.restrict(coords)
                expected = reference_code_restrict(code, coords)
                assert (local, local.pivots) == (expected, expected.pivots)
