import json
import random
from itertools import combinations, product

import pytest

from helpers import reference_code_restrict, reference_rref
from posetcodes.code import LinearCode, enumerate_codes, rref
from posetcodes.errors import ResourceLimitError, ValidationError
from posetcodes.poset import Poset
from posetcodes.search import witness_refinement
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


@pytest.mark.parametrize("q", [2, 3, 5, 7, 1_048_573])
def test_rref_matches_the_reference(q):
    rng = random.Random(q)
    for _ in range(150):
        n = rng.randint(1, 8)
        k = rng.randint(0, n + 2)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if rows and rng.random() < 0.3:
            rows.append([0] * n)
        if rows and rng.random() < 0.3:
            rows.append(list(rng.choice(rows)))
        if rng.random() < 0.5:
            # negative or unreduced entries must read as their residues
            rows = [[v + q * rng.randint(-3, 3) for v in row] for row in rows]
        rng.shuffle(rows)
        before = [list(row) for row in rows]
        expected = reference_rref(q, n, rows)
        assert rref(q, n, rows) == expected, (q, n, rows)
        assert rows == before
        reduced, _ = expected
        # an already reduced matrix comes back unchanged
        assert rref(q, n, reduced) == expected


def test_support_examples():
    assert LinearCode.from_generators(2, 4, [(1, 1, 1, 1)]).support() == {1, 2, 3, 4}
    single = LinearCode.from_generators(2, 4, [(0, 1, 0, 0)])
    assert single.support() == {2}
    both = LinearCode.from_generators(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert both.support() == {1, 2, 3, 4}


def test_support_matches_the_entries():
    """The support is the set of columns with a non-zero generator entry,
    on seeded random codes over GF(2), GF(3) and GF(5), some of whose
    columns are zero."""
    rng = random.Random(37)
    zero_columns = 0
    for _ in range(90):
        q = rng.choice((2, 3, 5))
        n = rng.randint(1, 8)
        zero = {j for j in range(n) if rng.random() < 0.3}
        rows = [[0 if j in zero else rng.randrange(q) for j in range(n)]
                for _ in range(rng.randint(1, n))]
        if not any(map(any, rows)):
            continue
        code = LinearCode.from_generators(q, n, rows)
        expected = {j + 1 for j in range(n) for row in code.generators if row[j]}
        assert code.support() == expected
        assert not expected & {j + 1 for j in zero}
        zero_columns += len(zero)
    assert zero_columns > 0


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
    first = LinearCode.from_generators(2, 3, [(1, 0, 0)])
    for coords in ([0, 1], [1, 4]):
        with pytest.raises(ValidationError, match="not in \\[3\\]"):
            first.restrict(coords)


def test_json_round_trip():
    code = LinearCode.from_generators(3, 4, [(1, 2, 0, 1), (0, 0, 1, 2)])
    blob = json.dumps(code.to_json_dict())
    assert LinearCode.from_json_dict(json.loads(blob)) == code
    with pytest.raises(ValidationError):
        LinearCode.from_json_dict({"q": 2, "generators": [[1]]})
    with pytest.raises(ValidationError, match="^malformed code document"):
        LinearCode.from_json_dict({**code.to_json_dict(), "covers": [[1, 2]]})
    for generators in ("11", ["11"], {"1": [1, 1]}, [[1, 1], (0, 1)]):
        with pytest.raises(ValidationError, match="^malformed code document"):
            LinearCode.from_json_dict({"q": 2, "n": 2, "generators": generators})


def test_enumerate_codes_counts():
    catalog = list(enumerate_codes(2, 4, 2))
    assert len(catalog) == 35  # two-dimensional subspaces of GF(2)^4
    assert len(set(catalog)) == 35
    mats = [c.generators for c in catalog]
    assert mats == sorted(mats)
    assert all(c.k == 2 for c in catalog)
    assert len(list(enumerate_codes(2, 4, 1))) == 15
    assert len(list(enumerate_codes(3, 3, 1))) == 13


@pytest.mark.parametrize("q", [4, 1])
def test_codes_over_a_modulus_that_is_no_field_are_refused(q):
    """Z/4 is not a field, and Z/1 has no unit for a pivot: neither yields a
    code, nor a refinement witness built from one."""
    with pytest.raises(ValidationError, match="^field modulus must be"):
        next(enumerate_codes(q, 2, 1))
    with pytest.raises(ValidationError, match="^field modulus must be"):
        witness_refinement(Poset.antichain(2), Poset.chain(2), q=q)


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
