import json
import random
from itertools import product

import pytest

from posetcodes.code import LinearCode
from posetcodes.errors import ResourceLimitError, ValidationError
from helpers import enumerate_isometries
from posetcodes.isometry import (
    PIsometry,
    apply_matrix,
    group_size,
    invert_matrix,
    verify_isometry,
)
from posetcodes.metric import pweight
from posetcodes.poset import Poset

N_POSET = Poset.from_covers(4, [(1, 3), (1, 4), (2, 4)])


def fold_matrix(n, q):
    """Identity with the last column filled by -1: subtracts the last
    coordinate from every earlier one."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        rows[i][n - 1] = q - 1
    return tuple(tuple(r) for r in rows)


def identity_sigma(n):
    return tuple(range(1, n + 1))


def test_fold_map_on_the_chain():
    chain = Poset.chain(4)
    iso = PIsometry(chain, 2, identity_sigma(4), fold_matrix(4, 2))
    assert iso.apply((1, 1, 1, 1)) == (0, 0, 0, 1)
    ones = LinearCode.from_generators(2, 4, [(1, 1, 1, 1)])
    assert iso.apply_code(ones) == LinearCode.from_generators(2, 4, [(0, 0, 0, 1)])
    assert verify_isometry(chain, 2, fold_matrix(4, 2))


def test_identity_isometry():
    iso = PIsometry.identity(N_POSET, 2)
    assert iso.is_identity()
    for x in product(range(2), repeat=4):
        assert iso.apply(x) == x


def test_construction_validation():
    with pytest.raises(ValidationError):
        PIsometry(Poset.chain(2), 2, (2, 1), ((1, 0), (0, 1)))  # not an automorphism
    with pytest.raises(ValidationError):
        PIsometry(Poset.chain(2), 2, (1, 2), ((0, 0), (0, 1)))  # zero diagonal
    with pytest.raises(ValidationError):
        PIsometry(Poset.antichain(2), 2, (1, 2), ((1, 1), (0, 1)))  # forbidden entry
    with pytest.raises(ValidationError):
        PIsometry(Poset.chain(2), 2, (1, 2), ((1,),))  # wrong shape


def test_antichain_triangular_part_is_diagonal_only():
    stream = list(enumerate_isometries(Poset.antichain(3), 2))
    assert len(stream) == 6
    eye = tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3))
    assert all(iso.matrix_rows == eye for iso in stream)
    assert sorted(iso.sigma for iso in stream) == sorted(
        {iso.sigma for iso in stream}
    )


def test_group_size_examples():
    assert group_size(N_POSET, 2) == 8
    assert group_size(Poset.antichain(4), 2) == 24
    assert group_size(Poset.chain(2), 3) == 12


@pytest.mark.parametrize(
    "poset,q",
    [
        (N_POSET, 2),
        (Poset.antichain(3), 2),
        (Poset.chain(2), 3),
        (Poset.hierarchical((2, 1)), 3),
    ],
)
def test_stream_length_matches_group_size(poset, q):
    stream = list(enumerate_isometries(poset, q))
    assert len(stream) == group_size(poset, q)
    assert len({(iso.sigma, iso.matrix_rows) for iso in stream}) == len(stream)


def test_enumeration_budget():
    with pytest.raises(ResourceLimitError):
        list(enumerate_isometries(Poset.chain(5), 5, budget=10))


@pytest.mark.parametrize(
    "poset",
    [N_POSET, Poset.chain(4), Poset.hierarchical((2, 2)), Poset.antichain(4)],
)
def test_every_enumerated_map_preserves_weight(poset):
    for iso in enumerate_isometries(poset, 2):
        for x in product(range(2), repeat=4):
            assert pweight(poset, iso.apply(x)) == pweight(poset, x)


@pytest.mark.parametrize("poset,q", [(N_POSET, 2), (Poset.chain(3), 2), (Poset.chain(2), 3)])
def test_group_closed_under_composition(poset, q):
    matrices = {iso.matrix() for iso in enumerate_isometries(poset, q)}
    rng = random.Random(31)
    pool = sorted(matrices)
    for _ in range(100):
        a = rng.choice(pool)
        b = rng.choice(pool)
        prod_rows = tuple(
            tuple(sum(x * y for x, y in zip(row, col)) % q for col in zip(*b))
            for row in a
        )
        assert prod_rows in matrices


def test_finer_pattern_is_contained_in_coarser():
    from posetcodes.poset import all_posets

    catalog = list(all_posets(3))
    for p in catalog:
        for coarser in catalog:
            if not p.is_finer_than(coarser):
                continue
            for i in range(1, 4):
                for j in range(1, 4):
                    if i != j and p.leq(i, j):
                        assert coarser.leq(i, j)


def test_induced_order_map():
    chain = Poset.chain(4)
    fold = PIsometry(chain, 2, identity_sigma(4), fold_matrix(4, 2))
    assert fold.sigma == (1, 2, 3, 4)
    anti = Poset.antichain(3)
    eye3 = tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3))
    perm = PIsometry(anti, 2, (2, 3, 1), eye3)
    assert perm.sigma == (2, 3, 1)
    hier = Poset.hierarchical((2, 2))
    rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    rows[0][2] = 1
    mixed = PIsometry(hier, 2, (2, 1, 3, 4), rows)
    assert mixed.sigma == (2, 1, 3, 4)


def test_verify_isometry_rejects_bad_maps():
    chain2 = Poset.chain(2)
    swap = ((0, 1), (1, 0))
    assert not verify_isometry(chain2, 2, swap)
    diagonal = ((1, 0), (0, 1))
    assert verify_isometry(chain2, 2, diagonal)
    assert verify_isometry(Poset.antichain(3), 3, ((2, 0, 0), (0, 1, 0), (0, 0, 2)))
    singular = ((1, 1), (1, 1))
    assert not verify_isometry(chain2, 2, singular)


def test_invert_matrix():
    rng = random.Random(33)
    for q in (2, 3, 5):
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = tuple(
                tuple(rng.randrange(q) for _ in range(n)) for _ in range(n)
            )
            try:
                inverse = invert_matrix(q, rows)
            except ValidationError:
                continue
            for i in range(n):
                unit = tuple(1 if j == i else 0 for j in range(n))
                assert apply_matrix(q, rows, apply_matrix(q, inverse, unit)) == unit


def test_json_round_trip():
    iso = PIsometry(Poset.chain(3), 3, identity_sigma(3), ((2, 0, 1), (0, 1, 2), (0, 0, 1)))
    blob = json.dumps(iso.to_json_dict())
    assert PIsometry.from_json_dict(Poset.chain(3), 3, json.loads(blob)) == iso


def test_verify_isometry_refuses_a_space_above_the_enumeration_budget():
    """3^13 > 2^20: refused before any vector is checked."""
    identity = tuple(tuple(1 if i == j else 0 for j in range(13)) for i in range(13))
    with pytest.raises(ResourceLimitError):
        verify_isometry(Poset.chain(13), 3, identity)
