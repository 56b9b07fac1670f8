import pytest

from helpers import reference_primitive_root
from posetcodes.errors import ResourceLimitError, ValidationError
from posetcodes.field import (
    MAX_MODULUS,
    FieldSpec,
    is_prime,
    parse_vector,
    primitive_root,
    vec_sub,
)


def test_make_field_accepts_primes():
    assert FieldSpec(2).q == 2
    assert FieldSpec(5).q == 5


@pytest.mark.parametrize("q", [4, 6, 9, 1, 0, -3])
def test_make_field_rejects_non_primes(q):
    with pytest.raises(ValidationError):
        FieldSpec(q)


def test_modulus_maximum():
    assert FieldSpec(1048573).q == 1048573  # the largest prime below the maximum
    for q in (MAX_MODULUS + 1, 2**61 - 1, 10**100):
        with pytest.raises(ResourceLimitError):
            FieldSpec(q)


def test_vector_examples():
    f2, f3 = FieldSpec(2), FieldSpec(3)
    assert vec_sub(f2, (1, 0), (1, 1)) == (0, 1)
    assert vec_sub(f3, (1, 2, 0), (2, 2, 1)) == (2, 0, 2)


def test_vector_length_mismatch():
    with pytest.raises(ValidationError):
        vec_sub(FieldSpec(2), (1, 0), (1, 0, 1))


def test_parse_vector_normalizes():
    assert parse_vector("1,0,2", 3) == (1, 0, 2)
    assert parse_vector("4,-1", 3) == (1, 2)
    with pytest.raises(ValidationError):
        parse_vector("1,x", 3)


def test_primitive_root_matches_brute_force_order():
    """The least element of order q - 1, for every prime below 200 and the
    largest supported one."""
    for q in [q for q in range(200) if is_prime(q)] + [1048573]:
        assert primitive_root(q) == reference_primitive_root(q), q
