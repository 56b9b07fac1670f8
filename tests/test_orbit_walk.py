"""The orbit walk against the full-enumeration reference in helpers.

Instances are seeded random posets and codes with n in 2..5 and q in
{2, 3}; groups are capped at 400 elements so the reference's repeated
walks stay cheap.
"""

import random

import pytest

from helpers import (
    reference_orbit_codes,
    reference_primary_decomposition,
    reference_profile_uniqueness,
)
from posetcodes.code import LinearCode
from posetcodes.errors import ResourceLimitError
from posetcodes.isometry import group_size
from posetcodes.poset import Poset
from posetcodes.search import (
    orbit_codes,
    primary_decomposition,
    verify_profile_uniqueness,
)
from posetcodes.suites import random_code, random_poset


def _instances(count=60, seed=2024, group_cap=400):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 5)
        q = rng.choice((2, 3))
        poset = random_poset(rng, n)
        code = random_code(rng, q, n)
        if group_size(poset, q) <= group_cap:
            out.append((poset, code))
    return out


INSTANCES = _instances()


@pytest.mark.parametrize("index", range(0, len(INSTANCES), 10))
def test_walk_matches_full_enumeration(index):
    for poset, code in INSTANCES[index : index + 10]:
        pd = primary_decomposition(code, poset)
        ref = reference_primary_decomposition(code, poset)
        assert pd.witness.sigma == ref.witness.sigma
        assert pd.witness.matrix_rows == ref.witness.matrix_rows
        assert pd.dec.code == ref.dec.code
        assert pd.dec.components == ref.dec.components
        assert pd.complexity == ref.complexity
        assert pd.proven_minimal and ref.proven_minimal

        assert list(orbit_codes(code, poset).items()) == list(
            reference_orbit_codes(code, poset).items()
        )
        assert (
            verify_profile_uniqueness(code, poset).to_json_dict()
            == reference_profile_uniqueness(code, poset).to_json_dict()
        )


@pytest.mark.parametrize("orbit_budget", [1, 2, 5])
def test_orbit_budget_partial_matches_full_enumeration(orbit_budget):
    poset = Poset.chain(4)
    code = LinearCode.from_generators(2, 4, [(1, 1, 1, 1)])
    with pytest.raises(ResourceLimitError) as got:
        primary_decomposition(code, poset, orbit_budget=orbit_budget)
    with pytest.raises(ResourceLimitError) as want:
        reference_primary_decomposition(code, poset, orbit_budget=orbit_budget)
    assert str(got.value) == str(want.value)
    assert got.value.partial_result.to_json_dict() == want.value.partial_result.to_json_dict()
    with pytest.raises(ResourceLimitError) as got:
        orbit_codes(code, poset, orbit_budget=orbit_budget)
    assert str(got.value) == str(want.value)
