"""The orbit walk against the full-enumeration reference in helpers.

Instances are seeded random posets and codes with n in 2..5 and q in
{2, 3}; groups are capped at 400 elements so the reference's repeated
walks stay cheap.  Decompositions, complexities, orbit sets and profile
reports must equal the reference's.  Witnesses and the orbit order follow
the walk, not the reference's enumeration order, so a witness is checked
by the image it reaches.
"""

import random

import pytest

from helpers import (
    reference_is_p_irreducible,
    reference_orbit_codes,
    reference_primary_decomposition,
    reference_profile_uniqueness,
)
from posetcodes.code import LinearCode
from posetcodes.decomposition import maximal_decomposition, min_grouping_complexity
from posetcodes.errors import ResourceLimitError
from posetcodes.isometry import group_size
from posetcodes.poset import Poset
from posetcodes.search import (
    is_p_irreducible,
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
        assert pd.witness.apply_code(code) == pd.dec.code
        assert pd.dec.code == ref.dec.code
        assert pd.dec.components == ref.dec.components
        assert pd.complexity == ref.complexity
        assert pd.proven_minimal and ref.proven_minimal

        orbit = orbit_codes(code, poset)
        assert orbit.keys() == reference_orbit_codes(code, poset).keys()
        for image, witness in orbit.items():
            assert witness.apply_code(code) == image
        assert (
            verify_profile_uniqueness(code, poset).to_json_dict()
            == reference_profile_uniqueness(code, poset).to_json_dict()
        )


def _irreducibility_cases(random_count=40, seed=7, group_cap=400):
    """The components of every instance code on their induced subposets,
    then seeded random full-support codes."""
    cases = []
    for poset, code in INSTANCES:
        for comp in maximal_decomposition(code).components:
            coords = sorted(comp.support())
            cases.append((comp.restrict(coords), poset.restrict(coords)))
    rng = random.Random(seed)
    drawn = 0
    while drawn < random_count:
        n = rng.randint(1, 5)
        q = rng.choice((2, 3))
        poset = random_poset(rng, n)
        code = random_code(rng, q, n)
        if len(code.support()) == n and group_size(poset, q) <= group_cap:
            cases.append((code, poset))
            drawn += 1
    return cases


def test_irreducibility_matches_full_enumeration():
    verdicts = set()
    for code, poset in _irreducibility_cases():
        verdict = is_p_irreducible(code, poset)
        assert verdict == reference_is_p_irreducible(code, poset), (code, poset)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("orbit_budget", [1, 2, 5])
def test_orbit_budget_partial_matches_full_enumeration(orbit_budget):
    """The budget error matches the reference; the partial result is the
    best of the codes walked before it."""
    poset = Poset.chain(4)
    code = LinearCode.from_generators(2, 4, [(1, 1, 1, 1)])
    with pytest.raises(ResourceLimitError) as got:
        primary_decomposition(code, poset, orbit_budget=orbit_budget)
    with pytest.raises(ResourceLimitError) as want:
        reference_primary_decomposition(code, poset, orbit_budget=orbit_budget)
    assert str(got.value) == str(want.value)
    partial = got.value.partial_result
    walked = list(orbit_codes(code, poset))[:orbit_budget]
    best = min(walked, key=lambda image: (min_grouping_complexity(image), image.generators))
    assert partial.dec.code == best
    assert partial.complexity == min_grouping_complexity(best)
    assert partial.witness.apply_code(code) == best
    assert not partial.proven_minimal
    with pytest.raises(ResourceLimitError) as got:
        orbit_codes(code, poset, orbit_budget=orbit_budget)
    assert str(got.value) == str(want.value)


def test_orbit_codes_follow_walk_order():
    """On 1 < 2 plus two free points over GF(3), the walk lists the six
    triangular images first, each under a scaling of coordinate 2 and an
    addition of it into coordinate 1, and then the same six with 3 and 4
    swapped by the one nontrivial automorphism."""
    poset = Poset.from_covers(4, [(1, 2)])
    code = LinearCode.from_generators(3, 4, [(0, 1, 0, 1)])

    def triangular(a12, a22):
        return ((1, a12, 0, 0), (0, a22, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    triangular_part = [
        ((0, 1, 0, 1), (0, 1)),
        ((0, 1, 0, 2), (0, 2)),
        ((1, 1, 0, 1), (1, 1)),
        ((1, 2, 0, 2), (2, 1)),
        ((1, 1, 0, 2), (2, 2)),
        ((1, 2, 0, 1), (1, 2)),
    ]
    expected = [
        (row, (1, 2, 3, 4), triangular(*entries)) for row, entries in triangular_part
    ] + [
        ((x, y, z, w), (1, 2, 4, 3), triangular(*entries))
        for (x, y, w, z), entries in triangular_part
    ]
    got = [
        (image.generators[0], witness.sigma, witness.matrix_rows)
        for image, witness in orbit_codes(code, poset).items()
    ]
    assert got == expected
