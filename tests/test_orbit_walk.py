"""The orbit walk against the reference loops in helpers.

Instances are seeded random posets and codes with n in 2..5 and q in
{2, 3}; groups are capped at 400 elements so the reference's repeated
walks stay cheap.  Decompositions, complexities, orbit sets and profile
reports must equal the full enumeration's.  Witnesses and the orbit order
follow the walk, not the full enumeration's order, so a witness is checked
by the image it reaches; the walk's own sequence must equal the one that
permutes every triangular image by each automorphism the block walk tries.
"""

import random

import pytest

from helpers import (
    reference_is_p_irreducible,
    reference_orbit_codes,
    reference_orbit_walk,
    reference_primary_decomposition,
    reference_profile_uniqueness,
)
from posetcodes import search
from posetcodes.code import LinearCode, enumerate_codes, rref
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


# -- the permutation step against permuting every code -------------------


def _code_slice(q, n, per_dimension):
    """About ``per_dimension`` codes of each dimension, spread over the
    enumeration order."""
    out = []
    for k in range(1, n + 1):
        codes = list(enumerate_codes(q, n, k))
        out += codes[:: max(1, len(codes) // per_dimension)]
    return out


MANY_AUTOMORPHISMS = [
    (Poset.antichain(n), code) for n in (4, 5, 6) for code in _code_slice(2, n, 4)
] + [
    (Poset.hierarchical(type_vector), code)
    for type_vector in ((2, 2), (1, 3))
    for code in _code_slice(3, 4, 3)
]


def _walk(items):
    """The items of a walk and the budget message that stops it, if any."""
    got = []
    try:
        for item in items:
            got.append(item)
    except ResourceLimitError as exc:
        return got, str(exc)
    return got, None


def _cut_budgets(full):
    """Orbit budgets that stop the walk at a permuted image: at the first,
    a middle and the last one, preferring images inside a block."""
    identity = full[0][1]
    permuted = [b for b in range(1, len(full)) if full[b][1] != identity]
    inside = [b for b in permuted if full[b - 1][1] == full[b][1]]
    cuts = inside or permuted
    return sorted({cuts[0], cuts[len(cuts) // 2], cuts[-1]}) if cuts else []


@pytest.mark.parametrize(
    "instances",
    [INSTANCES[:30], INSTANCES[30:], MANY_AUTOMORPHISMS],
    ids=["seeded-1", "seeded-2", "many-automorphisms"],
)
def test_walk_sequence_matches_permuting_every_code(instances):
    """The walk yields the reference's ``(image, sigma, matrix)`` items in
    order, though it canonicalises only the first image of a block it has
    already walked, and a budget that cuts a permuted block stops both at
    the same item with the same message."""
    cuts_inside = 0
    for poset, code in instances:
        full, message = _walk(reference_orbit_walk(code, poset))
        assert message is None
        assert _walk(search._orbit(code, poset, 10**5)) == (full, None)
        for budget in _cut_budgets(full):
            want = _walk(reference_orbit_walk(code, poset, orbit_budget=budget))
            assert want == (full[:budget], f"orbit exceeds budget of {budget} codes")
            assert _walk(search._orbit(code, poset, budget)) == want
            cuts_inside += full[budget - 1][1] == full[budget][1]
    assert cuts_inside > 0


def test_permutation_step_canonicalises_few_codes(monkeypatch):
    """On a GF(2) antichain the triangular part is trivial, so each block
    is one code; the walk canonicalises the image of each block under each
    generator of Aut(P), n - 1 transpositions, where permuting every code
    would take |Aut| - 1 canonicalisations."""
    calls = 0

    def counting_rref(*args):
        nonlocal calls
        calls += 1
        return rref(*args)

    monkeypatch.setattr(search, "rref", counting_rref)
    for n in (4, 5, 6):
        poset = Poset.antichain(n)
        assert len(poset.automorphisms()[0]) == n - 1
        codes = _code_slice(2, n, 40 if n == 6 else 10**6)  # every code for n < 6
        for code in codes:
            calls = 0
            orbit = list(search._orbit(code, poset, 10**5))
            assert calls == len(orbit) * (n - 1), (code, calls, len(orbit))
    calls = 0
    pair = LinearCode.from_generators(2, 6, [(1, 1, 0, 0, 0, 0)])
    orbit = list(search._orbit(pair, Poset.antichain(6), 10**5))
    assert (len(orbit), calls) == (15, 75)
