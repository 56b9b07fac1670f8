import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import posetcodes

from helpers import reference_automorphisms
from posetcodes.code import LinearCode
from posetcodes.decomposition import maximal_decomposition
from posetcodes.errors import ResourceLimitError, ValidationError
from posetcodes.isometry import PIsometry
from posetcodes.poset import Poset, hierarchical_posets
from posetcodes.search import (
    BoundsReport,
    hierarchy_bounds,
    is_p_irreducible,
    lower_neighbour,
    minimal_complexity,
    monotonicity_check,
    orbit_codes,
    primary_decomposition,
    strip_permutation,
    upper_neighbour,
    verify_profile_uniqueness,
    witness_refinement,
)
from posetcodes.suites import random_code, random_poset

N_POSET = Poset.from_covers(4, [(1, 3), (1, 4), (2, 4)])
R4 = LinearCode.from_generators(2, 4, [(1, 1, 1, 1)])


def test_primary_on_the_chain_reproduces_the_fold_witness():
    pd = primary_decomposition(R4, Poset.chain(4))
    assert pd.complexity == 1
    assert pd.dec.code == LinearCode.from_generators(2, 4, [(0, 0, 0, 1)])
    expected = (
        (1, 0, 0, 1),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
        (0, 0, 0, 1),
    )
    assert pd.witness.sigma == (1, 2, 3, 4)
    assert pd.witness.matrix_rows == expected
    assert pd.proven_minimal


def test_primary_on_the_n_poset():
    pd = primary_decomposition(R4, N_POSET)
    assert pd.complexity == 2
    assert pd.dec.code == LinearCode.from_generators(2, 4, [(0, 0, 1, 1)])
    assert pd.witness.apply_code(R4) == pd.dec.code


def test_primary_on_the_antichain():
    pd = primary_decomposition(R4, Poset.antichain(4))
    assert pd.complexity == 8
    assert pd.dec.code == R4


def test_orbit_deficiency_spread_on_n_poset():
    orbit = orbit_codes(R4, N_POSET)
    assert len(orbit) == 4
    sizes = sorted(len(code.support()) for code in orbit)
    assert sizes == [2, 3, 3, 4]
    for code, witness in orbit.items():
        assert witness.apply_code(R4) == code


def test_primary_determinism():
    first = primary_decomposition(R4, N_POSET)
    second = primary_decomposition(R4, N_POSET)
    assert first.witness == second.witness
    assert first.dec.code == second.dec.code


def test_orbit_budget_reports_partial():
    with pytest.raises(ResourceLimitError) as info:
        primary_decomposition(R4, Poset.chain(4), orbit_budget=2)
    partial = info.value.partial_result
    assert partial is not None
    assert not partial.proven_minimal
    assert partial.complexity >= 1


def test_profile_uniqueness_examples():
    report = verify_profile_uniqueness(R4, Poset.chain(4))
    assert report.ok and report.profile == ((3, 3), (1, 1))

    d_code = LinearCode.from_generators(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    report = verify_profile_uniqueness(d_code, Poset.antichain(4))
    assert report.ok and report.profile == ((0, 0), (2, 1), (2, 1))

    lone = LinearCode.from_generators(2, 4, [(0, 1, 0, 0)])
    report = verify_profile_uniqueness(lone, Poset.antichain(4))
    assert report.ok
    assert report.profile == maximal_decomposition(lone).profile()


def test_irreducibility():
    ones2 = LinearCode.from_generators(2, 2, [(1, 1)])
    assert is_p_irreducible(ones2, Poset.antichain(2))
    assert not is_p_irreducible(ones2, Poset.chain(2))  # support compresses
    split = LinearCode.from_generators(2, 2, [(1, 0), (0, 1)])
    assert not is_p_irreducible(split, Poset.antichain(2))
    with pytest.raises(ValidationError):
        is_p_irreducible(LinearCode.from_generators(2, 2, [(1, 0)]), Poset.antichain(2))


def test_irreducibility_walk_is_bounded_by_its_canonicalisations():
    """The one-point full space over GF(1,048,573) is irreducible and its
    own orbit, but its walk would try a million scalings; an orbit budget
    of 10 codes stops it after 200.  In a child process, so that a hang
    fails the test instead of stalling it."""
    script = (
        "from posetcodes.code import LinearCode\n"
        "from posetcodes.poset import Poset\n"
        "from posetcodes.search import is_p_irreducible\n"
        "code = LinearCode.from_generators(1048573, 1, [(1,)])\n"
        "is_p_irreducible(code, Poset.chain(1), orbit_budget=10)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(posetcodes.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=20, env=env
    )
    assert result.returncode != 0
    assert result.stderr.splitlines()[-1] == (
        "posetcodes.errors.ResourceLimitError: orbit walk exceeds budget of 200"
        " canonicalisations after admitting 1 codes"
    )


def test_orbit_budget_is_keyword_only():
    """A third positional argument was once the group budget; it must fail
    rather than become an orbit budget."""
    chain = Poset.chain(4)
    for function, args in [
        (orbit_codes, (R4, chain)),
        (primary_decomposition, (R4, chain)),
        (minimal_complexity, (R4, chain)),
        (is_p_irreducible, (R4, chain)),
        (verify_profile_uniqueness, (R4, chain)),
        (hierarchy_bounds, (R4, N_POSET)),
        (monotonicity_check, (R4, Poset.antichain(4), chain)),
        (witness_refinement, (Poset.antichain(2), Poset.chain(2), 2)),
    ]:
        with pytest.raises(TypeError):
            function(*args, 10**7)


def test_irreducibility_cache_is_bounded():
    # One benchmark sweep pass fills about a hundred entries; an unbounded
    # cache would grow without end in a long-lived process.
    maxsize = is_p_irreducible.cache_info().maxsize
    assert maxsize is not None and 100 < maxsize < 10**5


def test_strip_permutation_identity_cases():
    pd = primary_decomposition(R4, Poset.chain(4))
    assert strip_permutation(pd) is pd


def test_strip_permutation_moves_the_witness_into_the_triangular_part():
    code = LinearCode.from_generators(2, 2, [(1, 0)])
    pd = primary_decomposition(code, Poset.antichain(2))
    assert pd.witness.sigma == (2, 1)  # tie-break lands on the swapped image
    stripped = strip_permutation(pd)
    assert stripped.witness.sigma == (1, 2)
    assert stripped.complexity == pd.complexity
    assert stripped.dec.code == stripped.witness.apply_code(code)
    # the stripped witness is valid for every coarser poset
    for coarser in [Poset.chain(2), Poset.antichain(2)]:
        PIsometry(coarser, 2, stripped.witness.sigma, stripped.witness.matrix_rows)


def test_conjugating_by_an_automorphism_preserves_complexity():
    rng = random.Random(41)
    checked = 0
    while checked < 10:
        poset = random_poset(rng, 4)
        autos = reference_automorphisms(poset)
        if len(autos) == 1:
            continue
        code = random_code(rng, 2, 4)
        pd = primary_decomposition(code, poset)
        eye = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
        for sigma in autos:
            mover = PIsometry(poset, 2, sigma, eye)
            moved_code = mover.apply_code(pd.dec.code)
            from posetcodes.decomposition import Decomposition

            moved = Decomposition(
                moved_code, [mover.apply_code(c) for c in pd.dec.components]
            )
            assert moved.complexity() == pd.complexity
        checked += 1


def test_neighbours_of_the_n_poset():
    upper = upper_neighbour(N_POSET)
    assert upper.strict_pairs() == {(1, 3), (1, 4), (2, 3), (2, 4)}
    lower = lower_neighbour(N_POSET)
    assert lower == Poset.antichain(4)


def test_neighbours_fix_hierarchical_posets():
    for poset in [Poset.hierarchical((2, 2)), Poset.chain(4), Poset.antichain(3)]:
        assert upper_neighbour(poset) == poset
        assert lower_neighbour(poset) == poset


def test_neighbours_on_a_three_level_poset_with_an_isolated_element():
    poset = Poset.from_covers(4, [(1, 2), (2, 3)])
    assert lower_neighbour(poset) == Poset.antichain(4)
    upper = upper_neighbour(poset)
    assert upper.heights() == poset.heights()
    assert poset.is_finer_than(upper)


def test_neighbours_sandwich_random_posets():
    rng = random.Random(43)
    for _ in range(30):
        poset = random_poset(rng, 5)
        upper = upper_neighbour(poset)
        lower = lower_neighbour(poset)
        assert lower.is_finer_than(poset)
        assert poset.is_finer_than(upper)
        assert lower.is_hierarchical()
        assert upper.is_hierarchical()
        assert (poset == upper) == (poset == lower) == poset.is_hierarchical()


def test_hierarchy_bounds_worked_instance():
    bounds = hierarchy_bounds(R4, N_POSET)
    assert (bounds.o_upper, bounds.o_p, bounds.o_lower) == (2, 2, 8)
    assert bounds.sandwich_ok


def test_hierarchy_bounds_collapse_for_hierarchical_posets():
    pair = LinearCode.from_generators(2, 4, [(0, 1, 0, 0), (0, 0, 0, 1)])
    bounds = hierarchy_bounds(pair, Poset.chain(4))
    assert bounds.o_upper == bounds.o_p == bounds.o_lower == 1
    bounds_d = hierarchy_bounds(
        LinearCode.from_generators(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)]),
        Poset.hierarchical((2, 2)),
    )
    assert bounds_d.o_upper == bounds_d.o_p == bounds_d.o_lower


def test_bounds_report_tolerates_missing_middle():
    report = BoundsReport(Poset.chain(2), Poset.antichain(2), 1, 4, None)
    assert report.sandwich_ok
    assert report.to_json_dict()["o_p"] is None


def test_monotonicity_examples():
    assert monotonicity_check(R4, Poset.antichain(4), Poset.chain(4))
    assert monotonicity_check(R4, Poset.antichain(4), N_POSET)
    assert monotonicity_check(R4, N_POSET, N_POSET)
    with pytest.raises(ValidationError):
        monotonicity_check(R4, Poset.chain(4), Poset.antichain(4))


def test_minimal_complexity_values():
    assert minimal_complexity(R4, Poset.chain(4)) == 1
    assert minimal_complexity(R4, N_POSET) == 2
    assert minimal_complexity(R4, Poset.antichain(4)) == 8


def test_witness_refinement_smallest_case():
    witness = witness_refinement(Poset.antichain(2), Poset.chain(2))
    assert witness == LinearCode.from_generators(2, 2, [(1, 1)])
    assert minimal_complexity(witness, Poset.antichain(2)) == 2
    assert minimal_complexity(witness, Poset.chain(2)) == 1


def test_witness_refinement_validates_strictness():
    with pytest.raises(ValidationError):
        witness_refinement(Poset.chain(2), Poset.chain(2))
    with pytest.raises(ValidationError):
        witness_refinement(Poset.chain(2), Poset.antichain(2))


def test_witness_refinement_n_poset_to_its_upper_neighbour():
    witness = witness_refinement(N_POSET, upper_neighbour(N_POSET))
    assert witness is not None
    o_fine = minimal_complexity(witness, N_POSET)
    o_coarse = minimal_complexity(witness, upper_neighbour(N_POSET))
    assert o_coarse <= o_fine


def test_stripped_decomposition_is_valid_for_every_coarser_hierarchical_poset():
    rng = random.Random(47)
    for _ in range(8):
        poset = random_poset(rng, 4)
        code = random_code(rng, 2, 4)
        stripped = strip_permutation(primary_decomposition(code, poset))
        for coarser in hierarchical_posets(4):
            if poset.is_finer_than(coarser):
                PIsometry(coarser, 2, stripped.witness.sigma, stripped.witness.matrix_rows)
