import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import posetcodes

from helpers import reference_automorphisms
from posetcodes import search
from posetcodes.code import LinearCode, rref
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
    """On 3 < 2 and 4, 5 < 1 over GF(2) the code's U_Z.C0 has 8 codes, the
    first five of value 8 and the least of 6, so a budget of 2 codes stops
    the search inside U_Z.C0 with a partial result not proven minimal."""
    poset = Poset.from_covers(5, [(3, 2), (4, 1), (5, 1)])
    code = LinearCode.from_generators(2, 5, [(1, 0, 1, 0, 1), (0, 1, 1, 1, 1)])
    with pytest.raises(ResourceLimitError) as info:
        primary_decomposition(code, poset, orbit_budget=2)
    partial = info.value.partial_result
    assert partial is not None
    assert not partial.proven_minimal
    assert partial.complexity == 8 > minimal_complexity(code, poset) == 6
    assert partial.witness.apply_code(code) == partial.dec.code


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


def test_full_space_on_a_chain_is_reducible_with_no_walk(monkeypatch):
    """The full space on ``chain:3`` has k = n, so its parity-check matrix
    has no row and every dual column is zero: the dual side finds it
    reducible, and U.C is not walked."""

    def no_walk(*args):
        raise AssertionError("U.C was walked")

    monkeypatch.setattr(search, "_unipotent_walk", no_walk)
    is_p_irreducible.cache_clear()
    full = LinearCode.from_generators(2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert is_p_irreducible(full, Poset.chain(3)) is False


def test_irreducibility_from_the_dual_side_needs_no_budget():
    """Over GF(5) with 3 < 2 and 6 < 5 < 4, the walk of U.C overruns 37
    codes before it meets a reducible one, and no column lies in the span
    of the columns above it; a dual column lies in the span of the dual
    columns below it, so the verdict comes within that budget."""
    code = LinearCode.from_generators(
        5, 6, [(1, 0, 0, 0, 2, 2), (0, 1, 0, 0, 1, 3), (0, 0, 1, 0, 3, 2), (0, 0, 0, 1, 2, 0)]
    )
    poset = Poset.from_covers(6, [(3, 2), (5, 4), (6, 5)])
    with pytest.raises(ResourceLimitError, match="^orbit exceeds budget of 37 codes$"):
        for image, _ in search._unipotent_walk(code, poset, 37):
            assert not search._reducible(search._row_groups(image), poset.n)
    ups = search._strict_ups(poset)
    above = [[j for j in range(6) if up >> j & 1] for up in ups]
    assert not list(search._spanned(5, list(zip(*code.generators)), above))
    assert search._splits(5, code.generators, ups)
    assert is_p_irreducible(code, poset, orbit_budget=37) is False


def test_profile_check_settles_a_component_from_the_dual_side(monkeypatch):
    """On 4 points with 2 < 4 and 3 < 1, the code of 1001 and 0011 over
    GF(2) is zero at its one zeroable coordinate, 2, so it is C0, and
    U_Z.C0 holds it and the code of 1000 and 0011.  Its component on
    {1, 3, 4} holds 3 < 1, and the dual side alone settles it, so no
    subposet is built and U_Z.C0 is the one walk; the report is that of
    the walks.  The two codes of U.C nonzero at 2 are not walked: their
    component on {2, 3, 4} has a zeroable column, so neither is a
    candidate."""
    sides, restricted, walks = [], [], []
    spanned, restrict, walk = search._spanned, Poset.restrict, search._unipotent_walk

    def logged_spanned(*args):
        found = list(spanned(*args))
        sides.append([i for i, _ in found])
        return iter(found)

    def logged_restrict(poset, coords):
        restricted.append(coords)
        return restrict(poset, coords)

    def logged_walk(*args):
        walks.append(args[:2])
        return walk(*args)

    monkeypatch.setattr(search, "_spanned", logged_spanned)
    monkeypatch.setattr(Poset, "restrict", logged_restrict)
    monkeypatch.setattr(search, "_unipotent_walk", logged_walk)
    poset = Poset.from_covers(4, [(2, 4), (3, 1)])
    code = LinearCode.from_generators(2, 4, [(1, 0, 0, 1), (0, 0, 1, 1)])
    report = verify_profile_uniqueness(code, poset).to_json_dict()
    assert report == {
        "ok": True,
        "profile": [[1, 1], [1, 1], [2, 1]],
        "candidates": 2,
        "orbit_size": 8,
        "conflicts": [],
    }
    assert restricted == [] and walks == [(code, poset)]
    # Z = {2}, then the component's code side, then its dual side
    assert sides == [[1], [], [0]]


def test_irreducibility_checks_length_before_support():
    """A poset of another length is refused as every other walker refuses
    it, before the support check."""
    ones4 = LinearCode.from_generators(2, 4, [(1, 1, 1, 1)])
    with pytest.raises(ValidationError, match=r"^poset size 5 != code length 4$"):
        is_p_irreducible(ones4, Poset.chain(5))


def test_irreducibility_walk_over_a_large_field_tries_no_scaling():
    """The one-point full space over GF(1,048,573) is irreducible and its
    own orbit; the walk under the unipotent part has no generator on one
    point, so an orbit budget of 10 codes is ample.  In a child process,
    so that a hang fails the test instead of stalling it."""
    script = (
        "from posetcodes.code import LinearCode\n"
        "from posetcodes.poset import Poset\n"
        "from posetcodes.search import is_p_irreducible\n"
        "code = LinearCode.from_generators(1048573, 1, [(1,)])\n"
        "print(is_p_irreducible(code, Poset.chain(1), orbit_budget=10))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(posetcodes.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=20, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"


def test_profile_check_decomposes_only_the_unipotent_orbit():
    """On this n = 7 instance over GF(3) every one of the 10,368 orbit
    codes is one full-support candidate; decomposing every orbit code took
    about 20 s, decomposing U.C well under a second.  In a child process,
    so that a slow check fails the test instead of stalling it."""
    script = (
        "from posetcodes.code import LinearCode\n"
        "from posetcodes.poset import Poset\n"
        "from posetcodes.search import verify_profile_uniqueness\n"
        "poset = Poset.from_covers(7, [(1, 3), (7, 1)])\n"
        "rows = [(1, 0, 0, 0, 1, 1, 2), (0, 1, 0, 0, 2, 1, 1),\n"
        "        (0, 0, 1, 0, 1, 0, 2), (0, 0, 0, 1, 2, 1, 1)]\n"
        "report = verify_profile_uniqueness(LinearCode.from_generators(3, 7, rows), poset)\n"
        "print(report.ok, report.profile, report.candidates, report.orbit_size)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(posetcodes.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=10, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True ((0, 0), (7, 4)) 10368 10368\n"


def test_profile_check_settles_full_support_codes_once():
    """On 1 < 2 over GF(2), U.C = {(1, 1), (0, 1)}: (1, 1) is one
    component on full support, but (0, 1) occupies a smaller support, so
    (1, 1) is reducible and only (0, 1) is a candidate."""
    code = LinearCode.from_generators(2, 2, [(1, 1)])
    report = verify_profile_uniqueness(code, Poset.chain(2))
    assert report.ok
    assert report.profile == ((1, 1), (1, 1))
    assert report.candidates == 1
    assert report.orbit_size == 2


def test_profile_check_stops_at_its_budget_on_a_large_unipotent_orbit():
    """15,500 of the 15,625 codes of this n = 7 GF(5) instance's U.C are
    one component on full support, whose own unipotent orbit is U.C.  The
    one walk of U.C settles them all, where a walk of U.C per code would
    take about 10 minutes, so the check reaches its orbit budget in about
    a second.  In a child process, so that a slow check fails the test
    instead of stalling it."""
    script = (
        "from posetcodes.code import LinearCode\n"
        "from posetcodes.errors import ResourceLimitError\n"
        "from posetcodes.poset import Poset\n"
        "from posetcodes.search import verify_profile_uniqueness\n"
        "poset = Poset.from_covers(7, [(1, 3), (3, 6), (6, 7)])\n"
        "rows = [(1, 0, 0, 3, 3, 4, 4), (0, 1, 0, 2, 4, 1, 2), (0, 0, 1, 2, 3, 4, 1)]\n"
        "try:\n"
        "    verify_profile_uniqueness(\n"
        "        LinearCode.from_generators(5, 7, rows), poset, orbit_budget=20_000\n"
        "    )\n"
        "except ResourceLimitError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(posetcodes.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=10, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "orbit exceeds budget of 20000 codes\n"


def test_profile_check_refuses_sixteen_coordinates_before_any_walk():
    """On the random 16-point poset with the GF(3) code drawn next, U_Z.C0
    has 19,683 codes and U.C has 3^27 times as many: the zeroable columns
    alone give q^s = 3^27 codes of U.C per code of U_Z.C0, past the default
    budget, so the check stops before it walks, where walking U.C took
    seconds to reach the same stop.  In a child process, so that a slow
    check fails the test instead of stalling it."""
    script = (
        "import random\n"
        "from posetcodes import suites\n"
        "from posetcodes.errors import ResourceLimitError\n"
        "from posetcodes.search import verify_profile_uniqueness\n"
        "rng = random.Random(16)\n"
        "poset = suites.random_poset(rng, 16)\n"
        "code = suites.random_code(rng, 3, 16)\n"
        "try:\n"
        "    verify_profile_uniqueness(code, poset)\n"
        "except ResourceLimitError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(posetcodes.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=10, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "orbit exceeds budget of 100000 codes\n"


def test_one_row_component_is_settled_with_no_elimination(monkeypatch):
    """A column with no column above it is settled from the column
    supports alone, with no ``rref``.  With k = 2 a column that the others
    reach takes one elimination, which gives its row."""
    eliminations = []

    def counting_rref(*args):
        eliminations.append(args)
        return rref(*args)

    monkeypatch.setattr(search, "rref", counting_rref)
    assert list(search._spanned(5, [(3,), (4,)], [[], []])) == []
    assert eliminations == []
    # col_1 = 3 col_2 over GF(5), so row 1 is e_1 - 3 e_2
    assert list(search._spanned(5, [(1, 2), (2, 4)], [[1], []])) == [(0, (1, 2))]
    assert len(eliminations) == 1


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
    # Two chains 1 < 2 and 3 < 4, which an automorphism swaps.
    poset = Poset.from_covers(4, [(1, 2), (3, 4)])
    code = LinearCode.from_generators(2, 4, [(1, 1, 0, 0)])
    pd = primary_decomposition(code, poset)
    assert pd.witness.sigma == (3, 4, 1, 2)  # tie-break lands on the swapped image
    assert pd.witness.matrix_rows[0] == (1, 1, 0, 0)
    stripped = strip_permutation(pd)
    assert stripped.witness.sigma == (1, 2, 3, 4)
    assert stripped.witness.matrix_rows == pd.witness.matrix_rows
    assert stripped.complexity == pd.complexity
    assert stripped.dec.code == stripped.witness.apply_code(code)
    # the stripped witness is valid for every coarser poset
    for coarser in [poset, Poset.chain(4)]:
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
