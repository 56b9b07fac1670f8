"""The orbit walk against the reference loops in helpers.

Instances are seeded random posets and codes with n in 2..5 and q in
{2, 3}; groups are capped at 400 elements so the reference's repeated
walks stay cheap.  Decompositions, complexities, orbit sets and profile
reports must equal the full enumeration's, and so must the values that
``minimal_complexity`` and ``hierarchy_bounds`` take from U_Z.C0 alone,
the codes of U.C zero on Z, here also over GF(5), and the profile
reports on instances over GF(2), GF(3) and GF(5) whose components need
walks of their own.  On a hierarchical poset the primary decomposition
is the closed form's level sum instead, which must have the least
complexity and the canonical profile; a second draw, of posets that are
not hierarchical, keeps the exact tie-break compared on at least 60
instances.  Witnesses and the orbit order follow the walk, not
the full enumeration's order, so a witness is checked by the image it
reaches.  The walk of U.C must reach
the codes of the breadth-first walk that tries every addition, each once,
with a unipotent matrix, rebuilt from the walk's steps, mapping C onto
it; fed that U.C list, the walk's own sequence, here also over GF(5) and
GF(7), must equal the one that maps every walked image by each monomial
block map the block walks try, and a budget that cuts the orbit must stop
it with the same message.  A scaling-stage image never eliminates.  On
hypothesis draws with n <= 6 over GF(2), GF(3) and GF(5), the block
walks, which skip a move that arranges the columns as one tried before,
must give the items of that walk, which tries every move.  On draws with
n <= 8 over GF(2), GF(3), GF(5) and GF(7), a permuted image must equal the
elimination of the permuted rows, and a scaled image that of the rows
with one column scaled, with the same pivots and no elimination; on
seeded instances with n from 8 to 16 a stopped primary search must say
what it proved.
On draws with n <= 7 over GF(2), GF(3) and GF(5), an addition must equal
the elimination of the summed rows, and the zeroable coordinates must be
those of the listed spans, the same on every code of U.C, and zero on
every code of least value; u0 must map C onto C0, and the walk of U_Z.C0
must reach the codes of the zeroed column family, each once.  u0 and C0
must equal those of one elimination per coordinate, also on hierarchical
posets, and the set-up must eliminate only where the supports leave the
verdict open.
"""

import random
from operator import itemgetter

import pytest

from helpers import (
    reference_is_p_irreducible,
    reference_orbit_codes,
    reference_orbit_walk,
    reference_primary_decomposition,
    reference_profile_candidates,
    reference_profile_uniqueness,
    reference_unipotent_walk,
    reference_zeroable,
    reference_zeroed_family,
    reference_zeroed_setup,
    reference_zeroed_walk,
)
from posetcodes import search
from posetcodes.code import LinearCode, enumerate_codes, rref
from posetcodes.decomposition import maximal_decomposition, min_grouping_complexity
from posetcodes.errors import ResourceLimitError
from posetcodes.isometry import PIsometry, group_size
from posetcodes.poset import Poset
from posetcodes.search import (
    hierarchy_bounds,
    is_p_irreducible,
    minimal_complexity,
    orbit_codes,
    primary_decomposition,
    verify_profile_uniqueness,
)
from posetcodes.suites import random_code, random_poset

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:  # only the property test against the unskipped walk needs hypothesis
    given = None


def _instances(count=60, seed=2024, group_cap=400, fields=(2, 3), hierarchical=True):
    """Seeded instances with a group of at most ``group_cap`` elements; with
    ``hierarchical`` False, draws on a hierarchical poset are rejected."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 5)
        q = rng.choice(fields)
        poset = random_poset(rng, n)
        code = random_code(rng, q, n)
        if group_size(poset, q) <= group_cap and (hierarchical or not poset.is_hierarchical()):
            out.append((poset, code))
    return out


INSTANCES = _instances()
# The primary search takes the closed form on a hierarchical poset, so the
# walk's exact tie-break is compared on the instances above whose poset is not
# hierarchical, and on these.
NON_HIERARCHICAL = _instances(count=40, seed=33, hierarchical=False)


def check_primary_against_full_enumeration(code, poset):
    """On a hierarchical poset the primary search is the closed form: the
    level sum, of the orbit's least complexity and canonical profile.  On
    any other poset it is the orbit's lexicographically least code of that
    complexity, with the same grouping as the exhaustive search."""
    pd = primary_decomposition(code, poset)
    ref = reference_primary_decomposition(code, poset)
    assert pd.witness.apply_code(code) == pd.dec.code
    assert pd.complexity == ref.complexity
    assert pd.proven_minimal and ref.proven_minimal
    if poset.is_hierarchical():
        assert pd.dec.code == search._level_sum(code, poset.heights())[0]
        profile = reference_profile_uniqueness(code, poset).profile
        assert maximal_decomposition(pd.dec.code).profile() == profile
        witness = pd.witness
        assert PIsometry(poset, code.q, witness.sigma, witness.matrix_rows) == witness
    else:
        assert pd.dec.code == ref.dec.code
        assert pd.dec.components == ref.dec.components


@pytest.mark.parametrize("index", range(0, len(INSTANCES), 10))
def test_walk_matches_full_enumeration(index):
    for poset, code in INSTANCES[index : index + 10]:
        check_primary_against_full_enumeration(code, poset)

        orbit = orbit_codes(code, poset)
        assert orbit.keys() == reference_orbit_codes(code, poset).keys()
        for image, witness in orbit.items():
            assert witness.apply_code(code) == image
            checked = PIsometry(poset, code.q, witness.sigma, witness.matrix_rows)
            assert witness == checked and hash(witness) == hash(checked)
        assert (
            verify_profile_uniqueness(code, poset).to_json_dict()
            == reference_profile_uniqueness(code, poset).to_json_dict()
        )


@pytest.mark.parametrize("index", range(0, len(NON_HIERARCHICAL), 10))
def test_tie_break_matches_full_enumeration_off_hierarchical_posets(index):
    for poset, code in NON_HIERARCHICAL[index : index + 10]:
        check_primary_against_full_enumeration(code, poset)


def test_value_searches_match_full_enumeration():
    """``minimal_complexity`` walks U_Z.C0 alone, and ``hierarchy_bounds``
    takes o_p from equal neighbour values or stops its walk of U_Z.C0 at
    o_upper: each equals the minimum over the whole orbit, on instances of
    all three kinds."""
    kinds = {"fixed": 0, "stopped": 0, "walked": 0}
    for poset, code in INSTANCES + _instances(count=30, seed=15, group_cap=2000, fields=(5,)):
        full = reference_primary_decomposition(code, poset).complexity
        assert minimal_complexity(code, poset) == full, (poset, code)
        bounds = hierarchy_bounds(code, poset)
        assert bounds.o_p == full, (poset, code)
        if bounds.o_upper == bounds.o_lower:
            kinds["fixed"] += 1
        else:
            kinds["stopped" if full == bounds.o_upper else "walked"] += 1
    assert min(kinds.values()) > 0, kinds


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


def _component_walk_instances(per_field=12, seed=19, group_cap=400):
    """Seeded instances over GF(2), GF(3) and GF(5) whose code has a
    component on a smaller support that holds a strict relation, so the
    profile check walks that component's unipotent orbit."""
    rng = random.Random(seed)
    drawn = {2: [], 3: [], 5: []}
    while min(map(len, drawn.values())) < per_field:
        q = rng.choice(tuple(drawn))
        n = rng.randint(3, 5)
        poset = random_poset(rng, n)
        code = random_code(rng, q, n)
        if len(drawn[q]) == per_field or group_size(poset, q) > group_cap:
            continue
        for comp in maximal_decomposition(code).components:
            support = comp.support()
            if len(support) < n and any(
                poset.leq(i, j) for i in support for j in support if i != j
            ):
                drawn[q].append((poset, code))
                break
    return [instance for instances in drawn.values() for instance in instances]


def test_profile_check_walks_no_component_code_twice(monkeypatch):
    """The profile check settles components by its own walks, and each
    matches the full enumeration.  Its first walk is of U_Z.C0, from C0 and
    adding into no row of Z.  No component walk runs on a subposet with no
    strict relation, nor starts at a code that an earlier walk of the same
    call yielded on the same subposet."""
    walks = []
    walk = search._unipotent_walk

    def logged(code, poset, orbit_budget, fixed=()):
        yielded = set()
        walks.append((poset, code, yielded))
        for item in walk(code, poset, orbit_budget, fixed):
            yielded.add(item[0])
            yield item

    monkeypatch.setattr(search, "_unipotent_walk", logged)
    component_walks = 0
    for poset, code in _component_walk_instances():
        walks.clear()
        report = verify_profile_uniqueness(code, poset).to_json_dict()
        assert report == reference_profile_uniqueness(code, poset).to_json_dict(), (poset, code)
        zeroed = [image for image, _ in reference_zeroed_walk(code, poset, 10**5)]
        assert walks[0][0] == poset and walks[0][1] == zeroed[0]
        assert walks[0][2] == set(zeroed), (poset, code)
        for index, (subposet, start, _) in enumerate(walks[1:], start=1):
            assert subposet.n < poset.n and subposet.strict_pairs()
            for earlier, _, yielded in walks[1:index]:
                assert earlier != subposet or start not in yielded, (poset, code, start)
        component_walks += len(walks) - 1
    assert component_walks > 0


def test_profile_check_tests_each_component_once(monkeypatch):
    """The profile check runs ``_splits`` once on each component, with its
    rows on its support and the order there; a component that test leaves
    open goes to ``_irreducible``, which walks it and does not test it
    again."""
    calls, walked = [], 0
    splits, irreducible = search._splits, search._irreducible

    def logged_splits(q, rows, ups):
        calls.append((q, rows, tuple(ups)))
        return splits(q, rows, ups)

    def logged_irreducible(*args):
        nonlocal walked
        walked += 1
        return irreducible(*args)

    monkeypatch.setattr(search, "_splits", logged_splits)
    monkeypatch.setattr(search, "_irreducible", logged_irreducible)
    for poset, code in _component_walk_instances():
        calls.clear()
        verify_profile_uniqueness(code, poset)
        assert len(calls) == len(set(calls)), (poset, code)
    assert walked > 0


def test_every_profile_candidate_is_zero_on_its_zeroable_coordinates():
    """Each candidate of the full enumeration, an orbit code whose every
    component is irreducible on its support, is zero at each coordinate
    whose column lies in the listed span of the columns above it: a
    component nonzero there would have that column in the span of the
    columns above it on its own support, and so be reducible.  So the
    candidates of U.C all lie in U_Z.C0."""
    zeroing = 0
    for poset, code in INSTANCES[::4] + _component_walk_instances(per_field=4):
        for dec in reference_profile_candidates(code, poset):
            zeroable = reference_zeroable(dec.code, poset)
            support = dec.code.support()
            assert all(i + 1 not in support for i in zeroable), (poset, code, dec.code)
            zeroing += bool(zeroable)
    assert zeroing > 0


def test_profile_check_stops_exactly_past_its_budget():
    """The profile check counts the blocks from the codes of U.C of one
    shape, under a part of the budget, yet it stops exactly when the orbit
    exceeds the budget: at |orbit| - 1 codes with the caller's message, and
    at |orbit| with the report of the default budget."""
    past_unipotent = 0
    for poset, code in INSTANCES + _instances(count=10, seed=5, group_cap=20000, fields=(5,)):
        report = verify_profile_uniqueness(code, poset)
        size = report.orbit_size
        assert verify_profile_uniqueness(code, poset, orbit_budget=size) == report
        if size > 1:
            with pytest.raises(ResourceLimitError) as stop:
                verify_profile_uniqueness(code, poset, orbit_budget=size - 1)
            assert str(stop.value) == f"orbit exceeds budget of {size - 1} codes"
        past_unipotent += size > len(list(search._unipotent_walk(code, poset, size)))
    assert past_unipotent > 0


# 2 < 5 < 6, 3 < 4 < 6 over GF(2): U_Z.C0 has 16 codes, of the values 8, 6,
# 6, 6, 8, ... in walk order, and the orbit 32.
PARTIAL_POSET = Poset.from_covers(6, [(2, 5), (3, 4), (4, 6)])
PARTIAL_CODE = LinearCode.from_generators(
    2, 6, [(1, 0, 0, 1, 1, 1), (0, 1, 0, 1, 0, 0), (0, 0, 1, 0, 1, 0)]
)


@pytest.mark.parametrize("orbit_budget", [1, 2, 5])
def test_orbit_budget_partial_matches_full_enumeration(orbit_budget):
    """The budget error matches the reference; the partial result is the
    best of the codes of U_Z.C0 walked before it, with the matrix that the
    walk's steps replay from u0, not proven minimal."""
    poset, code = PARTIAL_POSET, PARTIAL_CODE
    with pytest.raises(ResourceLimitError) as got:
        primary_decomposition(code, poset, orbit_budget=orbit_budget)
    with pytest.raises(ResourceLimitError) as want:
        reference_primary_decomposition(code, poset, orbit_budget=orbit_budget)
    assert str(got.value) == str(want.value)
    u0, items, message = _zeroed_stage(code, poset, orbit_budget)
    assert message == str(want.value) and len(items) == orbit_budget
    partial = got.value.partial_result
    best = min(items, key=lambda item: (min_grouping_complexity(item[0]), item[0].generators))
    assert partial.dec.code == best[0]
    assert partial.complexity == min_grouping_complexity(best[0])
    values = [min_grouping_complexity(image) for image, _ in items]
    assert values == [8, 6, 6, 6, 8][:orbit_budget]
    assert partial.witness == PIsometry(poset, 2, tuple(range(1, 7)), best[1])
    assert partial.witness.apply_code(code) == best[0]
    assert not partial.proven_minimal
    with pytest.raises(ResourceLimitError) as got:
        orbit_codes(code, poset, orbit_budget=orbit_budget)
    assert str(got.value) == str(want.value)


def _blocked_instances(q, count, seed, orbit_cap=150):
    """Seeded instances over GF(q) whose U_Z.C0 has more than one code and
    whose orbit has more than one block, with the size of U.C and the orbit
    in walk order."""
    out = []
    for poset, code in _instances(count=40 * count, seed=seed, group_cap=3000, fields=(q,)):
        unipotent = list(search._unipotent_walk(code, poset, 10**5))
        zeroed = list(search._zeroed_walk(code, poset, 10**5)[1])
        orbit = orbit_codes(code, poset)
        if 1 < len(zeroed) and len(unipotent) < len(orbit) <= orbit_cap:
            out.append((poset, code, len(unipotent), orbit))
            if len(out) == count:
                return out
    raise AssertionError(f"fewer than {count} instances with blocks over GF({q})")


@pytest.mark.parametrize("q", [2, 3, 5])
def test_primary_search_under_every_budget(q):
    """Under every budget B from 1 to |orbit|, the search stops iff
    |U_Z.C0| codes per block, over the orbit's blocks, exceed B, with the
    message of a walk of the whole orbit.  A stop inside U_Z.C0 returns the
    best of its first B codes, with the matrix replayed from u0, not proven
    minimal.  A stop past it returns the least-value code of least
    generator matrix among the blocks admitted whole, B // |U_Z.C0| of
    them, with the block map of the whole walk after the replayed matrix of
    the code of U_Z.C0 it maps there, and the minimal complexity, proven.
    Once the search ends it gives the full enumeration's decomposition and
    the default budget's result.  ``orbit_codes`` stops iff the orbit
    exceeds B, with the same message, and otherwise gives the default
    budget's orbit."""
    kinds = {"inside": 0, "past": 0}
    for poset, code, unipotent, orbit in _blocked_instances(q, count=5, seed=22 + q):
        least = minimal_complexity(code, poset)
        walk = list(orbit)
        _, zeroed, message = _zeroed_stage(code, poset, 10**5)
        assert message is None
        reach = len(zeroed) * len(walk) // unipotent
        full = primary_decomposition(code, poset)
        for budget in range(1, len(walk) + 1):
            try:
                walked = orbit_codes(code, poset, orbit_budget=budget)
            except ResourceLimitError as stop:
                assert budget < len(walk)
                assert str(stop) == f"orbit exceeds budget of {budget} codes"
            else:
                assert budget == len(walk)
                assert list(walked.items()) == list(orbit.items())
            try:
                got = primary_decomposition(code, poset, orbit_budget=budget)
            except ResourceLimitError as stop:
                assert budget < reach
                assert str(stop) == f"orbit exceeds budget of {budget} codes"
                partial = stop.partial_result
            else:
                assert budget >= reach
                assert got.to_json_dict() == full.to_json_dict()
                continue
            identity = tuple(range(1, poset.n + 1))
            if budget < len(zeroed):
                kinds["inside"] += 1
                best, matrix = min(
                    zeroed[:budget], key=lambda item: (min_grouping_complexity(item[0]), item[0].generators)
                )
                witness = PIsometry(poset, q, identity, matrix)
            else:
                kinds["past"] += 1
                admitted = walk[: budget // len(zeroed) * unipotent]
                best = min(admitted, key=lambda image: (min_grouping_complexity(image), image.generators))
                sigma, rows = orbit[best].sigma, orbit[best].matrix_rows
                scale = [row[i] for i, row in enumerate(rows)]  # D of the block map (sigma, D)
                maps = [
                    PIsometry(poset, q, sigma, [[d * a % q for a in row] for d, row in zip(scale, matrix)])
                    for x, matrix in zeroed
                    if min_grouping_complexity(x) == least
                ]
                [witness] = [w for w in maps if w.apply_code(code) == best]
            assert partial.dec.code == best, (poset, code, budget)
            assert partial.witness == witness, (poset, code, budget)
            assert partial.witness.apply_code(code) == partial.dec.code
            assert partial.proven_minimal == (budget >= len(zeroed))
            if budget >= len(zeroed):
                assert partial.complexity == least
        ref = reference_primary_decomposition(code, poset)
        assert full.dec.code == ref.dec.code and full.dec.components == ref.dec.components
        assert full.complexity == ref.complexity == least
        assert full.proven_minimal
    assert min(kinds.values()) > 0, kinds


def test_stopped_primary_search_at_scale_says_what_it_proved():
    """On seeded instances with n from 8 to 16 over GF(2) and GF(3), under
    budgets of 500 and 2,000 codes: a search that ends gives the minimal
    complexity; a stop past U_Z.C0, which fits the budget, reports a
    partial result of the minimal complexity, proven; a stop inside
    U_Z.C0, which overran, reports a partial result not proven minimal."""
    rng = random.Random(1)
    kinds = {"ended": 0, "past U_Z.C0": 0, "inside U_Z.C0": 0}
    for _ in range(8):
        n = rng.randint(8, 16)
        poset = random_poset(rng, n)
        code = random_code(rng, rng.choice((2, 3)), n)
        for budget in (500, 2000):
            try:
                least = minimal_complexity(code, poset, orbit_budget=budget)
            except ResourceLimitError:
                least = None  # |U_Z.C0| > budget
            try:
                got = primary_decomposition(code, poset, orbit_budget=budget)
            except ResourceLimitError as stop:
                assert str(stop) == f"orbit exceeds budget of {budget} codes"
                partial = stop.partial_result
                assert partial.witness.apply_code(code) == partial.dec.code
                assert partial.proven_minimal == (least is not None), (poset, code, budget)
                if least is not None:
                    assert partial.complexity == least, (poset, code, budget)
                kinds["inside U_Z.C0" if least is None else "past U_Z.C0"] += 1
            else:
                assert least is not None and got.complexity == least and got.proven_minimal
                kinds["ended"] += 1
    assert min(kinds.values()) > 0, kinds


def test_orbit_codes_follow_walk_order():
    """On 1 < 2 plus two free points over GF(3), U is generated by the one
    addition of x_2 into x_1, so the walk lists C, then its images under
    that addition and its square.  The scalings by the primitive root 2
    follow: scaling x_1 or x_3 fixes C; scaling x_2 opens a second block of
    three, whose witnesses are D.A with D = diag(1, 2, 1, 1); scaling x_4
    reaches that block's first code (0, 1, 0, 2), and every scaling of its
    representative repeats a walked code.  Last, the swap of 3 and 4, the
    one generator of Aut(P), maps those six codes onto the other six, with
    the same matrices."""
    poset = Poset.from_covers(4, [(1, 2)])
    code = LinearCode.from_generators(3, 4, [(0, 1, 0, 1)])

    def triangular(a12, a22):
        return ((1, a12, 0, 0), (0, a22, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    triangular_orbit = [
        ((0, 1, 0, 1), 0, 1),
        ((1, 1, 0, 1), 1, 1),
        ((1, 2, 0, 2), 2, 1),
        ((0, 1, 0, 2), 0, 2),
        ((1, 2, 0, 1), 1, 2),
        ((1, 1, 0, 2), 2, 2),
    ]
    expected = [
        (row, (1, 2, 3, 4), triangular(a12, a22)) for row, a12, a22 in triangular_orbit
    ] + [
        ((x, y, w, z), (1, 2, 4, 3), triangular(a12, a22))
        for (x, y, z, w), a12, a22 in triangular_orbit
    ]
    got = [
        (image.generators[0], witness.sigma, witness.matrix_rows)
        for image, witness in orbit_codes(code, poset).items()
    ]
    assert got == expected


def test_unipotent_walk_takes_the_largest_height_gap_first():
    """On 1 < 2 < 4 over GF(2) the walk takes the relation 1 < 4, of height
    gap 2, before the covers: x_1 += x_4 doubles {C}, x_2 += x_4 doubles
    that, and x_1 += x_2 maps C into the orbit.  Taking the covers first,
    x_1 += x_2 would not normalise the subgroup that x_2 += x_4 generates,
    and its translate of the orbit would repeat a code."""
    poset = Poset.from_covers(5, [(1, 2), (2, 4)])
    code = LinearCode.from_generators(2, 5, [(0, 1, 0, 1, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1)])
    unipotent, message = _unipotent_stage(code, poset, 10**5)
    assert message is None
    assert [image for image, _ in unipotent] == [
        LinearCode.from_generators(2, 5, [row, (0, 0, 1, 0, 0), (0, 0, 0, 0, 1)])
        for row in [(0, 1, 0, 1, 0), (1, 1, 0, 1, 0), (0, 0, 0, 1, 0), (1, 0, 0, 1, 0)]
    ]


def test_rebuilt_matrices_replay_the_steps_in_walk_order():
    """On 1 < 2 < 3 plus a free point over GF(2), the walk reaches its
    seventh code by "row 2 += row 3" and then "row 1 += row 2", two
    additions that do not commute, so the matrix ``_matrices`` rebuilds
    for it is E_12 E_23, with a 1 at (1, 3), not E_23 E_12."""
    poset = Poset.from_covers(4, [(1, 2), (2, 3)])
    code = LinearCode.from_generators(2, 4, [(0, 1, 0, 1), (0, 0, 1, 0)])
    unipotent, message = _unipotent_stage(code, poset, 10**5)
    assert message is None and len(unipotent) == 8
    steps = [step for _, step in search._unipotent_walk(code, poset, 10**5)]
    assert steps[6] == (2, 0, 1) and steps[2] == (0, 1, 2)
    assert unipotent[6][1] == ((1, 1, 1, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1))


# -- the block step against mapping every code ----------------------------


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


def _replayed(code, poset, steps, start=None):
    """The codes of a walk's ``steps``, each with the matrix that
    ``_matrices`` replays from ``start``, or else from the identity,
    checked: the first matrix is that start, and each later one its step's
    elementary matrix times its parent's, the same when only some codes'
    are replayed; each is unit upper triangular on P and maps C onto its
    code; and no code comes twice."""
    q, n = code.q, code.n
    start = start or tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    items = search._matrices(steps, range(len(steps)), start)
    codes = [image for image, _ in items]
    assert codes == [image for image, _ in steps]
    assert items[0][1] == start
    for (_, step), (_, matrix) in zip(steps[1:], items[1:]):  # E times its parent's matrix
        parent, i, j = step
        e = [[int(r == c or (r, c) == (i, j)) for c in range(n)] for r in range(n)]
        product = [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*items[parent][1])] for row in e]
        assert list(map(list, matrix)) == product, (poset, code, step)
    for wanted in ([len(items) - 1], list(range(len(items) - 1, -1, -2))):
        assert search._matrices(steps, wanted, start) == [items[t] for t in wanted], (poset, code)
    assert len(set(codes)) == len(codes), (poset, code)
    for image, matrix in items:
        assert all(
            matrix[i][j] == 1 if i == j else not matrix[i][j] or poset.leq(i + 1, j + 1)
            for i in range(n)
            for j in range(n)
        ), (poset, code, matrix)
        rows = [[sum(a * v for a, v in zip(row, word)) for row in matrix] for word in code.generators]
        assert LinearCode.from_generators(q, n, rows) == image, (poset, code, matrix)
    return items


def _unipotent_stage(code, poset, orbit_budget):
    """The codes of the walk of U.C, each with the matrix that ``_matrices``
    rebuilds from the walk's steps (``_replayed``), and its budget message,
    checked against the breadth-first walk that tries every addition: the
    same codes and message, and, when the walk ends, the same steps cut
    after |U.C| - 1 codes, with the budget message, under a budget one code
    smaller."""
    steps, message = _walk(search._unipotent_walk(code, poset, orbit_budget))
    items = _replayed(code, poset, steps)
    codes = [image for image, _ in items]
    want, want_message = _walk(reference_unipotent_walk(code, poset, orbit_budget))
    assert message == want_message
    if message is None:
        assert set(codes) == {image for image, _ in want}, (poset, code)
        cut = len(items) - 1
        if cut:
            assert _walk(search._unipotent_walk(code, poset, cut)) == (
                steps[:cut],
                f"orbit exceeds budget of {cut} codes",
            )
    else:
        assert len(items) == orbit_budget
    return items, message


def _zeroed_stage(code, poset, orbit_budget):
    """u0, the codes of the walk of U_Z.C0, each with the matrix that
    ``_matrices`` replays from u0 (``_replayed``), and the walk's budget
    message: that of the breadth-first walk of U_Z.C0 that tries every
    addition into a row outside Z (helpers), and, when the walk ends, the
    same codes."""
    u0, walk = search._zeroed_walk(code, poset, orbit_budget)
    steps, message = _walk(walk)
    items = _replayed(code, poset, steps, u0)
    want, want_message = _walk(reference_zeroed_walk(code, poset, orbit_budget))
    assert message == want_message, (poset, code)
    if message is None:
        assert {image for image, _ in items} == {image for image, _ in want}, (poset, code)
    else:
        assert len(items) == orbit_budget
    return u0, items, message


def _orbit_walk(code, poset, orbit_budget):
    """``orbit_codes`` as walk items ``(image, sigma, matrix)`` with no
    message, or as no items and the budget message that stops it."""
    try:
        orbit = orbit_codes(code, poset, orbit_budget=orbit_budget)
    except ResourceLimitError as exc:
        return [], str(exc)
    return [(image, w.sigma, w.matrix_rows) for image, w in orbit.items()], None


def _block(item):
    """The block map (sigma, D) of a walk item: its witness matrix is D.A
    with A unipotent, so D is that matrix's diagonal."""
    _, sigma, matrix = item
    return sigma, tuple(row[i] for i, row in enumerate(matrix))


def _cut_budgets(full):
    """Orbit budgets that stop the walk at an image past the unipotent walk:
    at the first, a middle and the last one, preferring images inside a
    block."""
    outside = [b for b in range(1, len(full)) if _block(full[b]) != _block(full[0])]
    inside = [b for b in outside if _block(full[b - 1]) == _block(full[b])]
    cuts = inside or outside
    return sorted({cuts[0], cuts[len(cuts) // 2], cuts[-1]}) if cuts else []


@pytest.mark.parametrize(
    "instances",
    [
        INSTANCES[:30],
        INSTANCES[30:],
        MANY_AUTOMORPHISMS,
        _instances(count=10, seed=5, group_cap=20000, fields=(5,)),
        _instances(count=10, seed=7, group_cap=20000, fields=(7,)),
    ],
    ids=["seeded-1", "seeded-2", "many-automorphisms", "gf5", "gf7"],
)
def test_walk_sequence_matches_permuting_every_code(instances):
    """The walk of U.C reaches the breadth-first walk's codes, and the
    whole walk reaches the reference's orbit.  Fed the same U.C list, the
    walk yields the reference's ``(image, sigma, matrix)`` items in order,
    though it canonicalises only the first image of a block it has already
    walked, and a budget that cuts a block past the unipotent walk stops
    both with the same message."""
    cuts_inside = 0
    for poset, code in instances:
        unipotent, message = _unipotent_stage(code, poset, 10**5)
        assert message is None
        own, message = _walk(reference_orbit_walk(code, poset))
        assert message is None
        fed = [matrix for _, matrix in unipotent]
        full, message = _walk(reference_orbit_walk(code, poset, unipotent=fed))
        assert message is None
        assert len(full) == len(own) and {i[0] for i in full} == {i[0] for i in own}
        assert _orbit_walk(code, poset, 10**5) == (full, None)
        for budget in _cut_budgets(full):
            want = _walk(reference_orbit_walk(code, poset, orbit_budget=budget, unipotent=fed))
            assert want == (full[:budget], f"orbit exceeds budget of {budget} codes")
            assert _orbit_walk(code, poset, budget) == ([], want[1])
            cuts_inside += _block(full[budget - 1]) == _block(full[budget])
    assert cuts_inside > 0


def test_permutation_step_canonicalises_few_codes(monkeypatch):
    """On a GF(2) antichain the unipotent part is trivial and no scaling
    applies, so each block is one code; the walk takes the image of each
    block under at most each generator of Aut(P), n - 1 transpositions,
    where permuting every code would take |Aut| - 1 images.  No move that
    arranges the code's columns as a move tried before is taken: the pair
    code on ``antichain:6`` reaches its 14 other codes with 14 images, not
    75 canonicalisations, and none of them needs an elimination, where the
    walk that reduced every image took 38.  That one filter also holds
    ``THREE_CYCLE`` (|Aut| = 12) to 44 images for its 48 codes, and a
    GF(3) code on covers [[1, 3], [2, 3], [4, 5]] to 87 for its 108.  On
    ``chain:6`` the all-ones code's 32 codes take 9 eliminations, not 480,
    and no image: the walk of U.C canonicalises each code after the first
    once, five of them as the test of an addition that doubles the orbit,
    and tests the ten other additions once each, 41 canonicalisations, and
    only the 9 whose addition moves a row's leading entry or meets a pivot
    column eliminate."""
    images = eliminations = 0

    def counting_rref(*args):
        nonlocal eliminations
        eliminations += 1
        return rref(*args)

    def counting(kernel):
        def counted(*args):
            nonlocal images
            images += 1
            return kernel(*args)

        return counted

    monkeypatch.setattr(search, "rref", counting_rref)
    monkeypatch.setattr(search, "_permuted", counting(search._permuted))
    monkeypatch.setattr(search, "_scaled", counting(search._scaled))
    for n in (4, 5, 6):
        poset = Poset.antichain(n)
        assert len(poset.automorphisms()[0]) == n - 1
        codes = _code_slice(2, n, 40 if n == 6 else 10**6)  # every code for n < 6
        for code in codes:
            images = eliminations = 0
            orbit = orbit_codes(code, poset)
            assert images <= len(orbit) * (n - 1), (code, images, len(orbit))
            assert eliminations <= images, (code, eliminations, images)
    for code, poset, counts in [
        (LinearCode.from_generators(2, 6, [(1, 1, 0, 0, 0, 0)]), Poset.antichain(6), (15, 14, 0)),
        (LinearCode.from_generators(2, 6, [(1,) * 6]), Poset.chain(6), (32, 0, 9)),
        (*THREE_CYCLE, (48, 44, 34)),
        (
            LinearCode.from_generators(3, 5, [(1, 0, 0, 1, 2), (0, 0, 1, 2, 1)]),
            Poset.from_covers(5, [(1, 3), (2, 3), (4, 5)]),
            (108, 87, 24),
        ),
    ]:
        images = eliminations = 0
        orbit = orbit_codes(code, poset)
        assert (len(orbit), images, eliminations) == counts


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_canonicalisations_are_bounded_by_the_orbit(monkeypatch, q):
    """The walk of U.C canonicalises each code after the first once, plus
    one test per strict relation: at most |U.C| - 1 + r canonicalisations
    for r strict relations.  Each block's representative tries one move per
    generator of Aut(P) and per coordinate, and every other image of a
    block is canonicalised once: at most |orbit| * (strict relations +
    generators + n + 1) canonicalisations in all, with no bound of their
    own."""
    calls = 0

    def counting_rref(*args):
        nonlocal calls
        calls += 1
        return rref(*args)

    monkeypatch.setattr(search, "rref", counting_rref)
    for poset, code in _instances(count=40, seed=q, group_cap=10**5, fields=(q,)):
        n = poset.n
        strict = sum(poset.leq(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
        calls = 0
        unipotent = list(search._unipotent_walk(code, poset, 10**5))
        assert calls <= len(unipotent) - 1 + strict, (poset, code)
        calls = 0
        orbit = orbit_codes(code, poset)
        assert calls <= len(orbit) * (strict + len(poset.automorphisms()[0]) + n + 1)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_scaling_stage_images_never_eliminate(monkeypatch, q):
    """A scaling-stage image is its block representative's image with one
    column scaled, so ``_scaled`` keeps every pivot and never calls
    ``rref``; the Aut(P) stage's images, by ``_permuted`` under a
    generator, still may."""
    eliminations = 0
    counts = {"scaling": 0, "automorphism": 0, "automorphism eliminations": 0}

    def counting_rref(*args):
        nonlocal eliminations
        eliminations += 1
        return rref(*args)

    scaled, permuted = search._scaled, search._permuted

    def checked_scaled(code, c, root):
        nonlocal eliminations
        eliminations = 0
        image = scaled(code, c, root)
        assert eliminations == 0 and image.pivots == code.pivots, (code, c)
        counts["scaling"] += 1
        return image

    def checked_permuted(code, take, place):
        nonlocal eliminations
        eliminations = 0
        image = permuted(code, take, place)
        counts["automorphism"] += 1
        counts["automorphism eliminations"] += eliminations
        return image

    monkeypatch.setattr(search, "rref", counting_rref)
    monkeypatch.setattr(search, "_scaled", checked_scaled)
    monkeypatch.setattr(search, "_permuted", checked_permuted)
    for poset, code in _instances(count=30, seed=40 + q, group_cap=20000, fields=(q,)):
        orbit_codes(code, poset)
    assert min(counts.values()) > 0, counts


# -- the walk against the walk with every move canonicalised ----------------

WALK_BUDGET = 600
WHOLE_BUDGET = 2400


def walk_instance(draw):
    """A hypothesis draw: a nonzero code of at most three rows on a random
    poset, 3 <= n <= 6 over GF(2), GF(3) or GF(5)."""
    q = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(3, 6))
    labels = draw(st.permutations(range(1, n + 1)))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] < p[1]),
            max_size=2 * n,
        )
    )
    rows = draw(
        st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=1, max_size=3)
    )
    assume(any(any(row) for row in rows))
    poset = Poset.from_covers(n, [(labels[a - 1], labels[b - 1]) for a, b in pairs])
    return LinearCode.from_generators(q, n, rows), poset


def _least(values, message, floor):
    """What ``_least_complexity`` returns after a walk meeting ``values`` in
    order, or the budget message that stops it, given a ``floor`` that no
    value of U_Z.C0 goes below."""
    for value in values:
        if value <= floor:
            return value
    return min(values) if message is None else message


def check_against_the_unskipped_walk(instance, cuts_inside, outcomes):
    code, poset = instance
    unipotent, message = _unipotent_stage(code, poset, WALK_BUDGET)
    fed = [matrix for _, matrix in unipotent]
    full, stop = [], message
    if message is None:
        full, stop = _walk(reference_orbit_walk(code, poset, WALK_BUDGET, unipotent=fed))
    assert _orbit_walk(code, poset, WALK_BUDGET) == ([] if stop else full, stop)
    for budget in _cut_budgets(full):
        _, want = _walk(reference_orbit_walk(code, poset, budget, unipotent=fed))
        assert _orbit_walk(code, poset, budget) == ([], want)
        cuts_inside.append(_block(full[budget - 1]) == _block(full[budget]))
    zeroed, cut = _walk(reference_zeroed_walk(code, poset, WALK_BUDGET))
    values = [min_grouping_complexity(image) for image, _ in zeroed]
    if message is None:  # U.C walked whole: its least value is one of U_Z.C0
        assert cut is None and min(values) == min(min_grouping_complexity(x) for x, _ in unipotent)
    # a floor is a value no code of U_Z.C0 goes below: the least is known
    # only from a whole walk, and a cut walk meets its floor in the check below
    for floor in (0,) if cut else (0, min(values)):
        try:
            got = search._least_complexity(code, poset, WALK_BUDGET, floor)
        except ResourceLimitError as exc:
            got = str(exc)
        assert got == _least(values, cut, floor)
    check_least_value_floor_under_cuts(code, poset, outcomes)


def check_least_value_floor_under_cuts(code, poset, outcomes):
    """Given the least value of the whole U_Z.C0 as its floor, as
    ``hierarchy_bounds`` gives the upper neighbour's, ``_least_complexity``
    under a budget that cuts the walk of U_Z.C0 before its end gives that
    value if the cut walk reaches a code of it, or else the budget
    message.  When the upper neighbour's value is that least value,
    ``hierarchy_bounds`` gives it as o_p under a budget of the walk up to
    its first code of it."""
    try:
        whole = [image for image, _ in reference_zeroed_walk(code, poset, WHOLE_BUDGET)]
    except ResourceLimitError:
        return
    least = min(map(min_grouping_complexity, whole))
    walk = search._zeroed_walk(code, poset, len(whole))[1]
    walked = [min_grouping_complexity(image) for image, _ in walk]
    first = walked.index(least)
    bounds = search.hierarchy_bounds(code, poset, orbit_budget=first + 1)
    if bounds.o_upper == least:
        assert bounds.o_p == least, (code, poset, first)
    for budget in {first, first + 1, len(walked) - 1}:
        if not 0 < budget < len(walked):
            continue
        items, message = _walk(search._zeroed_walk(code, poset, budget)[1])
        want = _least([min_grouping_complexity(image) for image, _ in items], message, least)
        try:
            got = search._least_complexity(code, poset, budget, least)
        except ResourceLimitError as exc:
            got = str(exc)
        assert got == want, (code, poset, budget)
        outcomes.add(got == message)


# Three 2-chains and two free points: Aut(P) has a generator of order 3
# that commutes with the swap of the free points, so many moves from a
# block arrange the columns as a move tried from another block.
THREE_CYCLE = (
    LinearCode.from_generators(
        2, 8, [(1, 0, 1, 1, 1, 0, 1, 0), (0, 1, 0, 1, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1, 0, 0)]
    ),
    Poset.from_covers(8, [(1, 8), (4, 3), (7, 6)]),
)


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_walks_match_the_unskipped_walk():
    """``_unipotent_walk`` reaches the codes of the breadth-first walk that
    tries every addition (helpers), each once.  From the same U.C list,
    ``orbit_codes`` gives the items of ``reference_orbit_walk``, which
    canonicalises every move, so every move whose arrangement it has tried
    would have been refused, and that walk's budget messages, also under
    budgets that cut inside a block; ``_least_complexity`` gives the least
    value of the breadth-first walk of U_Z.C0 (helpers), that of U.C, with
    the floor 0 and with the least value as its floor, or that walk's
    budget message, also under budgets that cut U_Z.C0, where it gives the
    least value only when the cut walk reaches a code of it."""
    cuts_inside, outcomes = [], set()
    check_against_the_unskipped_walk(THREE_CYCLE, cuts_inside, outcomes)
    given(st.composite(walk_instance)())(
        lambda instance: check_against_the_unskipped_walk(instance, cuts_inside, outcomes)
    )()
    assert any(cuts_inside)
    assert outcomes == {False, True}


# -- block images against elimination ---------------------------------------


def column_code(draw, fields, least_n, most_n):
    """A hypothesis draw: a nonzero code over one of ``fields`` with n from
    ``least_n`` to ``most_n`` whose columns are multiples of a few drawn
    columns, so zero, repeated and parallel columns are common."""
    q = draw(st.sampled_from(fields))
    n = draw(st.integers(least_n, most_n))
    k = draw(st.integers(1, min(n, 4)))
    vector = st.lists(st.integers(0, q - 1), min_size=k, max_size=k)
    bases = draw(st.lists(vector, min_size=1, max_size=n))
    columns = [
        [c * v for v in draw(st.sampled_from(bases))]
        for c in draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    ]
    rows = [list(row) for row in zip(*columns)]
    assume(any(any(row) for row in rows))
    return LinearCode.from_generators(q, n, rows)


def permuted_instance(draw):
    """A hypothesis draw: a ``column_code`` over GF(2), GF(3), GF(5) or
    GF(7) with 2 <= n <= 8, and a permutation sigma of its coordinates."""
    code = column_code(draw, (2, 3, 5, 7), 2, 8)
    return code, tuple(draw(st.permutations(range(1, code.n + 1))))


def scaled_instance(draw):
    """A hypothesis draw: a ``column_code`` over GF(2), GF(3), GF(5) or
    GF(7) with n <= 8, a coordinate c (0-based) and a nonzero scalar."""
    code = column_code(draw, (2, 3, 5, 7), 1, 8)
    return code, draw(st.integers(0, code.n - 1)), draw(st.integers(1, code.q - 1))


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_permuted_image_equals_elimination(monkeypatch):
    """``_permuted`` gives the canonical code, with its pivots, that ``rref``
    makes of the permuted rows, both when each pivot stays its row's first
    entry and no elimination runs, and when it does not."""
    eliminations = 0

    def counting_rref(*args):
        nonlocal eliminations
        eliminations += 1
        return rref(*args)

    monkeypatch.setattr(search, "rref", counting_rref)
    paths = set()

    def check(instance):
        nonlocal eliminations
        code, sigma = instance
        q, n = code.q, code.n
        rows = [[row[s - 1] for s in sigma] for row in code.generators]
        want = LinearCode(q, n, *rref(q, n, rows))
        take = itemgetter(*[s - 1 for s in sigma])
        place = tuple(sigma.index(p) for p in range(1, n + 1))
        eliminations = 0
        image = search._permuted(code, take, place)
        assert (image.generators, image.pivots) == (want.generators, want.pivots), instance
        paths.add(eliminations)

    # a pivot that moves behind its row's first entry, then pivots that stay first
    check((LinearCode.from_generators(3, 4, [(1, 2, 0, 2), (0, 0, 1, 1)]), (2, 1, 4, 3)))
    check((LinearCode.from_generators(2, 3, [(1, 1, 0), (0, 0, 1)]), (3, 1, 2)))
    given(st.composite(permuted_instance)())(check)()
    assert paths == {0, 1}


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_scaled_image_equals_elimination(monkeypatch):
    """``_scaled`` gives the canonical code that ``rref`` makes of the rows
    with one column scaled, with its input's pivots and no elimination,
    whether the column is a pivot column, another nonzero column or zero."""
    eliminations = 0

    def counting_rref(*args):
        nonlocal eliminations
        eliminations += 1
        return rref(*args)

    monkeypatch.setattr(search, "rref", counting_rref)
    columns = set()

    def check(instance):
        nonlocal eliminations
        code, c, root = instance
        q, n = code.q, code.n
        rows = [row[:c] + (row[c] * root,) + row[c + 1 :] for row in code.generators]
        want = LinearCode(q, n, *rref(q, n, rows))
        eliminations = 0
        image = search._scaled(code, c, root)
        assert (image.generators, image.pivots) == (want.generators, code.pivots), instance
        assert eliminations == 0, instance
        if c + 1 in code.pivots:
            columns.add("pivot")
        else:
            columns.add("nonzero" if any(row[c] for row in code.generators) else "zero")

    check((LinearCode.from_generators(5, 4, [(1, 2, 0, 3), (0, 0, 1, 4)]), 0, 2))
    check((LinearCode.from_generators(7, 3, [(1, 0, 6), (0, 1, 3)]), 2, 3))
    given(st.composite(scaled_instance)())(check)()
    assert columns == {"pivot", "nonzero", "zero"}


# -- additions against elimination ------------------------------------------


def addition_instance(draw):
    """A hypothesis draw: a ``column_code`` over GF(2), GF(3) or GF(5) with
    2 <= n <= 7."""
    return column_code(draw, (2, 3, 5), 2, 7)


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_addition_equals_elimination(monkeypatch):
    """For every ordered pair i != j, ``_add`` gives the canonical code, with
    its pivots, of the rows after x_i += x_j: with no elimination when i is
    not a pivot column and every row nonzero at j has its pivot left of i,
    and with one when i is a pivot column or a row's leading entry moves
    to i."""
    eliminations = 0

    def counting_rref(*args):
        nonlocal eliminations
        eliminations += 1
        return rref(*args)

    monkeypatch.setattr(search, "rref", counting_rref)
    paths = set()

    def check(code):
        nonlocal eliminations
        q, n = code.q, code.n
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                rows = [row[:i] + (row[i] + row[j],) + row[i + 1 :] for row in code.generators]
                want = LinearCode.from_generators(q, n, rows)
                eliminations = 0
                image = search._add(code, i, j)
                got = (image.generators, image.pivots)
                assert got == (want.generators, want.pivots), (code, i, j)
                if i + 1 in code.pivots:
                    case = "pivot column"
                elif any(row[j] and p > i + 1 for row, p in zip(code.generators, code.pivots)):
                    case = "leading entry moves"
                else:
                    case = "pivots stay"
                assert eliminations == (case != "pivots stay"), (code, i, j)
                paths.add(case)

    given(st.composite(addition_instance)())(check)()
    assert paths == {"pivot column", "leading entry moves", "pivots stay"}


# -- zeroable coordinates ------------------------------------------------------

ZEROABLE_BUDGET = 2000


def zeroable_instance(draw, fields=(2, 3, 5)):
    """A hypothesis draw: a ``column_code`` with 2 <= n <= 7 over one of
    ``fields``, by default GF(2), GF(3) or GF(5) as for the additions, on a
    poset of random relations."""
    code = column_code(draw, fields, 2, 7)
    n = code.n
    labels = draw(st.permutations(range(1, n + 1)))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] < p[1]),
            max_size=2 * n,
        )
    )
    return code, Poset.from_covers(n, [(labels[a - 1], labels[b - 1]) for a, b in pairs])


def _zeroed(code, poset):
    """Z as ``_zeroed_walk`` finds it: the zero columns of C0, its walk's
    first code (0-based)."""
    start, _ = next(search._zeroed_walk(code, poset, ZEROABLE_BUDGET)[1])
    return tuple(j for j in range(code.n) if j + 1 not in start.support())


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_zeroable_coordinates_hold_no_least_code():
    """``_zeroed_walk`` zeroes the coordinates i whose column lies in the
    listed span of the columns above i (helpers), a zero column among them;
    every code of U.C has the same ones; and every code of least value in
    U.C is zero at each of them, so the searches need not walk a code that
    is not."""
    seen = {"zero column": 0, "nonzero zeroable": 0, "U.C walked": 0}

    def check(instance):
        code, poset = instance
        zeroable = reference_zeroable(code, poset)
        assert _zeroed(code, poset) == zeroable, (code, poset)
        columns = list(zip(*code.generators))
        seen["zero column"] += any(not any(columns[i]) for i in zeroable)
        seen["nonzero zeroable"] += any(any(columns[i]) for i in zeroable)
        try:
            walk = reference_unipotent_walk(code, poset, ZEROABLE_BUDGET)
            unipotent = [image for image, _ in walk]
        except ResourceLimitError:
            return
        seen["U.C walked"] += 1
        values = [min_grouping_complexity(image) for image in unipotent]
        for image, value in zip(unipotent, values):
            assert reference_zeroable(image, poset) == zeroable, (code, poset, image)
            if value == min(values):
                nonzero = [i for i in zeroable if any(row[i] for row in image.generators)]
                assert not nonzero, (code, poset, image)

    given(st.composite(zeroable_instance)())(check)()
    assert min(seen.values()) > 0, seen


FAMILY_LIMIT = 4096


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_zeroed_walk_is_the_zeroed_column_family():
    """``_zeroed_walk`` gives u0, unit upper triangular on P, and the walk of
    U_Z.C0 from C0 = u0.C, each code once with its matrix replayed from u0
    (``_zeroed_stage``).  C0's zero columns are the zeroable coordinates of
    the listed spans (helpers), and the walk's codes are those of the
    zeroed column family (helpers), which walks no group: column i is 0
    for i in Z and ranges over col_i + W_i otherwise.  The draws are those
    of the zeroable coordinates, n <= 7, with their many parallel columns,
    and those of the walks, n <= 6, with their larger orbits."""
    seen = {"u0 not the identity": 0, "nonzero zeroable": 0, "several codes": 0}

    def check(instance):
        code, poset = instance
        u0, items, message = _zeroed_stage(code, poset, ZEROABLE_BUDGET)
        zeroable = reference_zeroable(code, poset)
        assert tuple(j for j in range(code.n) if j + 1 not in items[0][0].support()) == zeroable
        seen["u0 not the identity"] += any(v for i, row in enumerate(u0) for j, v in enumerate(row) if i != j)
        seen["nonzero zeroable"] += any(any(row[i] for row in code.generators) for i in zeroable)
        family = reference_zeroed_family(code, poset, FAMILY_LIMIT)
        if message is None and family is not None:
            assert {image for image, _ in items} == family, (code, poset)
            seen["several codes"] += len(items) > 1

    given(st.one_of(st.composite(zeroable_instance)(), st.composite(walk_instance)()))(check)()
    assert min(seen.values()) > 0, seen


COUNT_BUDGET = 2000


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_unipotent_walk_is_the_zeroed_walk_times_q_to_the_s():
    """|U.C| = |U_Z.C0| * q^s, s the sum of dim W_i over Z: setting the
    columns of Z to zero maps the generator matrices of U.C onto those of
    U_Z.C0, q^(dim W_i) to one at each i in Z, with as many matrices per
    code on both sides.  Z and each dim W_i are found here by ranks alone.
    Whenever the walk of U.C ends within the budget its length is the
    count, and it stops when the count passes the budget.  The draws are
    those of the zeroable coordinates, over GF(2), GF(3), GF(5) and
    GF(7)."""
    seen = {"s > 0": 0, "zero column under a nonzero span": 0, "walked": 0, "stopped": 0}

    def check(instance):
        code, poset = instance
        q, k, n = code.q, code.k, code.n
        columns = list(zip(*code.generators))
        s = 0
        for i, column in enumerate(columns):
            above = [columns[j] for j in range(n) if j != i and poset.leq(i + 1, j + 1)]
            dim = len(rref(q, k, above)[1])
            if len(rref(q, k, above + [column])[1]) == dim:  # column i lies in W_i
                s += dim
                seen["zero column under a nonzero span"] += dim > 0 and not any(column)
        seen["s > 0"] += s > 0
        try:
            count = len(list(search._zeroed_walk(code, poset, COUNT_BUDGET)[1])) * q**s
        except ResourceLimitError:
            count = None  # U_Z.C0, a part of U.C, is past the budget
        walk = search._unipotent_walk(code, poset, COUNT_BUDGET)
        if count is not None and count <= COUNT_BUDGET:
            assert len(list(walk)) == count, (code, poset)
            seen["walked"] += 1
        else:
            with pytest.raises(ResourceLimitError):
                list(walk)
            seen["stopped"] += 1

    # the all-ones code on a chain: U_Z.C0 is C0 alone, U.C has 7^2 and 7^5 codes
    check((LinearCode.from_generators(7, 3, [(1,) * 3]), Poset.chain(3)))
    check((LinearCode.from_generators(7, 6, [(1,) * 6]), Poset.chain(6)))
    given(st.composite(zeroable_instance)(fields=(2, 3, 5, 7)))(check)()
    assert min(seen.values()) > 0, seen


def ranked_instance(draw):
    """A hypothesis draw: a code as for the additions on a hierarchical
    poset of up to three random ranks, so a coordinate has many columns
    above it, often dependent, and often spanning a pivot column."""
    code = addition_instance(draw)
    ranks = draw(st.lists(st.integers(0, 2), min_size=code.n, max_size=code.n))
    return code, Poset.from_ranks(ranks)


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_zeroed_setup_equals_one_elimination_per_coordinate():
    """``_zeroed_walk``, which eliminates only the columns that their support
    does not settle, gives the u0 and the first code C0, pivots too, of one
    elimination per coordinate (helpers), entry for entry.  The draws hold
    a zeroable nonzero column whose nonzero columns above are dependent, so
    that its row of u0 is one of several and depends on the elimination,
    and a pivot column in Z, whose zeroing leaves C0 out of reduced form."""
    seen = {"dependent columns above": 0, "pivot column in Z": 0}

    def check(instance):
        code, poset = instance
        zeroable, want_u0, want_c0 = reference_zeroed_setup(code, poset)
        u0, walk = search._zeroed_walk(code, poset, ZEROABLE_BUDGET)
        start, step = next(walk)
        assert u0 == want_u0, (code, poset)
        assert (start.generators, start.pivots, step) == (want_c0.generators, want_c0.pivots, None)
        columns = list(zip(*code.generators))
        for i in zeroable:
            above = [c for j, c in enumerate(columns) if j != i and poset.leq(i + 1, j + 1) and any(c)]
            if any(columns[i]) and len(rref(code.q, code.k, above)[0]) < len(above):
                seen["dependent columns above"] += 1
                break
        seen["pivot column in Z"] += any(p - 1 in zeroable for p in code.pivots)

    instances = (zeroable_instance, walk_instance, ranked_instance)
    given(st.one_of(*[st.composite(instance)() for instance in instances]))(check)()
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize(
    "poset, rows, eliminations",
    [
        (Poset.antichain(6), [(1, 1, 0, 0, 0, 0)], 0),
        # 2 < 1 and col_2 = col_1: coordinate 2 is reduced, and C0 again,
        # though Z holds no pivot column
        (Poset.from_covers(2, [(2, 1)]), [(1, 1)], 2),
        # col_1 = col_3 = col_4 over 1 < 3 < 4 < 5 and 2 < 5: coordinates 1
        # and 3 are reduced, and C0 again, with the pivot column 1 in Z
        (Poset.from_covers(5, [(1, 3), (2, 5), (3, 4), (4, 5)]), [(1, 0, 1, 1, 0)], 3),
    ],
)
def test_zeroed_setup_eliminates_where_the_support_settles_nothing(
    monkeypatch, poset, rows, eliminations
):
    """The set-up of ``_zeroed_walk`` calls ``rref`` once per coordinate
    whose column is nonzero and reaches no row that the columns above it
    miss, and once more for C0 when a nonzero column is in Z: none on an
    antichain, where Z holds the zero columns alone."""
    calls = 0

    def counting_rref(*args):
        nonlocal calls
        calls += 1
        return rref(*args)

    monkeypatch.setattr(search, "rref", counting_rref)
    code = LinearCode.from_generators(2, poset.n, rows)
    search._zeroed_walk(code, poset, ZEROABLE_BUDGET)
    assert calls == eliminations


# -- reducibility from a zeroable column on either side --------------------------

SPLIT_GROUP_CAP = 1500


def full_support_instance(draw):
    """A hypothesis draw: a full-support code over GF(2), GF(3) or GF(5) with
    n <= 6 (n <= 5 over GF(3), n <= 4 over GF(5)), each column a nonzero
    multiple of one of a few drawn nonzero columns, on a poset of random
    relations whose group the reference walks whole."""
    q = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, {2: 6, 3: 5, 5: 4}[q]))
    k = draw(st.integers(1, n))
    vector = st.lists(st.integers(0, q - 1), min_size=k, max_size=k).filter(any)
    bases = draw(st.lists(vector, min_size=1, max_size=n))
    columns = [
        [c * v % q for v in draw(st.sampled_from(bases))]
        for c in draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
    ]
    labels = draw(st.permutations(range(1, n + 1)))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] < p[1]),
            max_size=n,
        )
    )
    poset = Poset.from_covers(n, [(labels[a - 1], labels[b - 1]) for a, b in pairs])
    assume(group_size(poset, q) <= SPLIT_GROUP_CAP)
    return LinearCode.from_generators(q, n, [list(row) for row in zip(*columns)]), poset


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_zeroable_columns_never_call_an_irreducible_code_reducible(monkeypatch):
    """``_splits`` calls a full-support code reducible only when the full
    enumeration finds an orbit code with a smaller support or several
    components, and ``is_p_irreducible``, which walks only what it leaves
    open, agrees with the enumeration.  Both sides fire on the draws: a
    column in the span of the columns above it, and, where there is none,
    a dual column in the span of the dual columns below it."""
    seen = {"code side": 0, "dual side": 0, "left open": 0, "irreducible": 0}
    sides = []
    zeroable = search._zeroable

    def logged(*args):
        sides.append(zeroable(*args))
        return sides[-1]

    monkeypatch.setattr(search, "_zeroable", logged)

    def check(instance):
        code, poset = instance
        sides.clear()
        splits = search._splits(code.q, code.generators, search._strict_ups(poset))
        irreducible = reference_is_p_irreducible(code, poset)
        assert not (splits and irreducible), (code, poset)
        assert is_p_irreducible(code, poset) == irreducible, (code, poset)
        if splits:
            seen["code side" if sides[0] else "dual side"] += 1
        else:
            seen["left open"] += 1
        seen["irreducible"] += irreducible

    settings(max_examples=200)(given(st.composite(full_support_instance)())(check))()
    assert min(seen.values()) > 0, seen


def test_dual_side_reads_the_dual_columns_below():
    """Over GF(3) with 1 < 4 and 1 < 5, the code of 10011, 01001 and 00110
    is P-irreducible by the full enumeration.  Its parity-check column at
    1, (2, 2), lies in the span of those at 4 and 5, above it, but no
    parity-check column lies in the span of those below it, nor any column
    of the code in the span of those above it: neither side fires."""
    code = LinearCode.from_generators(3, 5, [(1, 0, 0, 1, 1), (0, 1, 0, 0, 1), (0, 0, 1, 1, 0)])
    poset = Poset.from_covers(5, [(1, 4), (1, 5)])
    assert reference_is_p_irreducible(code, poset)
    dual = list(zip(*code.parity_check().rows))
    assert dual[0] == (2, 2) and dual[3:] == [(1, 0), (0, 1)]
    assert not search._splits(3, code.generators, search._strict_ups(poset))
    assert is_p_irreducible(code, poset)
