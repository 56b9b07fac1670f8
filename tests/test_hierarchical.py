"""The closed-form primary decomposition on hierarchical posets, checked
against the orbit walk: complexity against ``minimal_complexity``, the
canonical profile against ``verify_profile_uniqueness``, and the witness
against the image it must reach and the full ``PIsometry`` check, which
``primary_decomposition`` skips as it returns the closed form there."""

import dataclasses
import json
import random
import time

import pytest

from helpers import reference_primary_decomposition
from posetcodes import cli, decomposition, suites
from posetcodes.code import LinearCode, enumerate_codes
from posetcodes.decomposition import maximal_decomposition, min_grouping_complexity
from posetcodes.errors import ValidationError
from posetcodes.isometry import PIsometry, group_size
from posetcodes.poset import Poset, hierarchical_posets
from posetcodes.search import (
    hierarchical_decomposition,
    minimal_complexity,
    primary_decomposition,
    verify_profile_uniqueness,
)

try:
    from hypothesis import assume, given, strategies as st
except ImportError:  # only the property test at the end needs hypothesis
    given = None

# Compositions of 4: every naturally labelled type vector on four points.
TYPE_VECTORS_4 = [
    (4,), (1, 3), (3, 1), (2, 2), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1),
]


def every_code(q, n):
    for k in range(1, n + 1):
        yield from enumerate_codes(q, n, k)


def assert_canonical(code):
    """The closed form builds its image without a second rref."""
    again = LinearCode.from_generators(code.q, code.n, code.generators)
    assert (again.generators, again.pivots) == (code.generators, code.pivots)


def assert_valid_witness(closed, code):
    """The trusted witness passes the full check and reaches the image."""
    witness = closed.witness
    assert PIsometry(witness.poset, code.q, witness.sigma, witness.matrix_rows) == witness
    assert witness.apply_code(code) == closed.dec.code


def check_against_the_walk(code, poset, profile=True):
    closed = hierarchical_decomposition(code, poset)
    assert_canonical(closed.dec.code)
    assert closed.complexity == minimal_complexity(code, poset) == closed.dec.complexity()
    assert closed.witness.sigma == tuple(range(1, poset.n + 1))
    assert_valid_witness(closed, code)
    if profile:
        report = verify_profile_uniqueness(code, poset)
        assert report.ok
        assert maximal_decomposition(closed.dec.code).profile() == report.profile


@pytest.mark.parametrize("q", [2, 3])
def test_every_code_on_every_labelled_hierarchical_poset(q):
    for n in range(1, 4):
        for poset in hierarchical_posets(n):
            for code in every_code(q, n):
                check_against_the_walk(code, poset)


@pytest.mark.parametrize("type_vector", TYPE_VECTORS_4)
def test_every_code_on_each_natural_type_vector(type_vector):
    poset = Poset.hierarchical(type_vector)
    for code in every_code(2, 4):
        # The profile check walks the orbit a second time; the other ranges
        # keep it, and this one stays fast without it.
        check_against_the_walk(code, poset, profile=False)


def test_seeded_random_instances():
    rng = random.Random(606)
    checked = 0
    while checked < 16:
        n = rng.randint(5, 7)
        q = rng.choice((2, 3, 5))
        height = rng.randint(1, n)
        poset = Poset.from_ranks([rng.randrange(height) for _ in range(n)])
        if group_size(poset, q) > 1 << 12:
            continue
        check_against_the_walk(suites.random_code(rng, q, n), poset)
        checked += 1


def test_closed_form_groups_the_rows_once(monkeypatch):
    """The closed form takes its complexity from the one grouping it
    reports: one ``_row_groups`` call per closed form, where taking the
    complexity and the grouping apart made two."""
    row_groups, calls = decomposition._row_groups, []

    def counting(code):
        calls.append(code)
        return row_groups(code)

    rng = random.Random(607)
    for _ in range(40):
        n = rng.randint(1, 7)
        poset = Poset.from_ranks([rng.randrange(3) for _ in range(n)])
        code = suites.random_code(rng, rng.choice((2, 3, 5)), n)
        monkeypatch.setattr(decomposition, "_row_groups", counting)
        calls.clear()
        closed = hierarchical_decomposition(code, poset)
        assert calls == [closed.dec.code]
        monkeypatch.undo()
        assert closed.complexity == min_grouping_complexity(closed.dec.code)


def test_cheapest_grouping_profile_can_tie_over_gf2():
    """Over GF(2), q^1 + q^1 = q^2: the orbit's lexicographically least code
    may have the same complexity with a coarser cheapest grouping, so only
    the complexity and the canonical (maximal) profile are compared with
    the exhaustive search."""
    poset = Poset.hierarchical((2, 2))
    code = LinearCode.from_generators(2, 4, [(1, 0, 1, 1), (0, 1, 1, 1)])
    closed = hierarchical_decomposition(code, poset)
    least = reference_primary_decomposition(code, poset)
    assert closed.complexity == least.complexity == 4
    assert closed.dec.profile() == ((0, 0), (2, 1), (2, 1))
    assert least.dec.profile() == ((0, 0), (4, 2))


def test_witness_lies_in_the_triangular_part():
    # Three levels labelled out of order, and a code touching every level.
    poset = Poset.from_ranks([2, 0, 1, 0, 2])
    code = LinearCode.from_generators(3, 5, [(1, 2, 0, 1, 1), (0, 1, 1, 2, 0)])
    closed = hierarchical_decomposition(code, poset)
    rows = closed.witness.matrix_rows
    heights = poset.heights()
    for i in range(5):
        for j in range(5):
            if rows[i][j] and i != j:
                assert heights[i] < heights[j]
    assert all(rows[i][i] == 1 for i in range(5))
    assert_valid_witness(closed, code)


def test_rejects_a_non_hierarchical_poset_and_a_length_mismatch():
    n_poset = Poset.from_covers(4, [(1, 3), (1, 4), (2, 4)])
    code = LinearCode.from_generators(2, 4, [(1, 1, 1, 1)])
    with pytest.raises(ValidationError, match="hierarchical"):
        hierarchical_decomposition(code, n_poset)
    with pytest.raises(ValidationError, match="poset size 5 != code length 4"):
        hierarchical_decomposition(code, Poset.chain(5))


def test_reaches_sixteen_coordinates():
    ones = LinearCode.from_generators(3, 16, [(1,) * 16])
    closed = hierarchical_decomposition(ones, Poset.chain(16))
    assert closed.complexity == 1
    assert closed.dec.code == LinearCode.from_generators(3, 16, [(0,) * 15 + (1,)])
    assert_valid_witness(closed, ones)


def seeded_code(seed, n, k):
    """A seeded random GF(2) code of length n and dimension k."""
    rng = random.Random(seed)
    while True:
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(k)]
        code = LinearCode.from_generators(2, n, rows)
        if code.k == k:
            return code


@pytest.mark.parametrize(
    "spec, complexity", [("antichain:16", 256), ("hierarchical:8,8", 6)]
)
def test_primary_search_takes_the_closed_form_at_sixteen_coordinates(spec, complexity):
    """On a hierarchical poset ``primary_decomposition`` is the closed form,
    with no orbit budget: these orbits hold far more codes than the default
    budget, so a walk would stop before it ended."""
    poset = cli.load_poset(spec)
    code = seeded_code(16, 16, 8)
    start = time.perf_counter()
    pd = primary_decomposition(code, poset)
    elapsed = time.perf_counter() - start
    assert pd == hierarchical_decomposition(code, poset)
    assert (pd.complexity, pd.proven_minimal) == (complexity, True)
    assert_valid_witness(pd, code)
    assert elapsed < 1.0


def test_cli_primary_search_on_twelve_incomparable_coordinates(tmp_path, capsys):
    """The orbit exceeds the default budget; the closed form ends with exit 0."""
    path = tmp_path / "code12.json"
    path.write_text(json.dumps(seeded_code(12, 12, 6).to_json_dict()))
    argv = ["analyze", "decompose", "antichain:12", str(path), "--primary", "--format", "json"]
    assert cli.main(argv) == 0
    primary = json.loads(capsys.readouterr().out)["primary"]
    assert (primary["complexity"], primary["proven_minimal"]) == (64, True)


def test_bounds_suite_checks_the_neighbours_against_the_walk(monkeypatch):
    """A closed-form neighbour value that the walk does not reproduce is a
    counterexample, even when the sandwich still holds."""
    real = suites.hierarchy_bounds
    calls = []

    def skewed(code, poset):
        bounds = real(code, poset)
        calls.append(poset)
        if len(calls) == 1:  # the pinned instance
            return bounds
        return dataclasses.replace(bounds, o_lower=bounds.o_lower + 1)

    monkeypatch.setattr(suites, "hierarchy_bounds", skewed)
    report = suites.bounds_suite(n=3, samples=5, seed=2)
    assert not report.ok
    assert report.checked == 2
    found = report.counterexample
    assert found["walked_neighbours"] == [found["bounds"]["o_upper"], found["bounds"]["o_lower"] - 1]


def hierarchical_instance(draw):
    """A hypothesis draw: a nonzero code on a random hierarchical poset."""
    n = draw(st.integers(1, 16))
    q = draw(st.sampled_from((2, 3, 5)))
    ranks = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
            min_size=1,
            max_size=min(n, 4),
        )
    )
    assume(any(any(row) for row in rows))
    return LinearCode.from_generators(q, n, rows), Poset.from_ranks(ranks)


def check_witness(instance):
    code, poset = instance
    closed = hierarchical_decomposition(code, poset)
    assert_canonical(closed.dec.code)
    assert_valid_witness(closed, code)
    assert closed.dec.complexity() == closed.complexity
    if poset.n <= 5 and group_size(poset, code.q) <= 1 << 12:
        assert closed.complexity == minimal_complexity(code, poset)


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_witness_reaches_the_closed_form_image():
    given(st.composite(hierarchical_instance)())(check_witness)()
