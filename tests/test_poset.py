import json
import random
from itertools import combinations, permutations, product
from math import factorial

import pytest

from helpers import (
    closure_pairs,
    generated_group,
    longest_chain_heights,
    reference_automorphisms,
    reference_from_ranks,
    reference_generators,
    reference_poset_restrict,
)
from posetcodes.errors import ResourceLimitError, ValidationError
from posetcodes.isometry import group_size
from posetcodes.poset import (
    MAX_GROUND_SET,
    Poset,
    all_posets,
    hierarchical_posets,
    make_family,
)
from posetcodes.suites import random_poset

N_COVERS = [(1, 3), (1, 4), (2, 4)]


@pytest.fixture
def n_poset():
    return Poset.from_covers(4, N_COVERS)


def strict_of(poset):
    return poset.strict_pairs()


def test_from_covers_matches_closure_oracle(n_poset):
    closed = closure_pairs(4, N_COVERS)
    expected = {(a, b) for (a, b) in closed if a != b}
    assert strict_of(n_poset) == expected == {(1, 3), (1, 4), (2, 4)}


def test_chain_closure_adds_transitive_pairs():
    chain = Poset.from_covers(4, [(1, 2), (2, 3), (3, 4)])
    assert strict_of(chain) == {
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    }


def test_random_relations_match_closure_oracle():
    rng = random.Random(7)
    built = 0
    while built < 30:
        n = rng.randint(2, 6)
        pairs = [
            (rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 2 * n))
        ]
        pairs = [(a, b) for a, b in pairs if a != b]
        closed = closure_pairs(n, pairs)
        if any((b, a) in closed for (a, b) in closed if a != b):
            with pytest.raises(ValidationError):
                Poset.from_covers(n, pairs)
            continue
        poset = Poset.from_covers(n, pairs)
        assert strict_of(poset) == {(a, b) for (a, b) in closed if a != b}
        built += 1


def test_cycle_is_rejected():
    with pytest.raises(ValidationError):
        Poset.from_covers(3, [(1, 2), (2, 1)])
    with pytest.raises(ValidationError):
        Poset.from_covers(3, [(1, 2), (2, 3), (3, 1)])


def test_out_of_range_and_loops_rejected():
    with pytest.raises(ValidationError):
        Poset.from_covers(3, [(1, 4)])
    with pytest.raises(ValidationError):
        Poset.from_covers(3, [(2, 2)])


def test_ideal_examples(n_poset):
    chain = Poset.chain(4)
    assert chain.ideal({3}) == {1, 2, 3}
    assert chain.ideal(set()) == frozenset()
    assert n_poset.ideal({3, 4}) == {1, 2, 3, 4}


def test_ideal_laws():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 6)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
                 if a < b and rng.random() < 0.4]
        poset = Poset.from_covers(n, pairs)
        elements = list(range(1, n + 1))
        x = {e for e in elements if rng.random() < 0.5}
        y = {e for e in elements if rng.random() < 0.5}
        assert poset.ideal(x | y) == poset.ideal(x) | poset.ideal(y)
        assert poset.ideal(poset.ideal(x)) == poset.ideal(x)
        assert x <= poset.ideal(x)


def test_level_structure(n_poset):
    assert Poset.antichain(4).type_vector() == (4,)
    assert Poset.chain(4).type_vector() == (1, 1, 1, 1)
    ls = n_poset.level_structure()
    assert ls.levels == (frozenset({1, 2}), frozenset({3, 4}))
    assert ls.type_vector == (2, 2)
    assert ls.heights == longest_chain_heights(4, strict_of(n_poset))


def test_levels_partition_ground_set():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 6)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
                 if a < b and rng.random() < 0.35]
        poset = Poset.from_covers(n, pairs)
        ls = poset.level_structure()
        seen = set()
        for level in ls.levels:
            assert not (level & seen)
            seen |= level
        assert seen == set(range(1, n + 1))
        assert sum(ls.type_vector) == n


def test_is_finer(n_poset):
    hier = Poset.hierarchical((2, 2))
    assert Poset.antichain(4).is_finer_than(n_poset)
    assert n_poset.is_finer_than(hier)
    assert not Poset.chain(4).is_finer_than(n_poset)
    with pytest.raises(ValidationError):
        n_poset.is_finer_than(Poset.chain(3))


def test_is_finer_is_partial_order_on_three_element_posets():
    catalog = list(all_posets(3))
    assert len(catalog) == 19
    for p in catalog:
        assert p.is_finer_than(p)
        for q in catalog:
            if p.is_finer_than(q) and q.is_finer_than(p):
                assert p == q
            for r in catalog:
                if p.is_finer_than(q) and q.is_finer_than(r):
                    assert p.is_finer_than(r)


def test_every_poset_between_antichain_and_a_linear_extension():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 6)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
                 if a < b and rng.random() < 0.4]
        poset = Poset.from_covers(n, pairs)
        assert Poset.antichain(n).is_finer_than(poset)
        order = sorted(range(1, n + 1), key=lambda i: (poset.heights()[i - 1], i))
        extension = Poset.from_covers(
            n, [(order[i], order[i + 1]) for i in range(n - 1)] if n > 1 else []
        )
        assert poset.is_finer_than(extension)


def test_hierarchy_flags(n_poset):
    assert Poset.hierarchical((2, 2)).hierarchical_levels() == {1, 2}
    assert n_poset.hierarchical_levels() == {1}
    assert Poset.chain(4).hierarchical_levels() == {1, 2, 3, 4}
    assert Poset.chain(4).is_hierarchical()
    assert not n_poset.is_hierarchical()


def test_hierarchy_flags_require_all_lower_levels():
    # 1<2<3 with 4 isolated: level 3 relates to level 2 alone, but the
    # isolated bottom element must also lie below for the flag to hold
    poset = Poset.from_covers(4, [(1, 2), (2, 3)])
    assert poset.hierarchical_levels() == {1}


def test_make_family(n_poset):
    hier = make_family("hierarchical", type_vector=(2, 2))
    assert strict_of(hier) == {(1, 3), (1, 4), (2, 3), (2, 4)}
    assert make_family("hierarchical", type_vector=(4,)) == Poset.antichain(4)
    assert make_family("hierarchical", type_vector=(1, 1, 1, 1)) == Poset.chain(4)
    assert make_family("chain", n=3) == Poset.chain(3)
    with pytest.raises(ValidationError):
        make_family("hierarchical", type_vector=(2, 0))
    with pytest.raises(ValidationError):
        make_family("grid", n=4)


def test_from_ranks_matches_the_closure_of_rank_ordered_pairs():
    for n in range(1, 6):
        for ranks in product(range(n), repeat=n):
            assert Poset.from_ranks(ranks) == reference_from_ranks(ranks), ranks
    with pytest.raises(ValidationError):
        Poset.from_ranks(())
    with pytest.raises(ResourceLimitError):
        Poset.from_ranks(range(MAX_GROUND_SET + 1))


def brute_force_automorphisms(poset):
    out = []
    for perm in permutations(range(1, poset.n + 1)):
        if all(
            poset.leq(i, j) == poset.leq(perm[i - 1], perm[j - 1])
            for i in range(1, poset.n + 1)
            for j in range(1, poset.n + 1)
        ):
            out.append(perm)
    return sorted(out)


def test_automorphisms(n_poset):
    assert n_poset.automorphisms() == ((), 1)
    assert Poset.antichain(3).automorphisms() == (((1, 3, 2), (2, 1, 3)), 6)
    assert Poset.hierarchical((2, 2)).automorphisms() == (((1, 2, 4, 3), (2, 1, 3, 4)), 4)


def _automorphism_cases():
    """12 random posets on up to 5 points, every labelled poset on up to 4,
    and 40 randomly labelled posets on 5 or 6."""
    rng = random.Random(13)
    cases = []
    for _ in range(12):
        n = rng.randint(1, 5)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
                 if a < b and rng.random() < 0.4]
        cases.append(Poset.from_covers(n, pairs))
    for n in range(1, 5):
        cases.extend(all_posets(n))
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(5, 6)
        density = rng.random()
        label = rng.sample(range(1, n + 1), n)
        pairs = [(label[a], label[b]) for a, b in combinations(range(n), 2)
                 if rng.random() < density]
        cases.append(Poset.from_covers(n, pairs))
    return cases


def test_automorphisms_match_brute_force():
    """The generators generate the whole group, its order is right, and they
    are the documented ones, read off the lexicographic list."""
    for poset in _automorphism_cases():
        generators, order = poset.automorphisms()
        brute = brute_force_automorphisms(poset)
        assert generated_group(generators, poset.n) == set(brute)
        assert order == len(brute)
        assert list(generators) == reference_generators(poset)


def test_reference_automorphisms_match_brute_force():
    """The lexicographic search lists the same automorphisms in the same,
    lexicographic, order."""
    for poset in _automorphism_cases():
        assert reference_automorphisms(poset) == brute_force_automorphisms(poset)


def test_automorphism_group_closure():
    """The automorphisms are closed under composition, and for each i the
    generators that fix 1..i-1 generate every automorphism that does."""
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 5)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
                 if a < b and rng.random() < 0.3]
        poset = Poset.from_covers(n, pairs)
        autos = set(reference_automorphisms(poset))
        for s in autos:
            for t in autos:
                composed = tuple(s[t[i] - 1] for i in range(n))
                assert composed in autos
        generators, _ = poset.automorphisms()
        for i in range(1, n + 1):
            prefix = tuple(range(1, i))
            fixing = [g for g in generators if g[: i - 1] == prefix]
            assert generated_group(fixing, n) == {s for s in autos if s[: i - 1] == prefix}


def test_automorphism_order_reaches_sixteen_points():
    """No list of the group is built: 16! on an antichain, and the group of
    a random 16-point poset whose search, without the twin pruning, takes
    seconds."""
    assert group_size(Poset.antichain(16), 2) == factorial(16)
    rng = random.Random(7)
    posets = [random_poset(rng, 16) for _ in range(25)]
    assert posets[-1].automorphisms()[1] == 1_451_520


def test_restrict(n_poset):
    sub = n_poset.restrict([2, 4])
    assert sub.n == 2 and sub.strict_pairs() == {(1, 2)}
    sub2 = n_poset.restrict([3, 4])
    assert sub2.strict_pairs() == set()
    with pytest.raises(ValidationError):
        n_poset.restrict([])


def test_covers_and_dot():
    chain = Poset.chain(4)
    assert chain.covers() == [(1, 2), (2, 3), (3, 4)]
    dot = chain.to_dot()
    assert dot.count("->") == 3
    assert "rankdir=BT" in dot


def test_json_round_trip(n_poset):
    blob = json.dumps(n_poset.to_json_dict())
    assert Poset.from_json_dict(json.loads(blob)) == n_poset
    with pytest.raises(ValidationError):
        Poset.from_json_dict({"covers": [[1, 2]]})


def test_catalog_counts():
    assert sum(1 for _ in all_posets(3)) == 19
    assert sum(1 for _ in all_posets(4)) == 219
    assert sum(1 for _ in hierarchical_posets(3)) == 13
    hier4 = list(hierarchical_posets(4))
    assert len(hier4) == 75
    assert len(set(hier4)) == 75
    assert all(p.is_hierarchical() for p in hier4)


def test_hierarchical_catalog_is_bounded():
    """n = 9 would build 7,087,261 posets; the first next() raises."""
    for n in (8, 9):
        with pytest.raises(ResourceLimitError, match="only for n <= 7"):
            next(hierarchical_posets(n))
    assert next(hierarchical_posets(7)).n == 7


def test_hierarchical_subsets_of_combinations():
    # every two-subset block choice shows up in the catalog
    assert Poset.hierarchical((2, 2)) in set(hierarchical_posets(4))
    assert Poset.antichain(4) in set(hierarchical_posets(4))
    assert Poset.chain(4) in set(hierarchical_posets(4))
    assert len(list(combinations(range(4), 2))) == 6


def test_restrict_matches_the_reference_on_every_small_poset():
    for n in range(1, 5):
        for poset in all_posets(n):
            for size in range(1, n + 1):
                for coords in combinations(range(1, n + 1), size):
                    assert poset.restrict(coords) == reference_poset_restrict(poset, coords)
