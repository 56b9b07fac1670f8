import random
from itertools import product

import pytest

from helpers import hamming_distance, hierarchical_weight, top_disagreement_index
from posetcodes.code import LinearCode
from posetcodes.errors import ValidationError
from posetcodes.field import FieldSpec
from posetcodes.metric import min_pdistance, pdist, pweight, support
from posetcodes.poset import Poset
from posetcodes.suites import metric_suite, random_coarsening, random_poset


def test_support():
    assert support((1, 0, 1, 0)) == {1, 3}
    assert support((0, 0, 0, 0)) == frozenset()
    assert support((0, 0, 0, 2)) == {4}


def test_pweight_examples():
    assert pweight(Poset.antichain(4), (1, 0, 1, 0)) == 2
    assert pweight(Poset.chain(4), (0, 1, 0, 0)) == 2
    assert pweight(Poset.hierarchical((2, 2)), (1, 0, 1, 0)) == 3


def test_pweight_length_mismatch():
    with pytest.raises(ValidationError):
        pweight(Poset.chain(3), (1, 0, 0, 0))


def test_pdist_examples():
    chain = Poset.chain(4)
    f2 = FieldSpec(2)
    assert pdist(chain, f2, (1, 1, 0, 0), (1, 1, 0, 0)) == 0
    assert pdist(chain, f2, (1, 1, 0, 0), (1, 0, 0, 0)) == 2


def test_antichain_distance_is_hamming_over_gf3():
    rng = random.Random(2)
    anti = Poset.antichain(5)
    f3 = FieldSpec(3)
    for _ in range(100):
        x = tuple(rng.randrange(3) for _ in range(5))
        y = tuple(rng.randrange(3) for _ in range(5))
        assert pdist(anti, f3, x, y) == hamming_distance(x, y)


def test_chain_distance_is_top_disagreement():
    chain = Poset.chain(4)
    f2 = FieldSpec(2)
    for x in product(range(2), repeat=4):
        for y in product(range(2), repeat=4):
            assert pdist(chain, f2, x, y) == top_disagreement_index(x, y)


def test_weight_dominates_hamming():
    rng = random.Random(9)
    for _ in range(20):
        poset = random_poset(rng, 4)
        for x in product(range(2), repeat=4):
            w = pweight(poset, x)
            assert w >= hamming_distance(x, (0, 0, 0, 0))
    anti = Poset.antichain(4)
    for x in product(range(2), repeat=4):
        assert pweight(anti, x) == hamming_distance(x, (0, 0, 0, 0))


def test_refining_the_order_grows_the_weight():
    rng = random.Random(4)
    for _ in range(25):
        finer = random_poset(rng, 4)
        coarser = random_coarsening(rng, finer)
        for x in product(range(2), repeat=4):
            assert pweight(finer, x) <= pweight(coarser, x)


def test_metric_axioms_sampled_gf3():
    rng = random.Random(6)
    f3 = FieldSpec(3)
    for _ in range(5):
        poset = random_poset(rng, 5)
        vectors = [tuple(rng.randrange(3) for _ in range(5)) for _ in range(30)]
        for x in vectors:
            for y in vectors:
                d = pdist(poset, f3, x, y)
                assert d == pdist(poset, f3, y, x)
                assert (d == 0) == (x == y)
        for _ in range(300):
            x, y, z = (rng.choice(vectors) for _ in range(3))
            assert pdist(poset, f3, x, y) <= pdist(poset, f3, x, z) + pdist(poset, f3, z, y)


def test_hierarchical_formula_agrees_with_ideal_closure_n4():
    compositions = [
        (4,), (1, 3), (3, 1), (2, 2), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1),
    ]
    for tv in compositions:
        poset = Poset.hierarchical(tv)
        for x in product(range(2), repeat=4):
            assert pweight(poset, x) == hierarchical_weight(tv, x)


def test_min_pdistance_examples():
    chain = Poset.chain(4)
    assert min_pdistance(chain, LinearCode.from_generators(2, 4, [(1, 1, 1, 1)])) == 4
    anti = Poset.antichain(4)
    d_code = LinearCode.from_generators(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert min_pdistance(anti, d_code) == 2
    hier = Poset.hierarchical((2, 2))
    assert min_pdistance(hier, LinearCode.from_generators(2, 4, [(0, 0, 1, 1)])) == 4


def test_min_pdistance_size_mismatch():
    with pytest.raises(ValidationError):
        min_pdistance(Poset.chain(3), LinearCode.from_generators(2, 4, [(1, 1, 1, 1)]))


@pytest.mark.parametrize("n, q", [(3, 3), (2, 5), (2, 7)])
def test_metric_suite_passes_over_larger_fields(n, q):
    """The suite's difference masks fold one n-bit block per nonzero value,
    so fields with two to six such values exercise one to three folds."""
    report = metric_suite(n=n, q=q, posets=3, seed=1)
    assert report.ok, report.counterexample
    assert report.checked == 5
