"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

from helpers import (
    brute_force_finest_partition,
    grouping_minimum,
    hierarchical_weight,
    nearest_codeword_oracle,
)
from posetcodes.code import LinearCode
from posetcodes.decomposition import (
    maximal_decomposition,
    min_grouping_complexity,
    trivial_decomposition,
)
from posetcodes.decoder import (
    agreement_rate,
    build_table,
    decode,
    table_stats,
)
from posetcodes.isometry import PIsometry, verify_isometry
from posetcodes.metric import pweight
from posetcodes.poset import Poset
from posetcodes.search import (
    PDecomposition,
    minimal_complexity,
    primary_decomposition,
    witness_refinement,
)
from posetcodes.suites import (
    bounds_suite,
    metric_suite,
    monotonicity_suite,
    neighbour_suite,
    partition_suite,
    profile_suite,
    random_code,
)


@contextmanager
def criterion(number, name):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS ({time.monotonic() - start:.1f}s)")


def test_criterion_1_metric_correctness():
    with criterion(1, "metric axioms and extreme closed forms"):
        report = metric_suite(n=4, q=2, posets=50, seed=101)
        assert report.ok, report.counterexample
        assert report.checked >= 50


def test_criterion_2_hierarchical_weight_formula():
    with criterion(2, "hierarchical weight closed form on six coordinates"):
        def compositions(total):
            if total == 0:
                yield ()
                return
            for head in range(1, total + 1):
                for tail in compositions(total - head):
                    yield (head,) + tail

        type_vectors = list(compositions(6))
        partitions = {tuple(sorted(tv, reverse=True)) for tv in type_vectors}
        assert len(partitions) == 11
        for tv in type_vectors:
            poset = Poset.hierarchical(tv)
            for x in product(range(2), repeat=6):
                assert pweight(poset, x) == hierarchical_weight(tv, x)


def test_criterion_3_fold_map_reproduction():
    with criterion(3, "fold map on chains collapses the repetition code"):
        for n in (3, 4, 5):
            chain = Poset.chain(n)
            rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for i in range(n - 1):
                rows[i][n - 1] = 1
            assert verify_isometry(chain, 2, rows)
            ones = LinearCode.from_generators(2, n, [tuple(1 for _ in range(n))])
            iso = PIsometry(chain, 2, tuple(range(1, n + 1)), rows)
            last = tuple(1 if j == n - 1 else 0 for j in range(n))
            assert iso.apply_code(ones) == LinearCode.from_generators(2, n, [last])
            assert minimal_complexity(ones, chain) == 1


def test_criterion_4_profile_uniqueness():
    with criterion(4, "profile uniqueness across maximal decompositions"):
        report = profile_suite(n=4, q=2, samples=50, seed=104)
        assert report.ok, report.counterexample
        assert report.checked >= 50


def test_criterion_5_monotonicity():
    with criterion(5, "complexity monotone under order refinement"):
        report = monotonicity_suite(n=4, q=2, samples=100, seed=105)
        assert report.ok, report.counterexample
        assert report.checked >= 100


def test_criterion_6_bounds_sandwich():
    with criterion(6, "hierarchical neighbour sandwich"):
        report = bounds_suite(n=4, q=2, samples=50, seed=106)
        assert report.ok, report.counterexample
        assert report.checked >= 50


def test_criterion_7_neighbour_extremality():
    with criterion(7, "neighbour extremality over the full catalogs"):
        report = neighbour_suite(4)
        assert report.ok, report.counterexample
        assert report.checked == 219


def test_criterion_8_decoder_tables_and_oracle():
    with criterion(8, "table sizes and decoding against the oracle"):
        checked_tables = 0

        def identity_pd(code, poset, dec=None):
            dec = dec if dec is not None else trivial_decomposition(code)
            return PDecomposition(
                PIsometry.identity(poset, code.q), dec, dec.complexity()
            )

        def check_table(table):
            nonlocal checked_tables
            stats = table_stats(table)
            assert stats["matches_complexity"]
            checked_tables += 1

        # single-component, no free coordinates: decoding equals the oracle
        five_chain = Poset.chain(5)
        five_anti = Poset.antichain(5)
        five_hier = Poset.hierarchical((2, 3))
        mixed = Poset.from_covers(5, [(1, 3), (2, 3), (2, 5), (4, 5)])
        ones5 = LinearCode.from_generators(2, 5, [(1, 1, 1, 1, 1)])
        tangled = LinearCode.from_generators(2, 5, [(1, 0, 1, 1, 0), (0, 1, 1, 0, 1)])
        for code, poset in [
            (ones5, five_chain),
            (ones5, five_anti),
            (ones5, five_hier),
            (tangled, five_chain),
            (tangled, mixed),
        ]:
            dec = maximal_decomposition(code)
            assert dec.r == 1 and not dec.j0
            table = build_table(identity_pd(code, poset), poset)
            check_table(table)
            for y in product(range(2), repeat=5):
                word, flags = decode(table, y)
                assert flags == ()
                assert word == nearest_codeword_oracle(code, poset, y)[0]

        # multi-component primary decompositions over hierarchical posets
        hier_instances = [
            (
                Poset.hierarchical((2, 3)),
                LinearCode.from_generators(2, 5, [(1, 1, 0, 0, 0), (0, 0, 1, 1, 1)]),
            ),
            (
                Poset.hierarchical((2, 2, 2)),
                LinearCode.from_generators(
                    2, 6, [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)]
                ),
            ),
        ]
        for poset, code in hier_instances:
            pd = primary_decomposition(code, poset)
            assert pd.dec.r >= 2
            table = build_table(pd, poset)
            check_table(table)
            rate = agreement_rate(table, code, poset)
            print(
                f"  hierarchical primary, components={pd.dec.r}: agreement {rate:.3f}"
            )
            assert rate == 1.0

        # non-hierarchical multi-component instance: rate reported only
        n_poset = Poset.from_covers(4, [(1, 3), (1, 4), (2, 4)])
        d_code = LinearCode.from_generators(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
        pd = identity_pd(d_code, n_poset, maximal_decomposition(d_code))
        table = build_table(pd, n_poset)
        check_table(table)
        rate = agreement_rate(table, d_code, n_poset)
        print(f"  non-hierarchical componentwise decoding: agreement {rate:.3f}")
        assert 0.0 < rate <= 1.0

        assert checked_tables == 8


def test_criterion_9_partition_refinement_characterization():
    with criterion(9, "refinement closed form equals reachability up to n=5"):
        report = partition_suite(max_n=5)
        assert report.ok, report.counterexample
        assert report.checked == 4 + 25 + 225 + 2704 + 41209


def test_criterion_10_decomposition_oracles():
    with criterion(10, "finest decomposition and grouping minimum oracles"):
        rng = random.Random(110)
        for index in range(200):
            q = 2 if index % 2 == 0 else 3
            n = rng.randint(1, 6)
            code = random_code(rng, q, n)
            dec = maximal_decomposition(code)
            assert {c.support() for c in dec.components} == brute_force_finest_partition(code)
            assert min_grouping_complexity(code) == grouping_minimum(code)


def test_criterion_11_refinement_witness():
    with criterion(11, "refinement witness on two coordinates"):
        witness = witness_refinement(Poset.antichain(2), Poset.chain(2))
        assert witness == LinearCode.from_generators(2, 2, [(1, 1)])
        assert minimal_complexity(witness, Poset.antichain(2)) == 2
        assert minimal_complexity(witness, Poset.chain(2)) == 1
