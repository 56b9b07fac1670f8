import random
from itertools import product

import pytest

from posetcodes.code import LinearCode
from posetcodes.decomposition import maximal_decomposition, trivial_decomposition
from posetcodes.decoder import (
    agreement_rate,
    build_table,
    decode,
    table_stats,
)
from posetcodes.errors import ResourceLimitError, ValidationError
from posetcodes.isometry import PIsometry, apply_matrix
from posetcodes.metric import pweight
from posetcodes.poset import Poset
from posetcodes.search import PDecomposition, primary_decomposition
from posetcodes.suites import random_code, random_poset

from helpers import (
    identity_isometry,
    nearest_codeword_oracle,
    reference_agreement_rate,
    reference_automorphisms,
    reference_code_restrict,
    reference_decode,
    reference_poset_restrict,
    reference_table_leaders,
)

try:
    from hypothesis import assume, given, strategies as st
except ImportError:  # only the property test needs hypothesis
    given = None

N_POSET = Poset.from_covers(4, [(1, 3), (1, 4), (2, 4)])
R4 = LinearCode.from_generators(2, 4, [(1, 1, 1, 1)])


def identity_pd(code, poset, dec=None):
    dec = dec if dec is not None else trivial_decomposition(code)
    return PDecomposition(
        identity_isometry(poset, code.q), dec, dec.complexity()
    )


def test_primary_chain_table_has_a_single_trivial_entry():
    pd = primary_decomposition(R4, Poset.chain(4))
    table = build_table(pd, Poset.chain(4))
    assert table.total_entries == 1 == pd.complexity
    comp = table.components[0]
    assert comp.support == (4,)
    assert comp.leaders == {(): (0,)}


def test_two_component_table_sizes():
    d_code = LinearCode.from_generators(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    pd = identity_pd(d_code, Poset.antichain(4), maximal_decomposition(d_code))
    table = build_table(pd, Poset.antichain(4))
    assert [c.entries for c in table.components] == [2, 2]
    assert table.total_entries == 4 == pd.complexity


def test_trivial_repetition_table_has_eight_entries():
    pd = identity_pd(R4, Poset.antichain(4))
    table = build_table(pd, Poset.antichain(4))
    assert table.total_entries == 8
    stats = table_stats(table)
    assert stats["total"] == 8 and stats["matches_complexity"]


def test_decode_examples():
    anti = Poset.antichain(4)
    table = build_table(identity_pd(R4, anti), anti)
    word, flags = decode(table, (1, 1, 0, 1))
    assert word == (1, 1, 1, 1) and flags == ()
    for codeword in R4.codewords():
        assert decode(table, codeword) == (codeword, ())


def test_decode_zeroes_and_flags_unsupported_coordinates():
    chain = Poset.chain(4)
    pair = LinearCode.from_generators(2, 4, [(0, 1, 0, 0), (0, 0, 0, 1)])
    pd = primary_decomposition(pair, chain)
    table = build_table(pd, chain)
    word, flags = decode(table, (1, 0, 1, 0))
    assert word == (0, 0, 0, 0)
    assert flags == (1, 3)
    assert pair.contains(word)


def test_decode_output_is_always_a_codeword():
    rng = random.Random(51)
    for _ in range(10):
        poset = random_poset(rng, 4)
        code = random_code(rng, 2, 4)
        pd = primary_decomposition(code, poset)
        table = build_table(pd, poset)
        for y in product(range(2), repeat=4):
            word, _ = decode(table, y)
            assert code.contains(word)


def test_oracle_examples():
    chain = Poset.chain(4)
    word, dist = nearest_codeword_oracle(R4, chain, (1, 0, 0, 0))
    assert word == (0, 0, 0, 0) and dist == 1
    anti = Poset.antichain(4)
    word, dist = nearest_codeword_oracle(R4, anti, (1, 1, 1, 0))
    assert word == (1, 1, 1, 1) and dist == 1
    for codeword in R4.codewords():
        assert nearest_codeword_oracle(R4, anti, codeword) == (codeword, 0)


def test_identity_frame_decoding_equals_the_oracle():
    instances = [
        (R4, Poset.chain(4)),
        (R4, Poset.antichain(4)),
        (R4, N_POSET),
        (LinearCode.from_generators(2, 4, [(1, 0, 1, 1), (0, 1, 1, 0)]), N_POSET),
    ]
    for code, poset in instances:
        assert maximal_decomposition(code).r == 1
        assert not maximal_decomposition(code).j0
        table = build_table(identity_pd(code, poset), poset)
        for y in product(range(2), repeat=4):
            word, flags = decode(table, y)
            assert flags == ()
            assert (word, None)[0] == nearest_codeword_oracle(code, poset, y)[0]


def test_gf3_decoding_matches_oracle_distances():
    chain = Poset.chain(2)
    code = LinearCode.from_generators(3, 2, [(1, 2)])
    table = build_table(identity_pd(code, chain), chain)
    assert table.total_entries == 3
    for y in product(range(3), repeat=2):
        word, _ = decode(table, y)
        assert word == nearest_codeword_oracle(code, chain, y)[0]


def test_hierarchical_primary_decoding_is_exact():
    hier = Poset.hierarchical((2, 3))
    code = LinearCode.from_generators(2, 5, [(1, 1, 0, 0, 0), (0, 0, 1, 1, 1)])
    pd = primary_decomposition(code, hier)
    assert pd.dec.r == 2
    table = build_table(pd, hier)
    assert agreement_rate(table, code, hier) == 1.0


def test_componentwise_decoding_can_miss_cross_component_ideals():
    d_code = LinearCode.from_generators(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    pd = identity_pd(d_code, N_POSET, maximal_decomposition(d_code))
    table = build_table(pd, N_POSET)
    rate = agreement_rate(table, d_code, N_POSET)
    assert 0.0 < rate < 1.0
    # the miss: correcting {3,4} alone ignores that ideals reach level one
    word, _ = decode(table, (0, 0, 1, 0))
    achieved = pweight(N_POSET, tuple((a - b) % 2 for a, b in zip((0, 0, 1, 0), word)))
    assert achieved > nearest_codeword_oracle(d_code, N_POSET, (0, 0, 1, 0))[1]


def agreement_instances():
    """(table, code, poset): the primary, componentwise and identity-frame
    tables of this file and of the acceptance tests, then seeded random
    ones over GF(2) and GF(3)."""
    hier5 = Poset.hierarchical((2, 3))
    code5 = LinearCode.from_generators(2, 5, [(1, 1, 0, 0, 0), (0, 0, 1, 1, 1)])
    hier6 = Poset.hierarchical((2, 2, 2))
    code6 = LinearCode.from_generators(
        2, 6, [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)]
    )
    d_code = LinearCode.from_generators(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    for poset, code in ((hier5, code5), (hier6, code6)):
        yield build_table(primary_decomposition(code, poset), poset), code, poset
    pd = identity_pd(d_code, N_POSET, maximal_decomposition(d_code))
    yield build_table(pd, N_POSET), d_code, N_POSET
    tangled = LinearCode.from_generators(2, 5, [(1, 0, 1, 1, 0), (0, 1, 1, 0, 1)])
    mixed = Poset.from_covers(5, [(1, 3), (2, 3), (2, 5), (4, 5)])
    for code, poset in ((R4, N_POSET), (R4, Poset.antichain(4)), (tangled, mixed)):
        yield build_table(identity_pd(code, poset), poset), code, poset
    rng = random.Random(31)
    for index in range(8):
        q = 2 if index % 2 == 0 else 3
        n = rng.randint(2, 4 if q == 3 else 5)
        poset = random_poset(rng, n)
        code = random_code(rng, q, n)
        yield build_table(identity_pd(code, poset, maximal_decomposition(code)), poset), code, poset


def test_agreement_rate_matches_the_oracle_reference():
    rates = []
    for table, code, poset in agreement_instances():
        rate = agreement_rate(table, code, poset)
        assert rate == reference_agreement_rate(table, code, poset)
        rates.append(rate)
    assert min(rates) < 1.0 == max(rates)


def test_agreement_rate_validates_lengths():
    table = build_table(identity_pd(R4, N_POSET), N_POSET)
    with pytest.raises(ValidationError):
        agreement_rate(table, R4, Poset.chain(5))


def test_coset_budget():
    code = LinearCode.from_generators(2, 12, [tuple(1 for _ in range(12))])
    anti = Poset.antichain(12)
    pd = identity_pd(code, anti)
    with pytest.raises(ResourceLimitError):
        build_table(pd, anti, coset_budget=16)


def test_decode_length_validation():
    anti = Poset.antichain(4)
    table = build_table(identity_pd(R4, anti), anti)
    with pytest.raises(ValidationError):
        decode(table, (1, 0))


def tier1_tables():
    """(table, poset) for every table the tier-1 tests build: this file's,
    the acceptance tests' and the in-process CLI tests'."""
    chain4, anti4 = Poset.chain(4), Poset.antichain(4)
    hier5 = Poset.hierarchical((2, 3))
    mixed = Poset.from_covers(5, [(1, 3), (2, 3), (2, 5), (4, 5)])
    pair = LinearCode.from_generators(2, 4, [(0, 1, 0, 0), (0, 0, 0, 1)])
    code5 = LinearCode.from_generators(2, 5, [(1, 1, 0, 0, 0), (0, 0, 1, 1, 1)])
    ones5 = LinearCode.from_generators(2, 5, [(1, 1, 1, 1, 1)])
    tangled = LinearCode.from_generators(2, 5, [(1, 0, 1, 1, 0), (0, 1, 1, 0, 1)])
    d_code = LinearCode.from_generators(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    primaries = [(R4, chain4), (R4, anti4), (pair, chain4), (code5, hier5)]
    rng = random.Random(51)
    for _ in range(10):
        poset = random_poset(rng, 4)
        primaries.append((random_code(rng, 2, 4), poset))
    for code, poset in primaries:
        yield build_table(primary_decomposition(code, poset), poset), poset
    identities = [
        (R4, chain4),
        (R4, anti4),
        (R4, N_POSET),
        (LinearCode.from_generators(2, 4, [(1, 0, 1, 1), (0, 1, 1, 0)]), N_POSET),
        (LinearCode.from_generators(3, 2, [(1, 2)]), Poset.chain(2)),
        (ones5, Poset.chain(5)),
        (ones5, Poset.antichain(5)),
        (ones5, hier5),
        (tangled, Poset.chain(5)),
        (tangled, mixed),
    ]
    for code, poset in identities:
        yield build_table(identity_pd(code, poset), poset), poset
    yield build_table(identity_pd(d_code, anti4, maximal_decomposition(d_code)), anti4), anti4
    for table, _, poset in agreement_instances():
        yield table, poset


def random_tables():
    """(table, poset) for seeded random codes over GF(2), GF(3) and GF(5),
    in their finest decomposition and in their primary one."""
    rng = random.Random(73)
    for index in range(24):
        q = (2, 3, 5)[index % 3]
        n = rng.randint(2, {2: 7, 3: 5, 5: 4}[q])
        poset = random_poset(rng, n)
        code = random_code(rng, q, n)
        yield build_table(identity_pd(code, poset, maximal_decomposition(code)), poset), poset
        if q ** n <= 3**4:
            yield build_table(primary_decomposition(code, poset), poset), poset


def test_table_leaders_match_the_reference_scan():
    for tables in (tier1_tables(), random_tables()):
        for table, poset in tables:
            leaders = [(c.support, c.leaders) for c in table.components]
            assert leaders == reference_table_leaders(table.pd, poset)


def test_restrictions_match_the_references_on_table_components():
    for table, poset in tier1_tables():
        for comp in table.pd.dec.components:
            coords = sorted(comp.support())
            local = comp.restrict(coords)
            expected = reference_code_restrict(comp, coords)
            assert (local, local.pivots) == (expected, expected.pivots)
            assert poset.restrict(coords) == reference_poset_restrict(poset, coords)


def test_coset_budget_bounds_the_vectors_scanned():
    """The full space over GF(10007) on a 2-chain has a one-entry table,
    but finding it would scan 10007^2 vectors."""
    chain = Poset.chain(2)
    full = LinearCode.from_generators(10007, 2, [(1, 0), (0, 1)])
    pd = primary_decomposition(full, chain)
    assert pd.complexity == 1
    with pytest.raises(ResourceLimitError, match=r"10007\^2 vectors"):
        build_table(pd, chain)
    table = build_table(identity_pd(R4, Poset.antichain(4)), Poset.antichain(4), coset_budget=16)
    assert table.total_entries == 8


def test_build_table_rejects_a_witness_for_another_poset():
    """A decomposition found on the chain has leaders and a frame for the
    chain; a table for the antichain of the same length would mix them."""
    pd = primary_decomposition(R4, Poset.chain(4))
    with pytest.raises(ValidationError, match="witness"):
        build_table(pd, Poset.antichain(4))


def random_isometry(rng, poset, q):
    """A random automorphism with a random matrix: nonzero diagonal, zero
    wherever the poset forbids an entry."""
    n = poset.n
    rows = [
        [
            (rng.randrange(1, q) if i == j else rng.randrange(q))
            if poset.leq(i + 1, j + 1)
            else 0
            for j in range(n)
        ]
        for i in range(n)
    ]
    return PIsometry(poset, q, rng.choice(reference_automorphisms(poset)), rows)


def transport_code(rng, q, n, gap):
    """A random code of length n, zero at one random coordinate if ``gap``."""
    if not gap:
        return random_code(rng, q, n)
    zero = rng.randrange(n)
    rows = [row[:zero] + (0,) + row[zero:] for row in random_code(rng, q, n - 1).generators]
    return LinearCode.from_generators(q, n, rows)


def transport_tables():
    """(table, poset) over GF(2), GF(3), GF(5), GF(7) and GF(101): the
    finest decomposition of a code's image under a random isometry, every
    other code with a zero coordinate, and the primary decompositions of
    the smaller spaces."""
    rng = random.Random(97)
    for index in range(36):
        q = (2, 3, 5)[index % 3]
        n = rng.randint(2, {2: 6, 3: 4, 5: 3}[q])
        poset = Poset.antichain(n) if index % 4 == 0 else random_poset(rng, n)
        code = transport_code(rng, q, n, index % 2)
        witness = random_isometry(rng, poset, q)
        dec = maximal_decomposition(witness.apply_code(code))
        yield build_table(PDecomposition(witness, dec, dec.complexity()), poset), poset
        if q**n <= 3**4:
            yield build_table(primary_decomposition(code, poset), poset), poset
    rng = random.Random(701)
    for index in range(16):
        q, gap = (7, 101)[index % 2], index % 8 >= 4
        n = rng.randint(2, 3) if q == 7 else 2 + gap
        # A zero coordinate on the antichain keeps GF(101) supports within
        # two coordinates, so no table build scans 101^3 vectors.
        flat = index % 4 < 2 or q == 101 and gap
        poset = Poset.antichain(n) if flat else random_poset(rng, n)
        code = transport_code(rng, q, n, gap)
        witness = random_isometry(rng, poset, q)
        dec = maximal_decomposition(witness.apply_code(code))
        yield build_table(PDecomposition(witness, dec, dec.complexity()), poset), poset


def received_words(rng, q, n):
    """Every word of GF(q)^n up to 7^3 of them; past that, the word of all
    q - 1 and 300 random ones."""
    if q**n <= 7**3:
        return list(product(range(q), repeat=n))
    return [(q - 1,) * n] + [tuple(rng.randrange(q) for _ in range(n)) for _ in range(300)]


def test_decode_matches_the_reference_transport():
    """The decoder works in the received word's frame; the reference
    transports each word into the decomposed frame and back."""
    rng = random.Random(5)
    seen = set()
    for table, poset in transport_tables():
        q, n, witness = table.q, table.n, table.pd.witness
        seen.add(("q", q))
        seen.add(("j0", bool(table.j0)))
        seen.add(("permuted", witness.sigma != tuple(range(1, n + 1))))
        seen.add(("scaled", any(witness.matrix_rows[i][i] != 1 for i in range(n))))
        seen.add(("components", min(len(table.components), 2)))
        if q > 5:
            seen.add(("large q", q, "j0", bool(table.j0)))
            seen.add(("large q", q, "components", min(len(table.components), 2)))
        for y in received_words(rng, q, n):
            expected = reference_decode(table, y)
            assert decode(table, y) == expected
            shifted = tuple(v + q * rng.randint(-3, 3) for v in y)
            assert decode(table, shifted) == expected
            negated = tuple(-v for v in y)
            assert decode(table, negated) == reference_decode(table, negated)
    assert seen == {
        ("q", 2), ("q", 3), ("q", 5), ("q", 7), ("q", 101),
        ("j0", False), ("j0", True),
        ("permuted", False), ("permuted", True),
        ("scaled", False), ("scaled", True),
        ("components", 1), ("components", 2),
        *(
            ("large q", q, key, value)
            for q in (7, 101)
            for key, value in (("j0", False), ("j0", True), ("components", 1), ("components", 2))
        ),
    }


def test_decode_reads_the_largest_digit():
    """Frame row 1 of all q - 1 on the 16-chain, against the word of all
    q - 1: its digit F_1 y = 16 (q - 1)^2 is the largest one can hold, and
    the digits of the coordinates j0 = {1, 4, ..., 16} follow it."""
    chain = Poset.chain(16)
    for q in (2, 3, 5, 7):
        rows = [[q - 1] * 16] + [[int(i == j) for j in range(16)] for i in range(1, 16)]
        witness = PIsometry(chain, q, range(1, 17), rows)
        code = LinearCode.from_generators(q, 16, [[0, 1, q - 1] + [0] * 13])
        dec = maximal_decomposition(witness.apply_code(code))
        table = build_table(PDecomposition(witness, dec, dec.complexity()), chain)
        assert table.j0 == (1, *range(4, 17))
        assert [c.rows for c in table.components] == [1]
        y = (q - 1,) * 16
        word, flags = decode(table, y)
        assert (word, flags) == reference_decode(table, y)
        assert flags == ((1,) if 16 % q else ()) + tuple(range(4, 17))
        assert code.contains(word)


def decoding_instance(draw):
    """A hypothesis draw: a nonzero code on a random poset, n <= 5 over
    GF(2) and n <= 4 over GF(3), so the primary search stays small."""
    q = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 5 if q == 2 else 4))
    labels = draw(st.permutations(range(1, n + 1)))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] < p[1]),
            max_size=2 * n,
        )
        if n > 1
        else st.just([])
    )
    rows = draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
            min_size=1,
            max_size=n,
        )
    )
    assume(any(any(row) for row in rows))
    poset = Poset.from_covers(n, [(labels[a - 1], labels[b - 1]) for a, b in pairs])
    return LinearCode.from_generators(q, n, rows), poset


def check_decoding(instance):
    code, poset = instance
    pd = primary_decomposition(code, poset)
    table = build_table(pd, poset)
    q, frame = code.q, pd.witness.matrix()
    exact = pd.dec.r == 1 and not pd.dec.j0
    for y in product(range(q), repeat=code.n):
        word, flags = decode(table, y)
        assert code.contains(word)
        z = apply_matrix(q, frame, y)
        assert flags == tuple(j for j in sorted(pd.dec.j0) if z[j - 1])
        if exact:
            error = tuple((a - b) % q for a, b in zip(y, word))
            assert pweight(poset, error) == nearest_codeword_oracle(code, poset, y)[1]


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_decoding_against_the_oracle():
    given(st.composite(decoding_instance)())(check_decoding)()
