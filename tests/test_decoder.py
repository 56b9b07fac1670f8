import json
import random
from itertools import product

import pytest

from posetcodes.code import LinearCode
from posetcodes.decomposition import maximal_decomposition, trivial_decomposition
from posetcodes.decoder import (
    agreement_rate,
    build_table,
    decode,
    nearest_codeword_oracle,
    pack_vector,
    table_stats,
)
from posetcodes.errors import ResourceLimitError, ValidationError
from posetcodes.isometry import PIsometry
from posetcodes.poset import Poset
from posetcodes.search import PDecomposition, primary_decomposition
from posetcodes.suites import random_code, random_poset

from helpers import reference_agreement_rate

N_POSET = Poset.from_covers(4, [(1, 3), (1, 4), (2, 4)])
R4 = LinearCode.from_generators(2, 4, [(1, 1, 1, 1)])


def identity_pd(code, poset, dec=None):
    dec = dec if dec is not None else trivial_decomposition(code)
    return PDecomposition(
        PIsometry.identity(poset, code.q), dec, dec.complexity()
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
    from posetcodes.metric import pweight

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


def test_table_json_export():
    anti = Poset.antichain(4)
    table = build_table(identity_pd(R4, anti), anti)
    doc = table.to_json_dict()
    assert doc["total_entries"] == 8
    assert len(doc["components"]) == 1
    entries = doc["components"][0]["entries"]
    assert len(entries) == 8
    assert all(len(leader) == 4 for leader in entries.values())
    json.dumps(doc)


def test_pack_vector():
    assert pack_vector((1, 0, 2, 11)) == "102b"
    assert pack_vector(()) == ""


def test_decode_length_validation():
    anti = Poset.antichain(4)
    table = build_table(identity_pd(R4, anti), anti)
    with pytest.raises(ValidationError):
        decode(table, (1, 0))
