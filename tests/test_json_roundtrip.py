"""JSON round-trips on hypothesis draws: a poset, a code, an isometry and a
maximal decomposition, each written by ``to_json_dict``, passed through
``json.dumps`` and ``json.loads``, and read back by the public readers.  A
decomposition has no reader of its own; it is rebuilt from its code and
its components' generator rows, which is what its document holds."""

import json

import pytest

from posetcodes.code import LinearCode
from posetcodes.decomposition import Decomposition, maximal_decomposition
from posetcodes.isometry import PIsometry
from posetcodes.poset import Poset

try:
    from hypothesis import assume, given, strategies as st
except ImportError:  # the round-trips are property tests and need hypothesis
    given = None


def through_json(document):
    return json.loads(json.dumps(document))


def instance(draw):
    """A hypothesis draw: a random poset on 1 <= n <= 6 points, a nonzero
    code on it over GF(2), GF(3) or GF(5), and an isometry of the poset:
    a product of generators of Aut(P) and a matrix with nonzero diagonal
    and entries only where i is below j."""
    q = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 6))
    labels = draw(st.permutations(range(1, n + 1)))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] < p[1]),
            max_size=2 * n,
        )
    )
    poset = Poset.from_covers(n, [(labels[a - 1], labels[b - 1]) for a, b in pairs])
    rows = draw(
        st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=1, max_size=3)
    )
    assume(any(any(row) for row in rows))
    sigma = tuple(range(1, n + 1))
    generators = poset.automorphisms()[0]
    if generators:
        for g in draw(st.lists(st.sampled_from(generators), max_size=3)):
            sigma = tuple(sigma[i - 1] for i in g)
    matrix = [
        [
            draw(st.integers(1, q - 1)) if i == j
            else draw(st.integers(0, q - 1)) if poset.leq(i + 1, j + 1)
            else 0
            for j in range(n)
        ]
        for i in range(n)
    ]
    return poset, LinearCode.from_generators(q, n, rows), PIsometry(poset, q, sigma, matrix)


def check_round_trips(drawn):
    poset, code, isometry = drawn
    assert Poset.from_json_dict(through_json(poset.to_json_dict())) == poset
    assert LinearCode.from_json_dict(through_json(code.to_json_dict())) == code
    q = code.q
    document = through_json(isometry.to_json_dict())
    assert PIsometry.from_json_dict(poset, q, document) == isometry
    dec = maximal_decomposition(isometry.apply_code(code))
    document = through_json(dec.to_json_dict())
    rebuilt = Decomposition(
        LinearCode.from_json_dict(document["code"]),
        [
            LinearCode.from_generators(q, code.n, component["generators"])
            for component in document["components"]
        ],
    )
    assert rebuilt == dec
    assert rebuilt.to_json_dict() == document


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_json_round_trips():
    """Each object reads back equal to itself, and the decomposition
    writes the same document again."""
    given(st.composite(instance)())(check_round_trips)()
