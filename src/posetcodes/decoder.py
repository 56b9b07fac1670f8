"""Syndrome decoding with poset-weight coset leaders, componentwise over a
decomposition.

Each component keeps a table from syndromes to coset leaders of minimal
weight for the subposet induced on the component's support; the table
sizes add up to exactly the decomposition's complexity.  One scan finds
the leaders: it walks every vector of the component's support space,
q^(n_i) of them, so the coset budget bounds that walk, not the q^(n_i - k_i)
entries it keeps.

Decoding is linear in the witness frame F, so a received word y is never
transported: F^-1(F y - e) = y - F^-1 e.  Each component's parity rows
are composed with F once per table, so its syndrome is read off y
directly, and each leader e is stored with its correction F^-1 e, one per
coset.  The coordinates j0 off the decomposed code's support form the
zeroth component: wherever F_j y is nonzero there, j is flagged and that
value times column j of F^-1 is subtracted too.  The output is always a
codeword of the original code.
"""

from dataclasses import dataclass
from itertools import product
from operator import mul, sub

from .code import LinearCode, ParityData, _check_length
from .errors import ResourceLimitError, ValidationError
from .isometry import invert_matrix
from .metric import support_mask, weight_table
from .poset import Poset
from .search import PDecomposition

COSET_BUDGET = 1 << 20
AGREEMENT_BUDGET = 1 << 16


@dataclass(frozen=True)
class ComponentTable:
    """Coset leaders for one component inside its support space, with the
    same syndromes read off a received word in its own frame.

    ``checks`` are the component's parity rows composed with the frame's
    rows on ``support``: they act on the received word directly.
    ``corrections`` maps each syndrome to its leader taken back through
    the frame's inverse, a vector of length n.
    """

    support: tuple
    leaders: dict
    checks: tuple
    corrections: dict

    @property
    def entries(self) -> int:
        return len(self.leaders)


class SyndromeTable:
    """The component tables plus, for each j in j0, the frame's row j and
    its inverse's column j: (j, F_j, F^-1[:, j])."""

    __slots__ = ("pd", "q", "n", "j0", "components", "j0_frame")

    def __init__(self, pd: PDecomposition, components, j0_frame):
        self.pd = pd
        self.q = pd.dec.code.q
        self.n = pd.dec.code.n
        self.components = tuple(components)
        self.j0 = tuple(sorted(pd.dec.j0))
        self.j0_frame = tuple(j0_frame)

    @property
    def total_entries(self) -> int:
        return sum(c.entries for c in self.components)


def _least_weight_vectors(parity: ParityData, poset: Poset, budget: int) -> dict:
    """Each syndrome of ``parity`` mapped to (weight, vector) for its least
    poset weight over GF(q)^m, ties to the lexicographically smallest
    vector.  Refuses, before it starts, a space of more than ``budget``
    vectors."""
    q, m = parity.q, parity.n
    if q**m > budget:
        raise ResourceLimitError(
            f"coset-leader scan of {q}^{m} vectors exceeds budget {budget}"
        )
    weights = weight_table(poset)
    least = {}
    for vec in product(range(q), repeat=m):
        syndrome = parity.syndrome(vec)
        w = weights[support_mask(vec)]
        known = least.get(syndrome)
        if known is None or w < known[0]:
            least[syndrome] = (w, vec)
    return least


def _combine(q: int, n: int, coeffs, vectors) -> tuple:
    """sum(c * v) mod q over paired coefficients and length-n vectors."""
    out = [0] * n
    for c, vec in zip(coeffs, vectors):
        if c:
            out = [a + c * b for a, b in zip(out, vec)]
    return tuple(a % q for a in out)


def build_table(pd: PDecomposition, poset: Poset, coset_budget: int = COSET_BUDGET) -> SyndromeTable:
    """Scan every component's support space for the least-weight leader of
    each coset; ``coset_budget`` bounds the vectors scanned per component."""
    code = pd.dec.code
    _check_length(code, poset)
    if pd.witness.poset != poset:
        raise ValidationError("the decomposition's witness acts on a different poset")
    q, n = code.q, code.n
    frame = pd.witness.matrix()
    columns = tuple(zip(*invert_matrix(q, frame)))
    tables = []
    for comp in pd.dec.components:
        coords = tuple(sorted(comp.support()))
        parity = comp.restrict(coords).parity_check()
        least = _least_weight_vectors(parity, poset.restrict(coords), coset_budget)
        leaders = {s: vec for s, (_, vec) in least.items()}
        checks = tuple(
            _combine(q, n, row, (frame[j - 1] for j in coords)) for row in parity.rows
        )
        corrections = {
            s: _combine(q, n, vec, (columns[j - 1] for j in coords))
            for s, vec in leaders.items()
        }
        tables.append(ComponentTable(coords, leaders, checks, corrections))
    j0_frame = tuple((j, frame[j - 1], columns[j - 1]) for j in sorted(pd.dec.j0))
    table = SyndromeTable(pd, tables, j0_frame)
    if table.total_entries != pd.complexity:
        raise AssertionError("table size disagrees with the decomposition complexity")
    return table


def decode(table: SyndromeTable, y) -> tuple:
    """Correct a received word; returns (codeword, flags).

    Each component's syndrome is read off ``y`` by its composed check rows
    and its pre-transported correction is subtracted from ``y``.  Flags
    are the distinguished coordinates j of the decomposed frame where
    F_j y is nonzero: no codeword has support there, so those positions
    are detected, not corrected, and F_j y times column j of F^-1 is
    subtracted as well.
    """
    if len(y) != table.n:
        raise ValidationError(f"expected vector of length {table.n}, got {len(y)}")
    q = table.q
    word = y
    for comp in table.components:
        syndrome = tuple([sum(map(mul, row, y)) % q for row in comp.checks])
        word = list(map(sub, word, comp.corrections[syndrome]))
    flags = []
    for j, row, column in table.j0_frame:
        f = sum(map(mul, row, y)) % q
        if f:
            flags.append(j)
            word = [w - f * c for w, c in zip(word, column)]
    return tuple([w % q for w in word]), tuple(flags)


def table_stats(table: SyndromeTable) -> dict:
    per_component = [
        {"support": list(c.support), "entries": c.entries} for c in table.components
    ]
    return {
        "per_component": per_component,
        "total": table.total_entries,
        "complexity": table.pd.complexity,
        "matches_complexity": table.total_entries == table.pd.complexity,
    }


def agreement_rate(table: SyndromeTable, code: LinearCode, poset: Poset) -> float:
    """Fraction of received words for which decoding attains the true minimum
    distance, the least weight in the word's coset, from the same scan as a
    table build over the whole space of at most ``AGREEMENT_BUDGET``
    vectors."""
    _check_length(code, poset)
    parity = code.parity_check()
    least = _least_weight_vectors(parity, poset, AGREEMENT_BUDGET)
    weights = weight_table(poset)
    q = code.q
    hits = 0
    for y in product(range(q), repeat=code.n):
        decoded, _ = decode(table, y)
        achieved = weights[support_mask([(a - b) % q for a, b in zip(y, decoded)])]
        hits += achieved == least[parity.syndrome(y)][0]
    return hits / q**code.n
