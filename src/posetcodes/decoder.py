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
are composed with F once per table, and so are the frame rows F_j of the
coordinates j0 off the decomposed code's support, the zeroth component.
Every such row is one digit of width b = bit length of n (q - 1)^2, and
column j of all of them is packed into one int, so one sum of y_j times
column j reads every syndrome and every F_j y at once: with y reduced
into [0, q) no digit carries into the next.  A component's syndrome, its
digits mod q read as a base-q number, indexes its correction -F^-1 e,
one per coset.  Wherever F_j y is nonzero on j0, j is flagged and that
value times -F^-1[:, j] is added too.  The output is always a codeword of
the original code.
"""

from dataclasses import dataclass
from itertools import product, repeat
from operator import add, mul, neg

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
    """Coset leaders for one component inside its support space, and the
    corrections that a received word's packed syndrome picks in its own
    frame.

    ``leaders`` maps each syndrome of the component's parity rows to its
    leader on ``support``.  ``rows`` counts those parity rows, n_i - k_i,
    one digit each of the packed syndrome.  ``corrections`` holds the
    q^rows negated leaders taken back through the frame's inverse,
    vectors of length n with entries in [0, q), at the index of their
    syndrome read as a base-q number, the first row most significant.
    """

    support: tuple
    leaders: dict
    rows: int
    corrections: tuple

    @property
    def entries(self) -> int:
        return len(self.leaders)


class SyndromeTable:
    """The component tables and the packed read of a received word:
    ``columns[j - 1]`` is column j of every component's composed parity
    rows, then of the frame rows F_j for j in j0, each row one digit of
    ``width`` bits, the first row least significant.  ``j0_corrections``
    holds, for each j in j0, (j, -F^-1[:, j] mod q)."""

    __slots__ = ("pd", "q", "n", "j0", "components", "columns", "width", "j0_corrections")

    def __init__(self, pd: PDecomposition, components, checks, j0_corrections):
        self.pd = pd
        self.q = q = pd.dec.code.q
        self.n = n = pd.dec.code.n
        self.components = tuple(components)
        self.j0 = tuple(sorted(pd.dec.j0))
        self.j0_corrections = tuple(j0_corrections)
        # Rows and words have entries in [0, q), so no digit exceeds n (q - 1)^2.
        self.width = width = (n * (q - 1) ** 2).bit_length()
        self.columns = tuple(
            sum(row[j] << (width * r) for r, row in enumerate(checks)) for j in range(n)
        )

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
    inverse = tuple(zip(*invert_matrix(q, frame)))  # the columns of F^-1
    checks = []
    tables = []
    for comp in pd.dec.components:
        coords = tuple(sorted(comp.support()))
        parity = comp.restrict(coords).parity_check()
        least = _least_weight_vectors(parity, poset.restrict(coords), coset_budget)
        leaders = {s: vec for s, (_, vec) in least.items()}
        checks.extend(
            _combine(q, n, row, (frame[j - 1] for j in coords)) for row in parity.rows
        )
        rows = len(parity.rows)
        corrections = tuple(
            _combine(q, n, map(neg, leaders[s]), (inverse[j - 1] for j in coords))
            for s in product(range(q), repeat=rows)
        )
        tables.append(ComponentTable(coords, leaders, rows, corrections))
    j0 = sorted(pd.dec.j0)
    checks.extend(frame[j - 1] for j in j0)
    j0_corrections = tuple((j, tuple(-c % q for c in inverse[j - 1])) for j in j0)
    table = SyndromeTable(pd, tables, checks, j0_corrections)
    if table.total_entries != pd.complexity:
        raise AssertionError("table size disagrees with the decomposition complexity")
    return table


def decode(table: SyndromeTable, y) -> tuple:
    """Correct a received word; returns (codeword, flags).

    One packed sum over ``y`` reads every component's syndrome, which
    picks the component's correction, added to ``y``.  Flags are the
    distinguished coordinates j of the decomposed frame where F_j y is
    nonzero: no codeword has support there, so those positions are
    detected, not corrected, and F_j y times -F^-1[:, j] is added as well.
    """
    if len(y) != table.n:
        raise ValidationError(f"expected vector of length {table.n}, got {len(y)}")
    q, width = table.q, table.width
    if min(y) < 0 or max(y) >= q:
        y = [v % q for v in y]
    packed = sum(map(mul, table.columns, y))
    mask = (1 << width) - 1
    word = y
    for comp in table.components:
        index = 0
        for _ in range(comp.rows):
            index = index * q + (packed & mask) % q
            packed >>= width
        if index:
            word = list(map(add, word, comp.corrections[index]))
    flags = []
    for j, correction in table.j0_corrections:
        f = (packed & mask) % q
        packed >>= width
        if f:
            flags.append(j)
            word = list(map(add, word, map(mul, correction, repeat(f))))
    if word is y:  # nothing added: y is already reduced
        return tuple(y), ()
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
