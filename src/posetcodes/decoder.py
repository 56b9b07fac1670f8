"""Syndrome decoding with poset-weight coset leaders, componentwise over a
decomposition.

Each component keeps a table from syndromes to coset leaders of minimal
weight for the subposet induced on the component's support; the table
sizes add up to exactly the decomposition's complexity.  One scan finds
the leaders: it walks every vector of the component's support space,
q^(n_i) of them, so the coset budget bounds that walk, not the q^(n_i - k_i)
entries it keeps.  Received words are transported into the decomposed
frame by the decomposition's witness isometry, corrected per component,
and transported back, so the output is always a codeword of the original
code.
"""

from dataclasses import dataclass
from itertools import product

from .code import LinearCode, ParityData
from .errors import ResourceLimitError, ValidationError
from .isometry import apply_matrix, invert_matrix
from .metric import support_mask, weight_table
from .poset import Poset
from .search import PDecomposition

COSET_BUDGET = 1 << 20
AGREEMENT_BUDGET = 1 << 16


@dataclass(frozen=True)
class ComponentTable:
    """Coset leaders for one component inside its support space."""

    support: tuple
    parity: ParityData
    leaders: dict

    @property
    def entries(self) -> int:
        return len(self.leaders)


class SyndromeTable:
    __slots__ = ("pd", "q", "n", "j0", "components", "_frame", "_frame_inv")

    def __init__(self, pd: PDecomposition, components):
        self.pd = pd
        self.q = pd.dec.code.q
        self.n = pd.dec.code.n
        self.components = tuple(components)
        self.j0 = tuple(sorted(pd.dec.j0))
        self._frame = pd.witness.matrix()
        self._frame_inv = invert_matrix(self.q, self._frame)

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


def build_table(pd: PDecomposition, poset: Poset, coset_budget: int = COSET_BUDGET) -> SyndromeTable:
    """Scan every component's support space for the least-weight leader of
    each coset; ``coset_budget`` bounds the vectors scanned per component."""
    code = pd.dec.code
    if poset.n != code.n:
        raise ValidationError(f"poset size {poset.n} != code length {code.n}")
    tables = []
    for comp in pd.dec.components:
        coords = tuple(sorted(comp.support()))
        parity = comp.restrict(coords).parity_check()
        least = _least_weight_vectors(parity, poset.restrict(coords), coset_budget)
        tables.append(
            ComponentTable(coords, parity, {s: vec for s, (_, vec) in least.items()})
        )
    table = SyndromeTable(pd, tables)
    if table.total_entries != pd.complexity:
        raise AssertionError("table size disagrees with the decomposition complexity")
    return table


def decode(table: SyndromeTable, y) -> tuple:
    """Correct a received word; returns (codeword, flags).

    Flags are the distinguished coordinates of the decomposed frame where
    the transported word was nonzero: no codeword has support there, so
    those positions are detected but not correctable.
    """
    if len(y) != table.n:
        raise ValidationError(f"expected vector of length {table.n}, got {len(y)}")
    q = table.q
    z = apply_matrix(q, table._frame, [v % q for v in y])
    corrected = [0] * table.n
    for comp in table.components:
        local = tuple(z[j - 1] for j in comp.support)
        leader = comp.leaders[comp.parity.syndrome(local)]
        for j, zv, lv in zip(comp.support, local, leader):
            corrected[j - 1] = (zv - lv) % q
    flags = tuple(j for j in table.j0 if z[j - 1])
    codeword = apply_matrix(q, table._frame_inv, corrected)
    return codeword, flags


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
    if poset.n != code.n:
        raise ValidationError(f"poset size {poset.n} != code length {code.n}")
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
