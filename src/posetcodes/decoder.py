"""Syndrome decoding with poset-weight coset leaders, componentwise over a
decomposition.

Each component keeps a table from syndromes to coset leaders of minimal
weight for the subposet induced on the component's support; the table
sizes add up to exactly the decomposition's complexity.  Received words
are transported into the decomposed frame by the decomposition's witness
isometry, corrected per component, and transported back, so the output is
always a codeword of the original code.
"""

from dataclasses import dataclass
from itertools import product

from .code import LinearCode, ParityData
from .errors import ResourceLimitError, ValidationError
from .field import FieldSpec
from .isometry import apply_matrix, invert_matrix
from .metric import pweight, support_mask, weight_table
from .poset import Poset
from .search import PDecomposition

COSET_BUDGET = 1 << 20
ORACLE_BUDGET = 1 << 16


@dataclass(frozen=True)
class ComponentTable:
    """Coset leaders for one component inside its support space."""

    support: tuple
    local_code: LinearCode
    parity: ParityData
    leaders: dict

    @property
    def entries(self) -> int:
        return len(self.leaders)


class SyndromeTable:
    __slots__ = ("pd", "poset", "q", "n", "j0", "components", "_frame", "_frame_inv")

    def __init__(self, pd: PDecomposition, poset: Poset, components, j0):
        self.pd = pd
        self.poset = poset
        self.q = pd.dec.code.q
        self.n = pd.dec.code.n
        self.components = tuple(components)
        self.j0 = tuple(sorted(j0))
        self._frame = pd.witness.matrix()
        self._frame_inv = invert_matrix(self.q, self._frame)

    @property
    def total_entries(self) -> int:
        return sum(c.entries for c in self.components)

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "witness": self.pd.witness.to_json_dict(),
            "j0": list(self.j0),
            "total_entries": self.total_entries,
            "complexity": self.pd.complexity,
            "components": [
                {
                    "support": list(c.support),
                    "entries": {
                        pack_vector(syndrome): pack_vector(leader)
                        for syndrome, leader in sorted(c.leaders.items())
                    },
                }
                for c in self.components
            ],
        }


def pack_vector(vec) -> str:
    """Hex packing, one digit per coordinate; fine for q < 16."""
    return "".join(format(v, "x") for v in vec)


def build_table(pd: PDecomposition, poset: Poset, coset_budget: int = COSET_BUDGET) -> SyndromeTable:
    """Enumerate the cosets of every component inside its support space and
    record the minimum-weight representative of each, ties to the
    lexicographically smallest vector."""
    code = pd.dec.code
    if poset.n != code.n:
        raise ValidationError(f"poset size {poset.n} != code length {code.n}")
    q = code.q
    tables = []
    for comp in pd.dec.components:
        coords = tuple(sorted(comp.support()))
        local_code = comp.restrict(coords)
        local_poset = poset.restrict(coords)
        n_i, k_i = len(coords), local_code.k
        if q ** (n_i - k_i) > coset_budget:
            raise ResourceLimitError(
                f"component with {q}^{n_i - k_i} cosets exceeds budget {coset_budget}"
            )
        parity = local_code.parity_check()
        weights = weight_table(local_poset)
        leaders = {}
        for vec in product(range(q), repeat=n_i):
            syndrome = parity.syndrome(vec)
            w = weights[support_mask(vec)]
            known = leaders.get(syndrome)
            if known is None or w < known[0]:
                leaders[syndrome] = (w, vec)
        tables.append(
            ComponentTable(
                coords,
                local_code,
                parity,
                {syndrome: vec for syndrome, (w, vec) in leaders.items()},
            )
        )
    table = SyndromeTable(pd, poset, tables, pd.dec.j0)
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
    field = FieldSpec(table.q)
    z = apply_matrix(table.q, table._frame, [field.normalize(v) for v in y])
    corrected = [0] * table.n
    for comp in table.components:
        local = tuple(z[j - 1] for j in comp.support)
        leader = comp.leaders[comp.parity.syndrome(local)]
        for j, zv, lv in zip(comp.support, local, leader):
            corrected[j - 1] = (zv - lv) % table.q
    flags = tuple(j for j in table.j0 if z[j - 1])
    codeword = apply_matrix(table.q, table._frame_inv, corrected)
    return codeword, flags


def nearest_codeword_oracle(code: LinearCode, poset: Poset, y) -> tuple:
    """Exact minimum-distance decoding by full enumeration; ties are broken
    towards the lexicographically smallest error pattern.  Returns
    (codeword, distance)."""
    if poset.n != code.n:
        raise ValidationError(f"poset size {poset.n} != code length {code.n}")
    if code.size() > ORACLE_BUDGET:
        raise ResourceLimitError(
            f"oracle enumeration of {code.q}^{code.k} codewords exceeds budget"
        )
    if len(y) != code.n:
        raise ValidationError(f"expected vector of length {code.n}, got {len(y)}")
    q = code.q
    best = None
    for word in code.codewords():
        error = tuple((v - w) % q for v, w in zip(y, word))
        candidate = (pweight(poset, error), error, word)
        if best is None or candidate < best:
            best = candidate
    distance, _, word = best
    return word, distance


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
    distance, the least weight in the word's coset, found for every syndrome
    in one pass over the space."""
    if poset.n != code.n:
        raise ValidationError(f"poset size {poset.n} != code length {code.n}")
    q, n = code.q, code.n
    if q**n > ORACLE_BUDGET:
        raise ResourceLimitError("agreement measurement space exceeds budget")
    parity = code.parity_check()
    weights = weight_table(poset)
    least = {}
    for e in product(range(q), repeat=n):
        syndrome = parity.syndrome(e)
        w = weights[support_mask(e)]
        if w < least.get(syndrome, n + 1):
            least[syndrome] = w
    hits = 0
    total = 0
    for y in product(range(q), repeat=n):
        decoded, _ = decode(table, y)
        achieved = weights[support_mask([(a - b) % q for a, b in zip(y, decoded)])]
        hits += achieved == least[parity.syndrome(y)]
        total += 1
    return hits / total
