"""Linear codes over GF(q) held in a canonical generator-matrix form.

The generator matrix is kept in reduced row echelon form with rows in
pivot-ascending order, so two inputs spanning the same subspace produce
identical objects and code equality is plain matrix equality.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .errors import ResourceLimitError, ValidationError
from .field import FieldSpec

ENUMERATION_BUDGET = 1 << 20


def rref(q: int, n: int, rows):
    """Reduced row echelon form over GF(q); returns (rows, pivot columns).

    Zero rows are dropped; pivot columns are 1-based and ascending.
    """
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col] % q), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = pow(mat[r][col] % q, q - 2, q)
        mat[r] = [(v * inv) % q for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] % q:
                c = mat[i][col]
                mat[i] = [(a - c * b) % q for a, b in zip(mat[i], mat[r])]
        pivots.append(col + 1)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(v % q for v in mat[i]) for i in range(r)), tuple(pivots)


@dataclass(frozen=True)
class ParityData:
    """Parity-check matrix H with rank n-k; syndromes separate cosets."""

    q: int
    n: int
    rows: tuple

    def syndrome(self, y) -> tuple:
        if len(y) != self.n:
            raise ValidationError(f"expected vector of length {self.n}, got {len(y)}")
        return tuple(sum(h * v for h, v in zip(row, y)) % self.q for row in self.rows)


class LinearCode:
    __slots__ = ("q", "n", "generators", "pivots", "_hash")

    def __init__(self, q, n, generators, pivots):
        self.q = q
        self.n = n
        self.generators = generators
        self.pivots = pivots
        self._hash = hash((q, n, generators))

    @classmethod
    def from_generators(cls, q: int, n: int, rows) -> "LinearCode":
        field = FieldSpec(q)
        if not isinstance(n, int) or n < 1:
            raise ValidationError(f"code length must be a positive integer, got {n!r}")
        row_list = [tuple(field.normalize(v) for v in row) for row in rows]
        if not row_list:
            raise ValidationError("no generators given")
        for row in row_list:
            if len(row) != n:
                raise ValidationError(f"generator length {len(row)} != code length {n}")
        reduced, pivots = rref(q, n, row_list)
        if not reduced:
            raise ValidationError("generators span only the zero code")
        return cls(q, n, reduced, pivots)

    @property
    def k(self) -> int:
        return len(self.generators)

    @property
    def field(self) -> FieldSpec:
        return FieldSpec(self.q)

    def support(self) -> frozenset:
        return frozenset(
            j + 1 for j in range(self.n) if any(row[j] for row in self.generators)
        )

    def contains(self, x) -> bool:
        if len(x) != self.n:
            raise ValidationError(f"expected vector of length {self.n}, got {len(x)}")
        q = self.q
        y = [v % q for v in x]
        for row, pivot in zip(self.generators, self.pivots):
            c = y[pivot - 1]
            if c:
                y = [(a - c * b) % q for a, b in zip(y, row)]
        return not any(y)

    def size(self) -> int:
        return self.q ** self.k

    def codewords(self):
        """All q^k codewords, in lexicographic message order."""
        if self.size() > ENUMERATION_BUDGET:
            raise ResourceLimitError(
                f"codeword enumeration of size {self.q}^{self.k} exceeds budget {ENUMERATION_BUDGET}"
            )
        q, n = self.q, self.n
        for message in product(range(q), repeat=self.k):
            word = [0] * n
            for coeff, row in zip(message, self.generators):
                if coeff:
                    for j in range(n):
                        word[j] = (word[j] + coeff * row[j]) % q
            yield tuple(word)

    def parity_check(self) -> ParityData:
        """H from the standard construction on the RREF complement; H c = 0 on the code."""
        q, n = self.q, self.n
        pivot_set = set(self.pivots)
        rows = []
        for free in range(1, n + 1):
            if free in pivot_set:
                continue
            h = [0] * n
            h[free - 1] = 1
            for idx, pivot in enumerate(self.pivots):
                h[pivot - 1] = (-self.generators[idx][free - 1]) % q
            rows.append(tuple(h))
        return ParityData(q, n, tuple(rows))

    def restrict(self, coords) -> "LinearCode":
        """The same code viewed on the coordinate set ``coords`` (ascending),
        valid only when every generator vanishes off ``coords``."""
        sub = sorted(set(coords))
        outside = [j for j in range(1, self.n + 1) if j not in set(sub)]
        for row in self.generators:
            if any(row[j - 1] for j in outside):
                raise ValidationError("code is not supported inside the given coordinates")
        rows = tuple(tuple(row[j - 1] for j in sub) for row in self.generators)
        pivots = tuple(sub.index(p) + 1 for p in self.pivots)
        return LinearCode(self.q, len(sub), rows, pivots)

    def to_json_dict(self) -> dict:
        return {"q": self.q, "n": self.n, "generators": [list(r) for r in self.generators]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "LinearCode":
        try:
            return cls.from_generators(data["q"], data["n"], data["generators"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed code document: {data!r}") from exc

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.q == other.q
            and self.n == other.n
            and self.generators == other.generators
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"LinearCode(q={self.q}, n={self.n}, generators={list(self.generators)})"


def enumerate_codes(q: int, n: int, k: int):
    """All k-dimensional codes of length n over GF(q), sorted by generator matrix.

    Enumerates canonical RREF matrices directly: pick pivot columns, fill the
    free positions.
    """
    if not 1 <= k <= n:
        raise ValidationError(f"dimension must satisfy 1 <= k <= n, got k={k}, n={n}")
    total = sum(1 for _ in combinations(range(n), k)) * q ** (k * (n - k))
    if total > ENUMERATION_BUDGET:
        raise ResourceLimitError(f"code enumeration of size ~{total} exceeds budget")
    matrices = []
    for pivots in combinations(range(1, n + 1), k):
        pivot_set = set(pivots)
        free_positions = [
            (i, j)
            for i in range(k)
            for j in range(1, n + 1)
            if j not in pivot_set and j > pivots[i]
        ]
        for values in product(range(q), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p - 1] = 1
            for (i, j), v in zip(free_positions, values):
                rows[i][j - 1] = v
            matrices.append(tuple(tuple(r) for r in rows))
    matrices.sort()
    for mat in matrices:
        yield LinearCode(q, n, mat, tuple(sorted(
            next(j + 1 for j in range(n) if row[j]) for row in mat
        )))
