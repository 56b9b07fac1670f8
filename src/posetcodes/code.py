"""Linear codes over GF(q) held in a canonical generator-matrix form.

The generator matrix is kept in reduced row echelon form with rows in
pivot-ascending order, so two inputs spanning the same subspace produce
identical objects and code equality is plain matrix equality.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .errors import ResourceLimitError, ValidationError
from .field import FieldSpec, check_entries

ENUMERATION_BUDGET = 1 << 20


def rref(q: int, n: int, rows):
    """Reduced row echelon form over GF(q); returns (rows, pivot columns).

    Entries are reduced mod q once, on entry, so negative or unreduced
    input is fine.  Zero rows are dropped; pivot columns are 1-based and
    ascending.  A pivot that is already 1 is not rescaled, and only rows
    with a non-zero entry in the pivot column are eliminated, so on a
    matrix already in this form only the entry pass does arithmetic.
    """
    mat = [[v % q for v in row] for row in rows]
    m = len(mat)
    pivots = []
    r = 0
    for col in range(n):
        if r == m:
            break
        for i in range(r, m):
            if mat[i][col]:
                break
        else:
            continue
        pivot_row = mat[i]
        mat[i] = mat[r]
        c = pivot_row[col]
        if c != 1:
            inv = pow(c, q - 2, q)
            pivot_row = [(v * inv) % q for v in pivot_row]
        mat[r] = pivot_row
        for i in range(m):
            c = mat[i][col]
            if c and i != r:
                mat[i] = [(a - c * b) % q for a, b in zip(mat[i], pivot_row)]
        pivots.append(col + 1)
        r += 1
    return tuple(map(tuple, mat[:r])), tuple(pivots)


@dataclass(frozen=True)
class ParityData:
    """Parity-check matrix H with rank n-k; syndromes separate cosets."""

    q: int
    n: int
    rows: tuple

    def syndrome(self, y) -> tuple:
        if len(y) != self.n:
            raise ValidationError(f"expected vector of length {self.n}, got {len(y)}")
        check_entries(y)
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
        """The code the rows span; the length and every entry must be an
        ``int`` (not a bool or a float), and ``rref`` reduces the entries."""
        FieldSpec(q)
        if type(n) is not int or n < 1:
            raise ValidationError(f"code length must be a positive integer, got {n!r}")
        row_list = [tuple(row) for row in rows]
        if not row_list:
            raise ValidationError("no generators given")
        for row in row_list:
            if len(row) != n:
                raise ValidationError(f"generator length {len(row)} != code length {n}")
            for v in row:
                if type(v) is not int:
                    raise ValidationError(f"generator entry {v!r} is not an integer")
        reduced, pivots = rref(q, n, row_list)
        if not reduced:
            raise ValidationError("generators span only the zero code")
        return cls(q, n, reduced, pivots)

    @property
    def k(self) -> int:
        return len(self.generators)

    def support(self) -> frozenset:
        return frozenset(j for j, column in enumerate(zip(*self.generators), 1) if any(column))

    def contains(self, x) -> bool:
        if len(x) != self.n:
            raise ValidationError(f"expected vector of length {self.n}, got {len(x)}")
        check_entries(x)
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
        return ParityData(self.q, self.n, _parity_rows(self.q, self.n, self.generators, self.pivots))

    def restrict(self, coords) -> "LinearCode":
        """The same code viewed on the coordinate set ``coords`` (ascending),
        valid only when every generator vanishes off ``coords``."""
        inside = set(coords)
        sub = sorted(inside)
        for j in sub:
            if type(j) is not int or not 1 <= j <= self.n:
                raise ValidationError(f"coordinate {j!r} not in [{self.n}]")
        outside = [j for j in range(1, self.n + 1) if j not in inside]
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
        """A code from a document with exactly the keys q, n and generators,
        the last a list of lists."""
        if (
            not isinstance(data, dict)
            or data.keys() != {"q", "n", "generators"}
            or not isinstance(data["generators"], list)
            or not all(isinstance(row, list) for row in data["generators"])
        ):
            raise ValidationError(f"malformed code document: {data!r}")
        try:
            return cls.from_generators(data["q"], data["n"], data["generators"])
        except TypeError as exc:
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


def _parity_rows(q: int, n: int, generators, pivots) -> tuple:
    """The rows of H on the RREF complement of canonical ``generators`` with
    the 1-based ``pivots``: one row per free column f, 1 at f and minus
    each row's entry at f at that row's pivot, so H has rank n - k."""
    pivot_set = set(pivots)
    rows = []
    for free in range(1, n + 1):
        if free in pivot_set:
            continue
        h = [0] * n
        h[free - 1] = 1
        for idx, pivot in enumerate(pivots):
            h[pivot - 1] = (-generators[idx][free - 1]) % q
        rows.append(tuple(h))
    return tuple(rows)


def _check_length(code: LinearCode, poset) -> None:
    """Refuse a poset whose size is not the code's length."""
    if poset.n != code.n:
        raise ValidationError(f"poset size {poset.n} != code length {code.n}")


def enumerate_codes(q: int, n: int, k: int):
    """All k-dimensional codes of length n over GF(q), sorted by generator matrix.

    Enumerates canonical RREF matrices directly: pick pivot columns, fill the
    free positions.
    """
    FieldSpec(q)
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
            matrices.append((tuple(tuple(r) for r in rows), pivots))
    matrices.sort()  # by matrix alone, as no two are equal
    for mat, pivots in matrices:
        yield LinearCode(q, n, mat, pivots)
