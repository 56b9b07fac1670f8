"""The linear isometry group of a poset space: permutation and triangular parts.

An isometry is a pair (sigma, A): sigma an order automorphism acting by
``T_sigma(v)_i = v[sigma(i)]``, and A an invertible matrix over GF(q)
whose entry (i, j) may be nonzero only when i is below j in the poset,
acting on column vectors.  The composite map is T(x) = T_sigma(A x); the
pattern constraint plus a nonzero diagonal makes A triangular in any
linear extension, hence invertible.
"""

from itertools import product

from .code import ENUMERATION_BUDGET, LinearCode, rref
from .errors import ResourceLimitError, ValidationError
from .field import FieldSpec
from .metric import pweight
from .poset import Poset


def _eye(n: int) -> tuple:
    """The n x n identity matrix as a tuple of rows."""
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class PIsometry:
    __slots__ = ("poset", "q", "sigma", "matrix_rows", "_hash")

    def __init__(self, poset: Poset, q: int, sigma, matrix_rows):
        field = FieldSpec(q)
        n = poset.n
        sig = tuple(sigma)
        if sorted(sig) != list(range(1, n + 1)):
            raise ValidationError(f"{sig!r} is not a permutation of [{n}]")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if poset.leq(i, j) != poset.leq(sig[i - 1], sig[j - 1]):
                    raise ValidationError(
                        f"permutation {sig!r} is not an order automorphism"
                    )
        rows = tuple(tuple(field.normalize(v) for v in row) for row in matrix_rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValidationError(f"matrix must be {n}x{n}")
        for i in range(n):
            if rows[i][i] == 0:
                raise ValidationError("matrix diagonal entries must be nonzero")
            for j in range(n):
                if i != j and rows[i][j] and not poset.leq(i + 1, j + 1):
                    raise ValidationError(
                        f"matrix entry ({i + 1},{j + 1}) must vanish: "
                        f"{i + 1} is not below {j + 1}"
                    )
        self.poset = poset
        self.q = q
        self.sigma = sig
        self.matrix_rows = rows
        self._hash = hash((poset, q, sig, rows))

    @classmethod
    def identity(cls, poset: Poset, q: int) -> "PIsometry":
        return cls(poset, q, tuple(range(1, poset.n + 1)), _eye(poset.n))

    def is_identity(self) -> bool:
        n = self.poset.n
        return self.sigma == tuple(range(1, n + 1)) and self.matrix_rows == _eye(n)

    def apply(self, x) -> tuple:
        if len(x) != self.poset.n:
            raise ValidationError(f"expected vector of length {self.poset.n}")
        ax = apply_matrix(self.q, self.matrix_rows, x)
        return tuple(ax[s - 1] for s in self.sigma)

    def apply_code(self, code: LinearCode) -> LinearCode:
        if code.q != self.q or code.n != self.poset.n:
            raise ValidationError("code does not match the isometry's space")
        return LinearCode.from_generators(
            code.q, code.n, [self.apply(row) for row in code.generators]
        )

    def matrix(self) -> tuple:
        """The composite map as a single matrix acting on column vectors."""
        return tuple(self.matrix_rows[s - 1] for s in self.sigma)

    def to_json_dict(self) -> dict:
        return {"sigma": list(self.sigma), "A": [list(r) for r in self.matrix_rows]}

    @classmethod
    def from_json_dict(cls, poset: Poset, q: int, data: dict) -> "PIsometry":
        try:
            return cls(poset, q, data["sigma"], data["A"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed isometry document: {data!r}") from exc

    def __eq__(self, other):
        return (
            isinstance(other, PIsometry)
            and self.poset == other.poset
            and self.q == other.q
            and self.sigma == other.sigma
            and self.matrix_rows == other.matrix_rows
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PIsometry(sigma={self.sigma}, A={list(self.matrix_rows)})"


def group_size(poset: Poset, q: int) -> int:
    """|Aut(P)| * (q-1)^n * q^(number of strict pairs)."""
    FieldSpec(q)
    strict = sum(
        1
        for i in range(1, poset.n + 1)
        for j in range(1, poset.n + 1)
        if i != j and poset.leq(i, j)
    )
    return poset.automorphisms()[1] * (q - 1) ** poset.n * q**strict


def matrix_rank(q: int, rows) -> int:
    reduced, _ = rref(q, len(rows[0]), rows)
    return len(reduced)


def invert_matrix(q: int, rows) -> tuple:
    """Inverse of a square matrix over GF(q) by Gaussian elimination."""
    n = len(rows)
    aug = [list(row) + list(unit) for row, unit in zip(rows, _eye(n))]
    reduced, pivots = rref(q, 2 * n, aug)
    if len(reduced) != n or pivots != tuple(range(1, n + 1)):
        raise ValidationError("matrix is not invertible")
    return tuple(tuple(row[n:]) for row in reduced)


def apply_matrix(q: int, rows, x) -> tuple:
    return tuple(sum(a * v for a, v in zip(row, x)) % q for row in rows)


def verify_isometry(poset: Poset, q: int, matrix_rows) -> bool:
    """Check an arbitrary linear map for invertibility and weight
    preservation on every vector of GF(q)^n; a space of more than
    ``ENUMERATION_BUDGET`` vectors is refused before the check starts."""
    field = FieldSpec(q)
    n = poset.n
    rows = tuple(tuple(field.normalize(v) for v in row) for row in matrix_rows)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValidationError(f"matrix must be {n}x{n}")
    if q**n > ENUMERATION_BUDGET:
        raise ResourceLimitError(
            f"isometry check over {q}^{n} vectors exceeds budget {ENUMERATION_BUDGET}"
        )
    if matrix_rank(q, rows) != n:
        return False
    for x in product(range(q), repeat=n):
        if pweight(poset, apply_matrix(q, rows, x)) != pweight(poset, x):
            return False
    return True
