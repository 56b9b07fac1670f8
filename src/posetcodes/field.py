"""Arithmetic in prime fields GF(q) and on vectors of residues.

Residues are stored canonically in ``[0, q)`` and vectors are plain tuples
of residues, so equality and hashing are exact and cheap.  Only prime
moduli are supported; extension fields would need polynomial arithmetic
that nothing here requires.
"""

from dataclasses import dataclass
from functools import cache
from math import isqrt

from .errors import ResourceLimitError, ValidationError

# Primality is tested by trial division on every FieldSpec, about
# sqrt(q) / 2 steps: some 500 at this maximum.
MAX_MODULUS = 1 << 20


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


@cache  # one entry per prime field, each a trial search
def primitive_root(q: int) -> int:
    """The least generator of the multiplicative group of the prime field
    GF(q): the least g with g^e != 1 for each proper divisor e of q - 1."""
    small = [e for e in range(1, isqrt(q - 1) + 1) if (q - 1) % e == 0]
    exponents = {f for e in small for f in (e, (q - 1) // e)} - {q - 1}
    return next(g for g in range(1, q) if all(pow(g, e, q) != 1 for e in exponents))


@dataclass(frozen=True)
class FieldSpec:
    """The prime field GF(q)."""

    q: int

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2:
            raise ValidationError(f"field modulus must be an integer >= 2, got {self.q!r}")
        if self.q > MAX_MODULUS:
            raise ResourceLimitError(
                f"field modulus {self.q} exceeds supported maximum {MAX_MODULUS}"
            )
        if not is_prime(self.q):
            raise ValidationError(f"field modulus must be prime, got {self.q}")

    def normalize(self, a: int) -> int:
        return a % self.q


def vec_sub(field: FieldSpec, u, v) -> tuple:
    if len(u) != len(v):
        raise ValidationError(f"length mismatch: {len(u)} vs {len(v)}")
    return tuple((a - b) % field.q for a, b in zip(u, v))


def parse_vector(text: str, q: int) -> tuple:
    """Parse a comma-separated residue vector, e.g. ``"1,0,2"``."""
    field = FieldSpec(q)
    try:
        entries = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse vector {text!r}") from exc
    return tuple(field.normalize(e) for e in entries)
