"""Poset weight, poset distance and the minimal distance of a code.

The weight of a vector is always computed through the ideal closure of
its support; closed-form shortcuts for special poset families exist only
in the test oracles so that production has a single code path.
"""

from .code import LinearCode, _check_length
from .errors import ValidationError
from .field import FieldSpec, check_entries, vec_sub
from .poset import Poset


def support(x) -> frozenset:
    """Coordinates carrying a nonzero residue, 1-based."""
    check_entries(x)
    return frozenset(i + 1 for i, v in enumerate(x) if v)


def support_mask(x) -> int:
    mask = 0
    for i, v in enumerate(x):
        if v:
            mask |= 1 << i
    return mask


def pweight(poset: Poset, x) -> int:
    """Cardinality of the ideal generated by the support of ``x``."""
    if len(x) != poset.n:
        raise ValidationError(f"vector length {len(x)} != poset size {poset.n}")
    check_entries(x)
    return bin(poset.ideal_mask(support_mask(x))).count("1")


def pdist(poset: Poset, field: FieldSpec, x, y) -> int:
    """Poset distance d(x, y) = weight of x - y."""
    return pweight(poset, vec_sub(field, x, y))


def weight_table(poset: Poset) -> list:
    """Ideal sizes indexed by support bitmask; weight lookups become O(1)."""
    n = poset.n
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & (mask - 1)
        if low == 0:
            table[mask] = bin(poset.ideal_mask(mask)).count("1")
        else:
            table[mask] = bin(
                poset.ideal_mask(low) | poset.ideal_mask(mask & -mask)
            ).count("1")
    return table


def min_pdistance(poset: Poset, code: LinearCode) -> int:
    """Minimal weight over the nonzero codewords."""
    _check_length(code, poset)
    best = None
    for word in code.codewords():
        if not any(word):
            continue
        w = pweight(poset, word)
        if best is None or w < best:
            best = w
    return best
