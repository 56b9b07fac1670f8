"""Pointed partitions of [n] and their refinement calculus.

A pointed partition has a distinguished, possibly empty part ``j0`` and
nonempty parts whose order is irrelevant; parts are stored sorted by
least element.  Refinement moves either split a part in two or move a
proper subset of a part into ``j0``.
"""

from itertools import combinations

from .errors import ResourceLimitError, ValidationError

SUCCESSOR_LIMIT = 8


class PointedPartition:
    __slots__ = ("n", "j0", "parts", "_hash")

    def __init__(self, n: int, j0, parts):
        if type(n) is not int or n < 1:
            raise ValidationError(f"ground-set size must be a positive integer, got {n!r}")
        self.n = n
        j0, parts = list(j0), [list(p) for p in parts]
        if any(not p for p in parts):
            raise ValidationError("parts other than j0 must be nonempty")
        elements = j0 + [e for p in parts for e in p]
        for e in elements:
            if type(e) is not int:
                raise ValidationError(f"partition element {e!r} is not an integer")
        if len(elements) != n or set(elements) != set(range(1, n + 1)):
            raise ValidationError(f"j0 and the parts must hold each element of [{n}] once")
        self.j0 = frozenset(j0)
        self.parts = tuple(sorted(map(frozenset, parts), key=min))
        self._hash = hash((n, self.j0, self.parts))

    @property
    def r(self) -> int:
        return len(self.parts)

    def _part(self, l: int) -> frozenset:
        if type(l) is not int or not 1 <= l <= len(self.parts):
            raise ValidationError(f"part index {l!r} out of range 1..{len(self.parts)}")
        return self.parts[l - 1]

    def split(self, l: int, chunk) -> "PointedPartition":
        """Split part l into ``chunk`` and its complement inside the part."""
        part = self._part(l)
        piece = frozenset(chunk)
        if not piece or not piece < part:
            raise ValidationError(
                f"split piece must be a nonempty proper subset of part {sorted(part)}"
            )
        rest = part - piece
        parts = list(self.parts)
        parts[l - 1] = piece
        parts.append(rest)
        return PointedPartition(self.n, self.j0, parts)

    def aggregate(self, l: int, chunk) -> "PointedPartition":
        """Move a proper subset of part l into the distinguished part."""
        part = self._part(l)
        piece = frozenset(chunk)
        if not piece or not piece < part:
            raise ValidationError(
                f"aggregated piece must be a nonempty proper subset of part {sorted(part)}"
            )
        parts = list(self.parts)
        parts[l - 1] = part - piece
        return PointedPartition(self.n, self.j0 | piece, parts)

    def one_step_successors(self) -> list:
        """All distinct one-move refinements; aggregated pieces stay proper."""
        if self.n > SUCCESSOR_LIMIT:
            raise ResourceLimitError(f"successor enumeration supports n <= {SUCCESSOR_LIMIT}")
        out = set()
        for l, part in enumerate(self.parts, start=1):
            members = sorted(part)
            # a split by a piece and by its complement coincide; the set dedupes
            for r in range(1, len(members)):
                for piece in combinations(members, r):
                    out.add(self.split(l, piece))
                    out.add(self.aggregate(l, piece))
        out.discard(self)
        return sorted(out, key=_sort_key)

    def is_refinement_of(self, other: "PointedPartition") -> bool:
        """True when this partition is reachable from ``other`` by refinement moves.

        Closed characterization: the distinguished part only grows, every
        part here sits inside a part of ``other``, and every part of
        ``other`` retains at least one descendant part.
        """
        if not isinstance(other, PointedPartition) or self.n != other.n:
            raise ValidationError("pointed partitions must share the same ground set")
        if not other.j0 <= self.j0:
            return False
        for part in self.parts:
            if not any(part <= coarse for coarse in other.parts):
                return False
        for coarse in other.parts:
            if not any(part <= coarse for part in self.parts):
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "j0": sorted(self.j0),
            "parts": [sorted(p) for p in self.parts],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PointedPartition":
        """A partition from a document with exactly the keys n, j0 and parts."""
        if not isinstance(data, dict) or data.keys() != {"n", "j0", "parts"}:
            raise ValidationError(f"malformed partition document: {data!r}")
        try:
            return cls(data["n"], data["j0"], data["parts"])
        except TypeError as exc:
            raise ValidationError(f"malformed partition document: {data!r}") from exc

    def __eq__(self, other):
        return (
            isinstance(other, PointedPartition)
            and self.n == other.n
            and self.j0 == other.j0
            and self.parts == other.parts
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        parts = ", ".join("{" + ",".join(map(str, sorted(p))) + "}" for p in self.parts)
        return f"PointedPartition(j0={{{','.join(map(str, sorted(self.j0)))}}}; {parts})"


def _sort_key(p: PointedPartition):
    return (sorted(p.j0), [sorted(part) for part in p.parts])


def all_pointed_partitions(n: int):
    """Every pointed partition of [n]; the distinguished part ranges over
    all subsets and the rest over all set partitions."""
    elements = list(range(1, n + 1))

    def set_partitions(rest):
        if not rest:
            yield []
            return
        first, others = rest[0], rest[1:]
        for r in range(len(others) + 1):
            for extra in combinations(others, r):
                block = frozenset((first,) + extra)
                remaining = [e for e in others if e not in block]
                for tail in set_partitions(remaining):
                    yield [block] + tail

    for r in range(n + 1):
        for j0 in combinations(elements, r):
            rest = [e for e in elements if e not in set(j0)]
            for parts in set_partitions(rest):
                yield PointedPartition(n, j0, parts)
