"""Partial orders on [n] = {1, ..., n}.

The relation is stored densely as per-element bitmasks of the up- and
down-sets (reflexive-transitive closure); every derived table is read off
them by bit loops, cheap at the small n this package targets.  Elements
are 1-based throughout the public API.

A poset is immutable after construction; derived data (heights, levels,
hierarchy flags, generators of the automorphism group) is computed lazily
and cached.  Aut(P) is the product of the symmetric groups on the classes
of equal signature, found with no search, when each is one twin class.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import ResourceLimitError, ValidationError

MAX_GROUND_SET = 16


@dataclass(frozen=True)
class LevelStructure:
    """Heights h(i), the levels H_1..H_h and the type vector (|H_1|,...,|H_h|)."""

    heights: tuple
    levels: tuple
    type_vector: tuple


class Poset:
    __slots__ = ("n", "_up", "_down", "_hash", "_levels", "_flags", "_autos", "_strict")

    def __init__(self, n: int, up_masks, down_masks):
        """Internal, from up- and down-set bitmasks; use :meth:`from_covers` or a family builder."""
        self.n = n
        self._up = tuple(up_masks)
        self._down = tuple(down_masks)
        self._hash = hash((n, self._up))
        self._levels = None
        self._flags = None
        self._autos = None
        self._strict = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_covers(cls, n: int, covers) -> "Poset":
        """Poset generated by the given relations (not necessarily covers):
        the reflexive-transitive closure is taken, and inputs whose closure
        violates antisymmetry are rejected as cyclic."""
        _check_size(n)
        up = [1 << i for i in range(n)]
        for pair in covers:
            try:
                a, b = pair
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"relation {pair!r} is not a pair") from exc
            if type(a) is not int or type(b) is not int or not (1 <= a <= n and 1 <= b <= n):
                raise ValidationError(f"relation {pair!r} is not a pair of elements of [{n}]")
            if a == b:
                raise ValidationError(f"relation {pair!r} relates an element to itself")
            up[a - 1] |= 1 << (b - 1)
        for k in range(n):  # Warshall: whatever reaches k reaches all k reaches
            bit, reach = 1 << k, up[k]
            for i in range(n):
                if up[i] & bit:
                    up[i] |= reach
        down = [0] * n
        for i in range(n):  # i ascending, then j: a cycle names its least pair
            mask, bit = up[i], 1 << i
            while mask:
                low = mask & -mask
                j = low.bit_length() - 1
                if j > i and up[j] & bit:  # j lies in up[i] & down[i] beyond i
                    raise ValidationError(
                        f"not a partial order: elements {i + 1} and {j + 1} lie on a cycle"
                    )
                down[j] |= bit
                mask ^= low
        return cls(n, up, down)

    @classmethod
    def antichain(cls, n: int) -> "Poset":
        return cls.from_covers(n, [])

    @classmethod
    def chain(cls, n: int) -> "Poset":
        _check_size(n)  # before the n - 1 covers are built
        return cls.from_covers(n, [(i, i + 1) for i in range(1, n)])

    @classmethod
    def hierarchical(cls, type_vector) -> "Poset":
        """Hierarchical poset with naturally labelled consecutive level blocks;
        a type vector past the size limit is refused before any list is built."""
        tv = tuple(type_vector)
        if not tv or any(type(m) is not int or m < 1 for m in tv):
            raise ValidationError(f"type vector must be nonempty with positive entries, got {tv!r}")
        _check_size(sum(tv))
        return cls.from_ranks([rank for rank, size in enumerate(tv) for _ in range(size)])

    @classmethod
    def from_ranks(cls, ranks) -> "Poset":
        """Hierarchical poset on [len(ranks)]: i lies below j exactly when
        ``ranks[i-1] < ranks[j-1]``."""
        n = len(ranks)
        _check_size(n)
        at = {}  # the mask of each rank's elements
        for a, rank in enumerate(ranks):
            at[rank] = at.get(rank, 0) | 1 << a
        below, lower = {}, 0  # the mask of the elements of lower ranks
        for rank in sorted(at):
            below[rank], lower = lower, lower | at[rank]
        up = [lower & ~(below[r] | at[r]) | 1 << a for a, r in enumerate(ranks)]
        return cls(n, up, [below[r] | 1 << a for a, r in enumerate(ranks)])

    # -- basic queries ------------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        self._check_element(i)
        self._check_element(j)
        return bool(self._up[i - 1] >> (j - 1) & 1)

    def strict_pairs(self) -> frozenset:
        if self._strict is None:
            pairs = []
            for i, mask in enumerate(self._up):
                mask &= ~(1 << i)
                while mask:
                    low = mask & -mask
                    pairs.append((i + 1, low.bit_length()))
                    mask ^= low
            self._strict = frozenset(pairs)
        return self._strict

    def ideal(self, elements) -> frozenset:
        """Smallest ideal containing the given subset of [n]."""
        mask = 0
        for i in elements:
            self._check_element(i)
            mask |= self._down[i - 1]
        return frozenset(j + 1 for j in _bits(mask))

    def ideal_mask(self, mask: int) -> int:
        """Bitmask variant of :meth:`ideal` (bit k stands for element k+1)."""
        out = 0
        for j in _bits(mask):
            out |= self._down[j]
        return out

    def _check_element(self, i) -> None:
        if type(i) is not int or not 1 <= i <= self.n:
            raise ValidationError(f"element {i!r} not in [{self.n}]")

    # -- heights and levels -------------------------------------------

    def heights(self) -> tuple:
        return self.level_structure().heights

    def levels(self) -> tuple:
        return self.level_structure().levels

    def type_vector(self) -> tuple:
        return self.level_structure().type_vector

    def level_structure(self) -> LevelStructure:
        """Level h is what stays minimal once levels 1..h-1 are taken off;
        the same pass flags it when each of its elements lies above them all."""
        if self._levels is None:
            down, heights, levels, flags = self._down, [0] * self.n, [], []
            rest, lower = (1 << self.n) - 1, 0
            while rest:
                level, members, flag, mask = 0, [], True, rest
                while mask:
                    low = mask & -mask
                    mask ^= low
                    i = low.bit_length() - 1
                    if down[i] & rest == low:
                        level |= low
                        members.append(i + 1)
                        heights[i] = len(levels) + 1
                        flag = flag and down[i] & lower == lower
                rest ^= level
                lower |= level
                levels.append(frozenset(members))
                flags.append(flag)
            self._levels = LevelStructure(tuple(heights), tuple(levels), tuple(map(len, levels)))
            self._flags = tuple(flags)
        return self._levels

    # -- comparisons between posets -----------------------------------

    def is_finer_than(self, other: "Poset") -> bool:
        """True when every relation of this poset also holds in ``other``."""
        if not isinstance(other, Poset) or self.n != other.n:
            raise ValidationError("posets must share the same ground set")
        return all(self._up[i] & ~other._up[i] == 0 for i in range(self.n))

    # -- hierarchy ----------------------------------------------------

    def hierarchy_flags(self) -> tuple:
        """Per-level flags: level i is flagged when each of its elements
        dominates every element of all lower levels.  Level 1 is flagged
        vacuously."""
        self.level_structure()  # which sets the flags too
        return self._flags

    def hierarchical_levels(self) -> frozenset:
        return frozenset(i + 1 for i, flag in enumerate(self.hierarchy_flags()) if flag)

    def is_hierarchical(self) -> bool:
        return all(self.hierarchy_flags())

    # -- automorphisms -------------------------------------------------

    def automorphisms(self) -> tuple:
        """``(generators, order)`` of the order automorphisms, each a tuple
        ``sigma`` with ``sigma[i-1] = sigma(i)``; the group is never listed."""
        if self._autos is None:
            self._autos = _automorphism_generators(self)
        return self._autos

    # -- restriction ---------------------------------------------------

    def restrict(self, coords) -> "Poset":
        """Induced subposet on the given coordinates, relabelled 1..|S| in
        ascending coordinate order."""
        sub = sorted(set(coords))
        for i in sub:
            self._check_element(i)
        if not sub:
            raise ValidationError("cannot restrict to an empty coordinate set")
        def cut(masks):
            return [sum(1 << b for b, j in enumerate(sub) if masks[i - 1] >> (j - 1) & 1) for i in sub]

        return Poset(len(sub), cut(self._up), cut(self._down))

    # -- Hasse diagram and serialization --------------------------------

    def covers(self) -> list:
        """Cover relations (a, b): a < b with nothing strictly between."""
        out = []
        for i in range(self.n):
            strict_up = self._up[i] & ~(1 << i)
            for j in _bits(strict_up):
                between = strict_up & self._down[j] & ~(1 << j)
                if between == 0:
                    out.append((i + 1, j + 1))
        return sorted(out)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "covers": [list(c) for c in self.covers()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Poset":
        """A poset from ``{"n": ..., "covers": [...]}``; a document with
        another key, without either, or whose covers are not a list is
        refused."""
        if (
            not isinstance(data, dict)
            or data.keys() != {"n", "covers"}
            or not isinstance(data["covers"], list)
        ):
            raise ValidationError(f"malformed poset document: {data!r}")
        try:
            covers = [tuple(pair) for pair in data["covers"]]
        except TypeError as exc:
            raise ValidationError(f"malformed poset document: {data!r}") from exc
        return cls.from_covers(data["n"], covers)

    def to_dot(self) -> str:
        """Hasse diagram in DOT format, drawn upward by height."""
        lines = ["digraph poset {", "  rankdir=BT;"]
        for level in self.levels():
            members = " ".join(f'"{i}";' for i in sorted(level))
            lines.append(f"  {{ rank=same; {members} }}")
        for a, b in self.covers():
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines)

    # -- dunder -------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poset) and self.n == other.n and self._up == other._up

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Poset(n={self.n}, covers={self.covers()})"


def _check_size(n) -> None:
    if type(n) is not int or n < 1:
        raise ValidationError(f"ground-set size must be a positive integer, got {n!r}")
    if n > MAX_GROUND_SET:
        raise ResourceLimitError(f"ground-set size {n} exceeds supported maximum {MAX_GROUND_SET}")


def _bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _automorphism_generators(p: Poset) -> tuple:
    """For i = n down to 1, the lexicographically first automorphism fixing
    1..i-1 and mapping i to m, for each m in ascending order that the
    generators so far do not map i to; |Aut| is the product of i's orbit
    lengths.  An automorphism keeps each element's signature (height, |up|,
    |down|).  So with n distinct signatures ``((), 1)`` returns before any
    other table is built; and when each signature class is one twin class
    (equal strict up- and down-sets), as the levels of a hierarchical poset
    are, Aut is the product of the symmetric groups on the classes, and the
    generators are the transpositions of i with the next element of its
    class, whose orbit is its class from i on.  Otherwise a backtrack fixes
    sigma(i+1), ... in turn from the class, keeping m when it is unused and
    its up- and down-sets among the images placed are the images of the
    element's among the elements placed, and tries one unused candidate per
    twin class, as swapping two unused twins keeps every placed image.
    Only m > i is tried, as 1..i-1 are fixed; a backtrack from i writes
    only image[i:], so image[:i] stays the identity that it starts as."""
    n = p.n
    up, down, heights = p._up, p._down, p.heights()
    sig = [(heights[i], up[i].bit_count(), down[i].bit_count()) for i in range(n)]
    if len(set(sig)) == n:
        return (), 1
    strict = [(up[m] & ~(1 << m), down[m] & ~(1 << m)) for m in range(n)]
    if len(set(strict)) == len(set(sig)):  # twin classes refine signature classes
        generators, order, after = [], 1, {}
        for i in range(n - 1, -1, -1):
            j, size = after.get(strict[i], (i, 0))  # i's least twin above, and the count above
            if size:
                sigma = list(range(1, n + 1))
                sigma[i], sigma[j] = j + 1, i + 1
                generators.append(tuple(sigma))
            after[strict[i]] = (i, size + 1)
            order *= size + 1
        return tuple(generators), order
    candidates = [[m for m in range(n) if sig[m] == sig[i]] for i in range(n)] + [[]]
    twin = [strict.index(strict[m]) for m in range(n)]
    image = [1 << k for k in range(n)]  # image[k] is the bit of sigma(k + 1)

    def extend(i, used, options):
        if i == n:
            return True
        want_up = want_down = 0
        for k in range(i):
            if up[i] >> k & 1:
                want_up |= image[k]
            if down[i] >> k & 1:
                want_down |= image[k]
        tried = 0  # the twin classes tried at this node
        for m in options:
            bit = 1 << m
            if used & bit or tried >> twin[m] & 1:
                continue
            tried |= 1 << twin[m]
            if up[m] & used == want_up and down[m] & used == want_down:
                image[i] = bit
                if extend(i + 1, used | bit, candidates[i + 1]):
                    return True
        return False

    generators = []
    order = 1
    for i in range(n - 1, -1, -1):
        orbit = {i}
        for m in candidates[i]:
            if m > i and m not in orbit and extend(i, (1 << i) - 1, [m]):
                generators.append(tuple(bit.bit_length() for bit in image))
                orbit, frontier = {i}, [i]
                while frontier:  # the closure: images of the points new last round
                    frontier = {g[point] - 1 for g in generators for point in frontier} - orbit
                    orbit |= frontier
        order *= len(orbit)
    return tuple(generators), order


# -- catalog helpers -------------------------------------------------


def make_family(kind: str, n: int | None = None, type_vector=None) -> Poset:
    """Standard families by name: antichain, chain, hierarchical(type_vector)."""
    if kind in ("antichain", "chain"):
        if n is None:
            raise ValidationError(f"{kind} family needs one size n")
        return Poset.antichain(n) if kind == "antichain" else Poset.chain(n)
    if kind == "hierarchical":
        if type_vector is None:
            raise ValidationError("hierarchical family needs a type vector")
        return Poset.hierarchical(type_vector)
    raise ValidationError(f"unknown poset family {kind!r}")


def all_posets(n: int):
    """Every labeled poset on [n], by filtering strict-relation subsets;
    exponential in n*(n-1), so intended for n <= 4."""
    if n > 4:
        raise ResourceLimitError("full poset catalog supported only for n <= 4")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for chosen in range(1 << len(pairs)):
        rel = {pairs[k] for k in _bits(chosen)}
        if any((b, a) in rel for a, b in rel) or any(
            (a, d) not in rel for a, b in rel for c, d in rel if b == c and a != d
        ):
            continue
        yield Poset.from_covers(n, rel)


def hierarchical_posets(n: int):
    """Every hierarchical poset on [n], one per ordered set partition of [n].

    There are Fubini(n) of them, 47,293 at n = 7 and 7,087,261 at n = 9, so
    a larger n raises before the first is built."""
    if n > 7:
        raise ResourceLimitError("hierarchical poset catalog supported only for n <= 7")
    elements = tuple(range(1, n + 1))

    def ordered_partitions(rest):
        if not rest:
            yield []
            return
        for r in range(1, len(rest) + 1):
            for block in combinations(rest, r):
                chosen = frozenset(block)
                remaining = tuple(e for e in rest if e not in chosen)
                for tail in ordered_partitions(remaining):
                    yield [chosen] + tail

    for blocks in ordered_partitions(elements):  # each element's rank is its block's index
        yield Poset.from_ranks([next(r for r, b in enumerate(blocks) if a in b) for a in elements])
