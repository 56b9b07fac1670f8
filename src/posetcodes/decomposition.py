"""Direct-sum decompositions of a code into components with disjoint supports.

The finest such decomposition is computed from the co-occurrence graph of
the canonical generator rows: every generator row lies wholly inside one
component, so the connected components of that graph realize the finest
splitting.  Coarser decompositions are groupings of the finest one.
"""

from .code import LinearCode
from .errors import ValidationError
from .partition import PointedPartition


class Decomposition:
    """A code together with disjoint-support components summing to it.

    ``j0`` is the coordinate set off the support of the code; the full
    coordinate subspace there plays the role of the zeroth component and
    is represented implicitly by the set itself.
    """

    __slots__ = ("code", "components", "j0")

    def __init__(self, code: LinearCode, components):
        comps = tuple(sorted(components, key=lambda c: min(c.support())))
        if not comps:
            raise ValidationError("a decomposition needs at least one component")
        seen = set()
        total_dim = 0
        for comp in comps:
            if comp.q != code.q or comp.n != code.n:
                raise ValidationError("components must live in the same ambient space")
            supp = comp.support()
            if supp & seen:
                raise ValidationError("component supports must be pairwise disjoint")
            seen |= supp
            total_dim += comp.k
            for row in comp.generators:
                if not code.contains(row):
                    raise ValidationError("component is not a subspace of the code")
        if total_dim != code.k or seen != code.support():
            raise ValidationError("components do not sum to the code")
        self.code = code
        self.components = comps
        self.j0 = frozenset(range(1, code.n + 1)) - code.support()

    @classmethod
    def _trusted(cls, code: LinearCode, components: list) -> "Decomposition":
        """A decomposition from spans of the code's own row groups, with no
        check: the groups partition the canonical rows, their supports are
        disjoint and their smallest coordinates are their first pivots."""
        dec = cls.__new__(cls)
        dec.code = code
        dec.components = tuple(sorted(components, key=lambda c: c.pivots[0]))
        dec.j0 = frozenset(range(1, code.n + 1)) - code.support()
        return dec

    @property
    def r(self) -> int:
        return len(self.components)

    def partition(self) -> PointedPartition:
        return PointedPartition(
            self.code.n, self.j0, [c.support() for c in self.components]
        )

    def profile(self) -> tuple:
        """Pairs (support size, dimension); the j0 pair first, the rest sorted."""
        head = (len(self.j0), len(self.j0))
        rest = sorted(
            ((len(c.support()), c.k) for c in self.components),
        )
        return (head, *rest)

    def complexity(self) -> int:
        """Syndrome look-up table size: sum of q^(n_i - k_i) over components."""
        q = self.code.q
        return sum(q ** (len(c.support()) - c.k) for c in self.components)

    def to_json_dict(self) -> dict:
        return {
            "code": self.code.to_json_dict(),
            "j0": sorted(self.j0),
            "components": [
                {
                    "support": sorted(c.support()),
                    "generators": [list(row) for row in c.generators],
                }
                for c in self.components
            ],
            "profile": [list(p) for p in self.profile()],
            "complexity": self.complexity(),
        }

    def __eq__(self, other):
        return (
            isinstance(other, Decomposition)
            and self.code == other.code
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.code, self.components))

    def __repr__(self):
        supports = [sorted(c.support()) for c in self.components]
        return f"Decomposition(code={self.code!r}, supports={supports})"


def trivial_decomposition(code: LinearCode) -> Decomposition:
    return Decomposition(code, [code])


def _row_groups(code: LinearCode) -> list:
    """Indices of the canonical rows grouped into the finest components,
    each row's support held as a bitmask and merged with every group whose
    mask it meets; groups in order of their smallest coordinate (their
    first row's pivot), each with its deficiency (support size minus row
    count, as canonical rows are independent)."""
    groups = []  # (support mask, row indices); the masks are pairwise disjoint
    for index, row in enumerate(code.generators):
        mask = 0
        for j, v in enumerate(row):
            if v:
                mask |= 1 << j
        rows = [index]
        apart = []
        for group in groups:
            if group[0] & mask:
                mask |= group[0]
                rows += group[1]
            else:
                apart.append(group)
        apart.append((mask, rows))
        groups = apart
    return sorted((sorted(rows), mask.bit_count() - len(rows)) for mask, rows in groups)


def _subcode(code: LinearCode, rows) -> LinearCode:
    """The span of some canonical rows: in pivot order they stay canonical."""
    rows = sorted(rows)
    gens = tuple(code.generators[i] for i in rows)
    return LinearCode(code.q, code.n, gens, tuple(code.pivots[i] for i in rows))


def maximal_decomposition(code: LinearCode) -> Decomposition:
    """The unique finest decomposition, via generator-row co-occurrence."""
    return Decomposition._trusted(code, [_subcode(code, rows) for rows, _ in _row_groups(code)])


def min_grouping_complexity(code: LinearCode) -> int:
    """Minimum complexity over every decomposition of the code.

    All decompositions arise by grouping the finest components; splitting a
    group never helps once its deficiency is zero, and merging two groups of
    positive deficiency never helps, so the minimum keeps every positive
    deficiency separate and absorbs the rest.
    """
    positive = [d for _, d in _row_groups(code) if d > 0]
    if not positive:
        return 1
    return sum(code.q ** d for d in positive)


def cheapest_grouping(code: LinearCode) -> Decomposition:
    """A decomposition achieving :func:`min_grouping_complexity`.

    Zero-deficiency components are merged into the first positive-deficiency
    component (or all together when none is positive), which realizes the
    minimum with a deterministic shape.
    """
    groups = _row_groups(code)
    positive = [rows for rows, d in groups if d > 0]
    zero = [i for rows, d in groups if d == 0 for i in rows]
    merged = [positive[0] + zero, *positive[1:]] if positive else [zero]
    return Decomposition._trusted(code, [_subcode(code, rows) for rows in merged])
