"""Orbit search over the isometry group: primary decompositions, profile
uniqueness, hierarchical neighbours and the complexity sandwich bounds.

The minimal complexity of a code relative to a poset is the minimum, over
the isometry orbit of the code, of the per-code grouping minimum.  The
orbit is walked breadth-first over generators of the triangular part and
then permuted by the order automorphisms, in a fixed order, so reported
witnesses are reproducible.
"""

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

from .code import LinearCode, enumerate_codes, rref
from .decomposition import (
    Decomposition,
    _row_groups,
    cheapest_grouping,
    maximal_decomposition,
    min_grouping_complexity,
)
from .errors import ResourceLimitError, ValidationError
from .isometry import GROUP_BUDGET, PIsometry, _eye, group_size
from .poset import Poset

DEFAULT_ORBIT_BUDGET = 10**5


@dataclass(frozen=True)
class PDecomposition:
    """A decomposition of an orbit code, carrying the isometry that reaches it."""

    witness: PIsometry
    dec: Decomposition
    complexity: int
    proven_minimal: bool = True

    def to_json_dict(self) -> dict:
        return {
            "witness": self.witness.to_json_dict(),
            "decomposition": self.dec.to_json_dict(),
            "profile": [list(p) for p in self.dec.profile()],
            "complexity": self.complexity,
            "proven_minimal": self.proven_minimal,
        }


@dataclass(frozen=True)
class BoundsReport:
    """Minimal complexities for the hierarchical neighbours and, when
    affordable, the poset itself."""

    upper_poset: Poset
    lower_poset: Poset
    o_upper: int
    o_lower: int
    o_p: int | None = None

    @property
    def sandwich_ok(self) -> bool:
        if self.o_p is None:
            return self.o_upper <= self.o_lower
        return self.o_upper <= self.o_p <= self.o_lower

    def to_json_dict(self) -> dict:
        return {
            "upper_poset": self.upper_poset.to_json_dict(),
            "lower_poset": self.lower_poset.to_json_dict(),
            "o_upper": self.o_upper,
            "o_p": self.o_p,
            "o_lower": self.o_lower,
            "sandwich_ok": self.sandwich_ok,
        }


@dataclass
class ProfileUniquenessReport:
    ok: bool
    profile: tuple | None
    candidates: int
    orbit_size: int
    conflicts: list = dataclass_field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "profile": [list(p) for p in self.profile] if self.profile else None,
            "candidates": self.candidates,
            "orbit_size": self.orbit_size,
            "conflicts": [
                {"profile": [list(p) for p in prof], "code": code.to_json_dict()}
                for prof, code in self.conflicts
            ],
        }


def _delta_generators(poset: Poset, q: int) -> list:
    """Generators of the triangular part as elementary operations ``(i, j, c)``
    on 0-based coordinates, each mapping x to x + c * x_j * e_i: diagonal
    scalings (i = j, factor 1 + c), then additions along strict relations by
    column descending, row ascending, coefficient ascending.  In this order
    the walk from the all-ones code on a chain first reaches the folded code
    through the paper's fold map."""
    n = poset.n
    gens = [(i, i, scale - 1) for scale in range(2, q) for i in range(n)]
    for j in range(n - 1, -1, -1):
        for i in range(n):
            if i != j and poset.leq(i + 1, j + 1):
                gens.extend((i, j, c) for c in range(1, q))
    return gens


def _admit(seen: set, image: LinearCode, orbit_budget: int) -> bool:
    """Add an image not seen before to ``seen``; False for a repeat."""
    if image in seen:
        return False
    if len(seen) >= orbit_budget:
        raise ResourceLimitError(f"orbit exceeds budget of {orbit_budget} codes")
    seen.add(image)
    return True


def _delta_walk(code: LinearCode, poset: Poset, seen: set, orbit_budget: int):
    """Breadth-first walk of the code's orbit under the triangular part:
    each code that ``_admit`` adds to ``seen``, starting with the code
    itself, with the generator that first reached it times its parent's
    matrix."""
    q, n = code.q, code.n
    gens = _delta_generators(poset, q)
    eye = _eye(n)
    _admit(seen, code, orbit_budget)
    yield code, eye
    queue = [(code, eye)]
    for current, matrix in queue:
        for i, j, c in gens:
            rows = [list(row) for row in current.generators]
            for row in rows:
                row[i] = (row[i] + c * row[j]) % q
            image = LinearCode(q, n, *rref(q, n, rows))
            if _admit(seen, image, orbit_budget):
                added = tuple((a + c * b) % q for a, b in zip(matrix[i], matrix[j]))
                product = matrix[:i] + (added,) + matrix[i + 1 :]
                yield image, product
                queue.append((image, product))


def _orbit(code: LinearCode, poset: Poset, group_budget: int, orbit_budget: int):
    """Each distinct image of the code with the automorphism and triangular
    matrix reaching it: the triangular walk under the identity, then that
    walk permuted by each further automorphism in lexicographic order, since
    the isometry group is Aut(P) acting on the triangular part."""
    if poset.n != code.n:
        raise ValidationError(f"poset size {poset.n} != code length {code.n}")
    size = group_size(poset, code.q)
    if size > group_budget:
        raise ResourceLimitError(
            f"isometry group of size {size} exceeds budget {group_budget}"
        )
    identity, *others = poset.automorphisms()
    seen = set()
    delta_orbit = []
    for image, matrix in _delta_walk(code, poset, seen, orbit_budget):
        delta_orbit.append((image, matrix))
        yield image, identity, matrix
    for sigma in others:
        for image, matrix in delta_orbit:
            rows = [[row[s - 1] for s in sigma] for row in image.generators]
            permuted = LinearCode(code.q, code.n, *rref(code.q, code.n, rows))
            if _admit(seen, permuted, orbit_budget):
                yield permuted, sigma, matrix


def orbit_codes(
    code: LinearCode,
    poset: Poset,
    group_budget: int = GROUP_BUDGET,
    orbit_budget: int = DEFAULT_ORBIT_BUDGET,
) -> dict:
    """Distinct orbit codes in walk order, each mapped to the isometry reaching it."""
    return {
        image: PIsometry(poset, code.q, sigma, matrix)
        for image, sigma, matrix in _orbit(code, poset, group_budget, orbit_budget)
    }


def primary_decomposition(
    code: LinearCode,
    poset: Poset,
    group_budget: int = GROUP_BUDGET,
    orbit_budget: int = DEFAULT_ORBIT_BUDGET,
) -> PDecomposition:
    """A decomposition of minimal complexity over the whole orbit.

    Ties are broken by the lexicographically smallest canonical generator
    matrix; the witness is the first isometry of the walk reaching it.
    """
    best = None  # ((complexity, generator matrix), image, sigma, matrix)

    def decomposed(proven_minimal=True):
        (value, _), image, sigma, matrix = best
        witness = PIsometry(poset, code.q, sigma, matrix)
        return PDecomposition(witness, cheapest_grouping(image), value, proven_minimal)

    try:
        for image, sigma, matrix in _orbit(code, poset, group_budget, orbit_budget):
            key = (min_grouping_complexity(image), image.generators)
            if best is None or key < best[0]:
                best = (key, image, sigma, matrix)
    except ResourceLimitError as exc:
        if best is not None:
            exc.partial_result = decomposed(proven_minimal=False)
        raise
    return decomposed()


def minimal_complexity(
    code: LinearCode,
    poset: Poset,
    group_budget: int = GROUP_BUDGET,
    orbit_budget: int = DEFAULT_ORBIT_BUDGET,
) -> int:
    return primary_decomposition(code, poset, group_budget, orbit_budget).complexity


# -- irreducibility and profile uniqueness ---------------------------


@lru_cache(maxsize=4096)  # bounded, as a long-lived process calls it without end
def is_p_irreducible(code: LinearCode, poset: Poset, orbit_budget: int = DEFAULT_ORBIT_BUDGET) -> bool:
    """True when no orbit code splits into several components or occupies a
    smaller support.

    The permutation part of the group never changes support size or the
    component count, so scanning the orbit under the triangular part alone
    decides the question.
    """
    n = poset.n
    full = frozenset(range(1, n + 1))
    if code.support() != full:
        raise ValidationError("irreducibility expects a code with full support")
    for image, _ in _delta_walk(code, poset, set(), orbit_budget):
        if len(image.support()) < n or len(_row_groups(image)) > 1:
            return False
    return True


def _irreducible_components(dec: Decomposition, poset: Poset) -> bool:
    """True when every component is irreducible for the subposet induced on
    its support."""
    for comp in dec.components:
        coords = sorted(comp.support())
        if not is_p_irreducible(comp.restrict(coords), poset.restrict(coords)):
            return False
    return True


def verify_profile_uniqueness(
    code: LinearCode,
    poset: Poset,
    group_budget: int = GROUP_BUDGET,
    orbit_budget: int = DEFAULT_ORBIT_BUDGET,
) -> ProfileUniquenessReport:
    """Scan the orbit and check that every maximal decomposition carries the
    same canonical profile."""
    orbit_size = 0
    candidates = 0
    profiles = {}
    for image, _, _ in _orbit(code, poset, group_budget, orbit_budget):
        orbit_size += 1
        dec = maximal_decomposition(image)
        if _irreducible_components(dec, poset):
            candidates += 1
            profiles.setdefault(dec.profile(), dec.code)
    ok = len(profiles) == 1
    return ProfileUniquenessReport(
        ok=ok,
        profile=next(iter(profiles)) if ok else None,
        candidates=candidates,
        orbit_size=orbit_size,
        conflicts=[] if ok else sorted(profiles.items(), key=lambda item: item[0]),
    )


# -- permutation stripping --------------------------------------------


def strip_permutation(pd: PDecomposition) -> PDecomposition:
    """Conjugate a decomposition so its witness has no permutation part.

    Applying the inverse permutation to every piece keeps the complexity
    and leaves a witness in the triangular part, which is a valid witness
    for every coarser poset as well.
    """
    poset = pd.witness.poset
    q = pd.witness.q
    n = poset.n
    identity_sigma = tuple(range(1, n + 1))
    if pd.witness.sigma == identity_sigma:
        return pd
    inverse_sigma = [0] * n
    for i, s in enumerate(pd.witness.sigma, start=1):
        inverse_sigma[s - 1] = i
    unpermute = PIsometry(poset, q, tuple(inverse_sigma), _eye(n))
    new_code = unpermute.apply_code(pd.dec.code)
    new_components = [unpermute.apply_code(c) for c in pd.dec.components]
    new_dec = Decomposition(new_code, new_components)
    new_witness = PIsometry(poset, q, identity_sigma, pd.witness.matrix_rows)
    if new_dec.complexity() != pd.complexity:
        raise AssertionError("permutation stripping changed the complexity")
    return PDecomposition(new_witness, new_dec, pd.complexity, pd.proven_minimal)


# -- hierarchical neighbours ------------------------------------------


def upper_neighbour(poset: Poset) -> Poset:
    """Hierarchical poset on the same levels: below iff strictly lower level."""
    return Poset.from_ranks(poset.heights())


def lower_neighbour(poset: Poset) -> Poset:
    """Hierarchical poset on level blocks delimited by the fully
    hierarchical levels; below iff strictly lower block."""
    heights = poset.heights()
    flags = poset.hierarchy_flags()
    block_of_level = []
    block = -1
    for flag in flags:
        if flag:
            block += 1
        block_of_level.append(block)
    return Poset.from_ranks([block_of_level[h - 1] for h in heights])


def hierarchy_bounds(
    code: LinearCode,
    poset: Poset,
    group_budget: int = GROUP_BUDGET,
    orbit_budget: int = DEFAULT_ORBIT_BUDGET,
) -> BoundsReport:
    """Minimal complexities for the hierarchical neighbours, sandwiching the
    poset's own value when its orbit fits the budget."""
    upper = upper_neighbour(poset)
    lower = lower_neighbour(poset)
    o_upper = minimal_complexity(code, upper, group_budget, orbit_budget)
    o_lower = minimal_complexity(code, lower, group_budget, orbit_budget)
    try:
        o_p = minimal_complexity(code, poset, group_budget, orbit_budget)
    except ResourceLimitError:
        o_p = None
    return BoundsReport(upper, lower, o_upper, o_lower, o_p)


# -- order comparisons -------------------------------------------------


def monotonicity_check(
    code: LinearCode,
    finer: Poset,
    coarser: Poset,
    group_budget: int = GROUP_BUDGET,
    orbit_budget: int = DEFAULT_ORBIT_BUDGET,
) -> bool:
    """Minimal complexity may only drop when the poset gains relations."""
    if not finer.is_finer_than(coarser):
        raise ValidationError("first poset must be finer than the second")
    o_coarse = minimal_complexity(code, coarser, group_budget, orbit_budget)
    o_fine = minimal_complexity(code, finer, group_budget, orbit_budget)
    return o_coarse <= o_fine


def witness_refinement(
    finer: Poset,
    coarser: Poset,
    q: int = 2,
    group_budget: int = GROUP_BUDGET,
    orbit_budget: int = DEFAULT_ORBIT_BUDGET,
):
    """First code (by dimension, then canonical generator matrix) whose
    primary decomposition strictly improves when the order grows.

    Returns None when the bounded enumeration finds nothing; absence is not
    a disproof.
    """
    if not finer.is_finer_than(coarser) or finer == coarser:
        raise ValidationError("expected strictly comparable posets (finer < coarser)")
    n = finer.n
    for k in range(1, n + 1):
        for code in enumerate_codes(q, n, k):
            pd_fine = primary_decomposition(code, finer, group_budget, orbit_budget)
            pd_coarse = primary_decomposition(code, coarser, group_budget, orbit_budget)
            if pd_coarse.complexity < pd_fine.complexity:
                return code
            part_coarse = pd_coarse.dec.partition()
            part_fine = pd_fine.dec.partition()
            if part_coarse != part_fine and part_coarse.is_refinement_of(part_fine):
                return code
    return None
