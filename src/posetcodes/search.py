"""Orbit search over the isometry group: primary decompositions, profile
uniqueness, hierarchical neighbours and the complexity sandwich bounds.

The minimal complexity of a code relative to a poset is the minimum, over
the isometry orbit of the code, of the per-code grouping minimum.  The
orbit is walked breadth-first over generators of the triangular part, then
over generators of Aut(P), in a fixed order, so witnesses are reproducible.
"""

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from itertools import accumulate

from .code import LinearCode, enumerate_codes, rref
from .decomposition import (
    Decomposition,
    _row_groups,
    cheapest_grouping,
    maximal_decomposition,
    min_grouping_complexity,
)
from .errors import ResourceLimitError, ValidationError
from .isometry import PIsometry, _eye
from .poset import Poset

DEFAULT_ORBIT_BUDGET = 10**5
# The largest poset an orbit walk takes: the generators of Aut(P) reach 16,
# but the bounds walk on a random 16-point poset does not yet stop quickly.
MAX_WALK_N = 10
# Canonicalisations a walk may spend per code of its orbit budget.  Default
# walks make at most 30,017 in the tests (the one-code walk of the full space
# over GF(10007) on a 2-chain) and 2,810 in a benchmark op; at 10 a
# budget-cut walk of the tests would stop before its code count does.
CANONICALISATIONS_PER_CODE = 20


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
    """Minimal complexities for the hierarchical neighbours, exact at every
    supported size, and the poset's own value, None when the orbit walk
    that finds it on a non-hierarchical poset exceeds a budget or its
    reach."""

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


def _delta_generators(n: int, q: int, strict: list):
    """Generators of the triangular part as elementary operations ``(i, j, c)``
    on 0-based coordinates, each mapping x to x + c * x_j * e_i: diagonal
    scalings (i = j, factor 1 + c), then additions along the ``strict``
    relations i below j, listed by column descending and row ascending, by
    coefficient ascending.  In this order the walk from the all-ones code on
    a chain first reaches the folded code through the paper's fold map.
    They are yielded, not listed: over a large field they number millions."""
    for c in range(1, q - 1):
        for i in range(n):
            yield i, i, c
    for i, j in strict:
        for c in range(1, q):
            yield i, j, c


class _Seen(set):
    """The codes a walk has admitted, and the number of canonicalised
    images handed to ``_admit``, admitted or not."""

    canonicalised = 0


def _admit(seen: _Seen, image: LinearCode, orbit_budget: int) -> bool:
    """Add an image not seen before to ``seen``; False for a repeat.

    The orbit budget bounds the walk's work as well as its codes: a new
    image past ``orbit_budget`` codes stops the walk, and so does a repeat
    past CANONICALISATIONS_PER_CODE * ``orbit_budget`` canonicalisations.
    """
    seen.canonicalised += 1
    if image in seen:
        cap = CANONICALISATIONS_PER_CODE * orbit_budget
        if seen.canonicalised > cap:
            raise ResourceLimitError(
                f"orbit walk exceeds budget of {cap} canonicalisations"
                f" after admitting {len(seen)} codes"
            )
        return False
    if len(seen) >= orbit_budget:
        raise ResourceLimitError(f"orbit exceeds budget of {orbit_budget} codes")
    seen.add(image)
    return True


def _delta_walk(code: LinearCode, poset: Poset, seen: _Seen, orbit_budget: int):
    """Breadth-first walk of the code's orbit under the triangular part:
    each code that ``_admit`` adds to ``seen``, starting with the code
    itself, with the generator that first reached it times its parent's
    matrix."""
    q, n = code.q, code.n
    strict = [
        (i, j)
        for j in range(n - 1, -1, -1)
        for i in range(n)
        if i != j and poset.leq(i + 1, j + 1)
    ]
    eye = _eye(n)
    _admit(seen, code, orbit_budget)
    yield code, eye
    queue = [(code, eye)]
    for current, matrix in queue:
        for i, j, c in _delta_generators(n, q, strict):
            rows = [list(row) for row in current.generators]
            for row in rows:
                row[i] = (row[i] + c * row[j]) % q
            image = LinearCode(q, n, *rref(q, n, rows))
            if _admit(seen, image, orbit_budget):
                added = tuple((a + c * b) % q for a, b in zip(matrix[i], matrix[j]))
                product = matrix[:i] + (added,) + matrix[i + 1 :]
                yield image, product
                queue.append((image, product))


def _compose(a: tuple, b: tuple) -> tuple:
    """The automorphism acting as T_a after T_b, where T_s(v)_i = v[s(i)]."""
    return tuple([b[i - 1] for i in a])


def _inverse(sigma: tuple) -> tuple:
    inverse = [0] * len(sigma)
    for i, s in enumerate(sigma, start=1):
        inverse[s - 1] = i
    return tuple(inverse)


def _permute(code: LinearCode, sigma: tuple) -> LinearCode:
    rows = [[row[s - 1] for s in sigma] for row in code.generators]
    return LinearCode(code.q, code.n, *rref(code.q, code.n, rows))


def _orbit(code: LinearCode, poset: Poset, orbit_budget: int):
    """Each distinct image of the code with the automorphism and triangular
    matrix reaching it, since the isometry group is Aut(P) acting on the
    triangular part: the triangular walk under the identity, then its images
    under Aut(P), a block at a time.  An automorphism sigma maps the
    triangular orbit onto a whole one, its block, so sigma(C) tells a new
    block from a walked one.  For each block's representative rep, in the
    order found, and each generator g of Aut(P), a new image of C under g
    after rep opens that automorphism's block, walked in triangular order:
    at most |orbit| + blocks * generators canonicalisations.  A poset beyond
    MAX_WALK_N stops the walk before any image; ``_admit`` bounds the rest."""
    if poset.n != code.n:
        raise ValidationError(f"poset size {poset.n} != code length {code.n}")
    if poset.n > MAX_WALK_N:
        raise ResourceLimitError(f"orbit walk supports n <= {MAX_WALK_N}, got {poset.n}")
    generators, _ = poset.automorphisms()
    identity = tuple(range(1, code.n + 1))
    seen = _Seen()
    delta_orbit = []
    for image, matrix in _delta_walk(code, poset, seen, orbit_budget):
        delta_orbit.append((image, matrix))
        yield image, identity, matrix
    reps = [identity]
    for rep in reps:
        for g in generators:
            sigma = _compose(g, rep)
            first = _permute(code, sigma)
            if not _admit(seen, first, orbit_budget):
                continue
            reps.append(sigma)
            yield first, sigma, delta_orbit[0][1]
            for image, matrix in delta_orbit[1:]:
                permuted = _permute(image, sigma)
                if _admit(seen, permuted, orbit_budget):
                    yield permuted, sigma, matrix


def orbit_codes(
    code: LinearCode, poset: Poset, *, orbit_budget: int = DEFAULT_ORBIT_BUDGET
) -> dict:
    """Distinct orbit codes in walk order, each mapped to the isometry reaching it."""
    return {
        image: PIsometry(poset, code.q, sigma, matrix)
        for image, sigma, matrix in _orbit(code, poset, orbit_budget)
    }


def primary_decomposition(
    code: LinearCode, poset: Poset, *, orbit_budget: int = DEFAULT_ORBIT_BUDGET
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
        for image, sigma, matrix in _orbit(code, poset, orbit_budget):
            key = (min_grouping_complexity(image), image.generators)
            if best is None or key < best[0]:
                best = (key, image, sigma, matrix)
    except ResourceLimitError as exc:
        if best is not None:
            exc.partial_result = decomposed(proven_minimal=False)
        raise
    return decomposed()


def minimal_complexity(
    code: LinearCode, poset: Poset, *, orbit_budget: int = DEFAULT_ORBIT_BUDGET
) -> int:
    return primary_decomposition(code, poset, orbit_budget=orbit_budget).complexity


# -- irreducibility and profile uniqueness ---------------------------


@lru_cache(maxsize=4096)  # bounded, as a long-lived process calls it without end
def is_p_irreducible(
    code: LinearCode, poset: Poset, *, orbit_budget: int = DEFAULT_ORBIT_BUDGET
) -> bool:
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
    for image, _ in _delta_walk(code, poset, _Seen(), orbit_budget):
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
    code: LinearCode, poset: Poset, *, orbit_budget: int = DEFAULT_ORBIT_BUDGET
) -> ProfileUniquenessReport:
    """Scan the orbit and check that every maximal decomposition carries the
    same canonical profile."""
    orbit_size = 0
    candidates = 0
    profiles = {}
    for image, _, _ in _orbit(code, poset, orbit_budget):
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
    unpermute = PIsometry(poset, q, _inverse(pd.witness.sigma), _eye(n))
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
    return Poset.from_ranks(_block_ranks(poset))


def _block_ranks(poset: Poset) -> list:
    """Each element's level block: the ranks of the lower neighbour."""
    block_of_level = list(accumulate(poset.hierarchy_flags()))
    return [block_of_level[h - 1] for h in poset.heights()]


def _level_sum(code: LinearCode, ranks) -> tuple:
    """The direct sum of the level projections of a code on the hierarchical
    poset of ``ranks`` (i below j iff ranks[i] < ranks[j]), and the entries
    ``(i, p, c)`` off the diagonal of the unipotent matrix mapping the code
    onto it.

    With the columns ordered top rank first, ascending within a rank, each
    canonical row r with pivot p of rank l has its support in the ranks up
    to l.  Subtracting r_i * x_p from every coordinate i of lower rank, all
    of which lie below p, projects r onto rank l.  The projected rows have
    disjoint supports across ranks and stay reduced within one, so in pivot
    order they are the canonical generators of the sum.
    """
    q, n = code.q, code.n
    order = sorted(range(n), key=lambda j: -ranks[j])
    rows, pivots = rref(q, n, [[row[j] for j in order] for row in code.generators])
    entries = []
    projected = []
    for row, pivot in zip(rows, pivots):
        p = order[pivot - 1]
        image = [0] * n
        for j, v in zip(order, row):
            if ranks[j] == ranks[p]:
                image[j] = v
            elif v:
                entries.append((j, p, -v % q))
        projected.append((p + 1, tuple(image)))
    projected.sort()
    generators = tuple(image for _, image in projected)
    return LinearCode(q, n, generators, tuple(p for p, _ in projected)), entries


def hierarchical_decomposition(code: LinearCode, poset: Poset) -> PDecomposition:
    """A primary decomposition on a hierarchical poset, in closed form.

    The code is equivalent to the direct sum of its level projections
    (``_level_sum``), whose cheapest grouping realises the minimal
    complexity: the canonical-systematic form of hierarchical poset codes.
    The witness has the identity permutation and a unipotent matrix in the
    triangular part.
    """
    if poset.n != code.n:
        raise ValidationError(f"poset size {poset.n} != code length {code.n}")
    if not poset.is_hierarchical():
        raise ValidationError("closed-form decomposition needs a hierarchical poset")
    image, entries = _level_sum(code, poset.heights())
    matrix = [list(row) for row in _eye(code.n)]
    for i, p, c in entries:
        matrix[i][p] = c
    witness = PIsometry(poset, code.q, tuple(range(1, code.n + 1)), matrix)
    return PDecomposition(witness, cheapest_grouping(image), min_grouping_complexity(image))


def hierarchy_bounds(
    code: LinearCode, poset: Poset, *, orbit_budget: int = DEFAULT_ORBIT_BUDGET
) -> BoundsReport:
    """Minimal complexities for the hierarchical neighbours, sandwiching the
    poset's own value.

    Both neighbour values are exact and come from the closed form of
    :func:`hierarchical_decomposition`, so no budget applies to them.  So
    does the poset's own value when the poset is hierarchical; otherwise it
    comes from the orbit walk, and it is None when the walk exceeds a
    budget or its reach (MAX_WALK_N, n = 10).
    """
    if poset.n != code.n:
        raise ValidationError(f"poset size {poset.n} != code length {code.n}")
    o_upper = min_grouping_complexity(_level_sum(code, poset.heights())[0])
    if poset.is_hierarchical():  # its own upper and lower neighbour
        return BoundsReport(poset, poset, o_upper, o_upper, o_upper)
    blocks = _block_ranks(poset)
    o_lower = min_grouping_complexity(_level_sum(code, blocks)[0])
    upper = upper_neighbour(poset)
    lower = Poset.from_ranks(blocks)
    try:
        o_p = minimal_complexity(code, poset, orbit_budget=orbit_budget)
    except ResourceLimitError:
        o_p = None
    return BoundsReport(upper, lower, o_upper, o_lower, o_p)


# -- order comparisons -------------------------------------------------


def monotonicity_check(
    code: LinearCode, finer: Poset, coarser: Poset, *, orbit_budget: int = DEFAULT_ORBIT_BUDGET
) -> bool:
    """Minimal complexity may only drop when the poset gains relations."""
    if not finer.is_finer_than(coarser):
        raise ValidationError("first poset must be finer than the second")
    o_coarse = minimal_complexity(code, coarser, orbit_budget=orbit_budget)
    o_fine = minimal_complexity(code, finer, orbit_budget=orbit_budget)
    return o_coarse <= o_fine


def witness_refinement(
    finer: Poset, coarser: Poset, q: int = 2, *, orbit_budget: int = DEFAULT_ORBIT_BUDGET
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
            pd_fine = primary_decomposition(code, finer, orbit_budget=orbit_budget)
            pd_coarse = primary_decomposition(code, coarser, orbit_budget=orbit_budget)
            if pd_coarse.complexity < pd_fine.complexity:
                return code
            part_coarse = pd_coarse.dec.partition()
            part_fine = pd_fine.dec.partition()
            if part_coarse != part_fine and part_coarse.is_refinement_of(part_fine):
                return code
    return None
