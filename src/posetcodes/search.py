"""Orbit search over the isometry group: primary decompositions, profile
uniqueness, hierarchical neighbours and the complexity sandwich bounds.

The minimal complexity of a code relative to a poset is the minimum, over
the isometry orbit of the code, of the per-code grouping minimum.  The
orbit is walked first under the unipotent part U, one root subgroup at a
time along a normal series of U, which reaches each code of U.C once and
tests each strict relation once; then block by block under the monomial
part: by one scaling per coordinate, then by the generators of Aut(P), in
a fixed order, so witnesses are reproducible.  Witnesses are built on
demand: the walks yield each code with the step or block map that
reaches it, and ``_matrices`` replays the steps of U.C, and ``_witness``
applies a block map, only for the codes a caller reports.

The block walk does not take the image of a move whose map arranges the
code's columns, each a multiple of its projective class, as a map it
tried before: equal arrangements give equal generator matrices, so
``_admit`` would refuse the image.  The block order, witnesses and budget
messages are those of the block walk that tries every move from the same
walk of U.C.  Each image is one move from its representative's image,
taken by the kernel of that kind of move: ``_permuted`` under a generator
of Aut(P) needs no elimination when each row's pivot stays its row's
first entry, and ``_scaled``, the scaling of one coordinate, never needs
one.  Nor does the image under an addition that leaves every pivot first
and every pivot column a unit column (``_add``).

A monomial map keeps a code's supports, row groups and maximal
decomposition up to an automorphism of P, so every block has the values
of U.C.  Every code of least value in U.C is zero on Z, the coordinates
whose column lies in the span of the columns above it, and those codes
are U_Z.C0: C0 = u0.C is C with the columns of Z set to zero, and U_Z
adds into no row of Z (``_zeroed_walk``).  One kernel, ``_spanned``,
finds the columns in the span of the columns on one side of them in P,
with the row of the element that zeroes each; Z and u0 are its columns
above.  It takes an elimination only at a nonzero column whose rows the
columns on that side all reach: a zero column is in the span, and a
column nonzero in a row that every one of them misses is not.  The
searches that value codes walk U_Z.C0 alone, value every code they walk,
and count its codes per block against the orbit budget:
``minimal_complexity`` and the ``o_p`` of ``hierarchy_bounds`` build no
matrix, and ``primary_decomposition`` walks the blocks only for the
images of its codes of least value, the only codes its tie-break can
choose.  On a hierarchical poset ``primary_decomposition`` walks
nothing: it returns the closed form of ``hierarchical_decomposition``,
the direct sum of the code's level projections, whose witness is built
in the triangular part and trusted.  ``minimal_complexity`` walks U_Z.C0
there too, and the tests check the closed form against it.
Irreducibility is settled first by a zeroable column on either side
(``_splits``), with no walk: ``_spanned`` over the columns above, or
over the columns of the parity-check matrix below, as u -> u^(-T) maps
U_P onto U_P*.  ``is_p_irreducible`` walks U.C, and builds no matrix,
only where neither side has one.  ``verify_profile_uniqueness`` walks
U_Z.C0 too, as every candidate is zero on Z, under the budget over q^s,
s the sum of dim W_i over Z, one rank each, since |U.C| = |U_Z.C0| *
q^s: it refuses before any walk when q^s alone exceeds the budget.  It
reads profiles and irreducibility off the row groups of that one walk,
settles each component from its rows on its support with no subposet
built, walks a component's unipotent orbit only where that test leaves
it open and from a code no earlier walk of the call admitted, and counts
the blocks from the codes of U_Z.C0 of one row-group shape, as blocks of
|U.C| codes.  ``_block_images`` is the one walk of the blocks, which
``orbit_codes`` feeds all of U.C.  It takes plain codes, yields each
image with its block map, and stops only at a block boundary.  The
witnesses built from the walk are trusted, not validated again.
"""

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from itertools import accumulate, count
from operator import itemgetter

from .code import LinearCode, _check_length, _parity_rows, enumerate_codes, rref
from .decomposition import (
    Decomposition,
    _row_groups,
    cheapest_grouping,
    min_grouping_complexity,
)
from .errors import ResourceLimitError, ValidationError
from .field import primitive_root
from .isometry import PIsometry, _eye
from .metric import support_mask
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
    """Minimal complexities for the hierarchical neighbours, exact at every
    supported size, and the poset's own value.  That is exact too; it is
    None only when the neighbour values differ and the walk of U_Z.C0 that
    finds it exceeds the orbit budget."""

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


def _admit(seen: set, image: LinearCode, orbit_budget: int) -> bool:
    """Add an image not seen before to ``seen``; False for a repeat.  A new
    image past ``orbit_budget`` codes stops the walk."""
    if image in seen:
        return False
    if len(seen) >= orbit_budget:
        raise ResourceLimitError(f"orbit exceeds budget of {orbit_budget} codes")
    seen.add(image)
    return True


def _unipotent_walk(code: LinearCode, poset: Poset, orbit_budget: int, fixed=()):
    """U.C, U the unipotent part, walked one root subgroup at a time: each
    code that ``_admit`` admits, the code first, yielded as soon as it is
    admitted with its step: None for the code, else ``(parent, i, j)`` when
    the code is the image of the code at index ``parent`` in walk order
    under "row i += row j", which ``_matrices`` replays.  No addition goes
    into a row of ``fixed`` (0-based): the walk is then of U_fixed.C, U_fixed
    the subgroup that the other additions generate, as the pairs (i, j)
    with i outside ``fixed`` are closed under composition.

    The root subgroup of a strict relation i below j (0-based) is generated
    by the addition g of x_j to x_i, of prime order q: adding c * x_j is
    g^c.  The relations are taken by height gap h(j) - h(i), largest first,
    then by column descending and row ascending.  Additions along (i, j)
    and (k, l) commute unless j = k or l = i, when their commutator adds
    along the composite relation, whose gap is larger than both, as heights
    rise strictly along a relation.  So the additions taken so far generate
    a subgroup H that the next one, g, normalises, and the walk keeps the
    orbit O = H.C in order.  When g.C lies in O, O is g-stable.  Otherwise
    g.O = H.g.C is an H-orbit disjoint from O, and so are g^2.O, ...,
    g^(q-1).O: the walk appends them in O's order, each image the code of
    the previous translate under g.  Every appended image is new, so each
    code after C is canonicalised once, g.C as the first of its
    translates, and each other strict relation costs one test of g.C: at
    most |U.C| - 1 + r canonicalisations for r strict relations, and none
    for an addition that fixes C, as column j is zero or e_i is a canonical
    row.  ``_admit`` admits one code at a time, so the walk stops exactly
    when |U.C| exceeds the budget.  From the all-ones code on a chain the
    first code with one nonzero coordinate is reached by the paper's fold
    map."""
    q = code.q
    height = poset.heights()
    strict = sorted(
        ((i - 1, j - 1) for i, j in poset.strict_pairs() if i - 1 not in fixed),
        key=lambda pair: (height[pair[0]] - height[pair[1]], -pair[1], pair[0]),
    )
    zero = {j for j, column in enumerate(zip(*code.generators)) if not any(column)}
    # e_p, as the pivot is 1 and entries lie in 0..q-1
    unit = {p - 1 for row, p in zip(code.generators, code.pivots) if sum(row) == 1}
    members = set()
    _admit(members, code, orbit_budget)
    yield code, None
    orbit = [(code, 0)]  # (code, its index in walk order)
    for i, j in strict:
        if j in zero or i in unit:
            continue
        image = _add(code, i, j)
        if image in members:
            continue
        translate, translates = orbit, []
        for _ in range(q - 1):
            translate, previous = [], translate
            for current, parent in previous:
                if image is None:
                    image = _add(current, i, j)
                _admit(members, image, orbit_budget)
                yield image, (parent, i, j)
                translate.append((image, len(members) - 1))
                image = None
            translates += translate
        orbit += translates


def _matrices(walk: list, wanted, start: tuple) -> list:
    """The pairs ``(code, matrix)`` at the indices ``wanted`` of ``walk``,
    ``_unipotent_walk``'s items in order: each matrix, mapping C onto its
    code, replayed along only the steps that reach it from ``start``, the
    matrix mapping C onto the walk's first code."""
    q = walk[0][0].q
    needed, matrices = {0}, {0: start}
    for t in wanted:
        while t not in needed:
            needed.add(t)
            t = walk[t][1][0]
    for t in sorted(needed)[1:]:
        parent, i, j = walk[t][1]
        matrix = matrices[parent]
        added = tuple((a + b) % q for a, b in zip(matrix[i], matrix[j]))
        matrices[t] = matrix[:i] + (added,) + matrix[i + 1 :]
    return [(walk[t][0], matrices[t]) for t in wanted]


def _add(code: LinearCode, i: int, j: int) -> LinearCode:
    """The canonical code's image under the addition of x_j to x_i
    (0-based).

    Only the rows with a nonzero entry at j change, and only at i.  When i
    is not a pivot column and each of those rows has its pivot left of i,
    every pivot stays its row's first entry and every pivot column a unit
    column, so the summed rows are already reduced, with the same pivots:
    no elimination is needed.  Otherwise ``rref`` reduces the image."""
    q, n = code.q, code.n
    rows = [
        row[:i] + ((row[i] + row[j]) % q,) + row[i + 1 :] if row[j] else row
        for row in code.generators
    ]
    if i + 1 not in code.pivots and all(
        p <= i for row, p in zip(code.generators, code.pivots) if row[j]
    ):
        return LinearCode(q, n, tuple(rows), code.pivots)
    return LinearCode(q, n, *rref(q, n, rows))


def _inverse(sigma: tuple) -> tuple:
    inverse = [0] * len(sigma)
    for i, s in enumerate(sigma, start=1):
        inverse[s - 1] = i
    return tuple(inverse)


def _permuted(code: LinearCode, take, place: tuple) -> LinearCode:
    """The canonical code's image under x -> T_sigma(x), ``take`` the
    ``itemgetter`` of sigma's 0-based entries and ``place`` the inverse's:
    column p (1-based) moves to place[p - 1] (0-based), so each pivot
    column stays a unit column.

    When each row's pivot, at its new place, is still the row's first
    nonzero entry, the rows sorted by that place are already reduced: no
    elimination is needed.  Otherwise ``rref`` reduces the image."""
    rows = list(map(take, code.generators))
    led = []  # (the pivot's new column, row)
    for row, p in zip(rows, code.pivots):
        t = place[p - 1]
        if any(row[:t]):
            return LinearCode(code.q, code.n, *rref(code.q, code.n, rows))
        led.append((t + 1, row))
    led.sort()
    pivots, generators = zip(*led)
    return LinearCode(code.q, code.n, generators, pivots)


def _scaled(code: LinearCode, c: int, root: int) -> LinearCode:
    """The canonical code's image under the scaling of x_c (0-based) by
    ``root``, with the same pivots and no elimination.

    When c is a pivot column, its row, the only one nonzero there, is
    divided by the root off its pivot.  Otherwise each row nonzero at c
    has that entry times the root.  Every other row is kept as it is."""
    q, generators = code.q, code.generators
    if c + 1 in code.pivots:
        k = code.pivots.index(c + 1)
        row, inverse = generators[k], pow(root, q - 2, q)
        row = row[: c + 1] + tuple([v * inverse % q for v in row[c + 1 :]])
        generators = generators[:k] + (row,) + generators[k + 1 :]
    else:
        generators = tuple(
            [row[:c] + (row[c] * root % q,) + row[c + 1 :] if row[c] else row for row in generators]
        )
    return LinearCode(q, code.n, generators, code.pivots)


def _witness(poset: Poset, q: int, sigma: tuple, scale: tuple, matrix: tuple) -> PIsometry:
    """The isometry (sigma, D.A), D the diagonal ``scale``, that reaches a
    block image of the code A maps C onto."""
    rows = tuple(tuple(d * a % q for a in row) for d, row in zip(scale, matrix))
    return PIsometry._trusted(poset, q, sigma, rows)


def _block_images(codes: list, size: int, poset: Poset, orbit_budget: int):
    """The images of ``codes`` in the blocks after U.C, as ``(image, x,
    sigma, scale)``: the image of the code x of ``codes`` under the block
    map (sigma, D), D the diagonal ``scale``, so its witness is (sigma, D.A)
    for the matrix A mapping C onto x (``_witness``).  ``codes`` are the
    codes X that a block holds of one kind that monomial maps keep, with
    ``size`` codes per block: those of one value of U_Z.C0 or U.C, with
    its size, all of U.C, or those of one row-group shape of U_Z.C0, with
    size |U.C|, the block's own size, so the budget counts whole blocks.

    A block map m = (sigma, D) acts as x -> T_sigma(D x), T_s(v)_i =
    v[s(i)], and T_g after T_b is T_take(b), take the ``itemgetter`` of g.
    Each stage has its table of moves (take, place, c): first the
    primitive-root scaling of each x_c (no take or place), as the scalings
    normalise U, then each generator g of Aut(P), which normalises both,
    walking X and its scaled images.  For each block's representative rep,
    in the order found, and each move, a new image of X[0] under the move
    after rep opens its block, walked in the order of the stage's codes.
    The stage keeps its blocks' images in order, so each image is one move
    from rep's, as a scaling stage's sigma is the identity and an Aut(P)
    stage's D is that of the scaled code it moves; a rep keeps only the
    other.  A move is taken by its kind's kernel: ``_permuted`` with g's
    ``take`` and inverse ``place``, both built once per call with the move
    table, or ``_scaled`` with c and the root.

    Column j of X[0] is mult[j] times the representative of its projective
    class, so a map's arrangement, one int per place t, is class * q +
    D[sigma(t)] * mult[sigma(t)] mod q for the class of column sigma(t).  A
    move's is rep's permuted by take, or with place c's multiple times the
    root.  A move whose arrangement the stage has met, the identity's
    first, is not taken, as equal arrangements give equal generator
    matrices and ``_admit`` would refuse the image; sigma is composed only
    for a new image.

    A block m(U.C) is new exactly when m(X[0]) is, and its codes of that
    kind are m(X), so the blocks open in the order and with the maps of the
    whole walk, each image keeps its witness, and every image in a new
    block is new.  With b blocks opened, |X| * b images are admitted, which
    reaches |X| * (budget // size) exactly when ``size`` codes per block
    pass the budget: the walk stops then, at a block boundary, with the
    message of a walk of the whole orbit.  With no move, over GF(2) on a
    poset with no automorphism but the identity, every block is U.C: the
    walk yields nothing, and builds no class and no move table."""
    code = codes[0]
    q, n = code.q, code.n
    gens = poset.automorphisms()[0]
    if q == 2 and not gens:  # no scaling and no automorphism: U.C is the orbit
        return
    limit = orbit_budget // size * len(codes)
    seen = set(codes)
    identity, ones, root = tuple(range(1, n + 1)), (1,) * n, primitive_root(q)
    classes, start = {}, []
    for column in zip(*code.generators):
        lead = next(filter(None, column), 0)
        inv = pow(lead, q - 2, q) if lead > 1 else 1
        column = tuple([v * inv % q for v in column])
        start.append(classes.setdefault(column, len(classes)) * q + lead)
    scalings = [(None, None, c) for c in range(n * (q > 2))]
    automorphisms = [
        (itemgetter(*[s - 1 for s in g]), tuple(t - 1 for t in _inverse(g)), None) for g in gens
    ]
    scaled = []  # (image, x, D) of the scaling stage, whose images the Aut(P) stage walks too
    try:
        for moves, first in ((scalings, ones), (automorphisms, identity)):
            walked = [(x, x, ones) for x in codes] + scaled
            imaged = [image for image, _, _ in walked]  # each block's, whole, in order
            reps, tried = [(first, tuple(start))], {tuple(start)}
            for at, (rep_map, rep_arranged) in zip(count(0, len(walked)), reps):
                for take, place, c in moves:
                    if take:
                        arranged = take(rep_arranged)
                    else:  # the multiple at place c times the root
                        a = rep_arranged[c]
                        a += a % q * root % q - a % q
                        arranged = rep_arranged[:c] + (a,) + rep_arranged[c + 1 :]
                    if arranged in tried:
                        continue
                    tried.add(arranged)
                    if take:
                        image = _permuted(imaged[at], take, place)
                    else:
                        image = _scaled(imaged[at], c, root)
                    if not _admit(seen, image, limit):
                        continue
                    if take:
                        sigma = mapped = take(rep_map)
                    else:
                        sigma = identity
                        mapped = rep_map[:c] + (rep_map[c] * root % q,) + rep_map[c + 1 :]
                    reps.append((mapped, arranged))
                    for index, (_, x, scale) in enumerate(walked):
                        if index:  # every image in a new block is new
                            if take:
                                image = _permuted(imaged[at + index], take, place)
                            else:
                                image = _scaled(imaged[at + index], c, root)
                            _admit(seen, image, limit)
                        imaged.append(image)
                        if not take:  # the scaling stage's D is its block's
                            scale = mapped
                            scaled.append((image, x, scale))
                        yield image, x, sigma, scale
    except ResourceLimitError:
        raise ResourceLimitError(f"orbit exceeds budget of {orbit_budget} codes") from None


def orbit_codes(
    code: LinearCode, poset: Poset, *, orbit_budget: int = DEFAULT_ORBIT_BUDGET
) -> dict:
    """Distinct orbit codes in walk order, each mapped to the isometry
    reaching it: U.C by ``_unipotent_walk``, every code's matrix rebuilt by
    ``_matrices``, then its blocks by ``_block_images`` with X all of U.C,
    each image's witness its block map after its code's matrix
    (``_witness``).

    That makes at most |U.C| - 1 + r canonicalisations for U.C, r the
    number of strict relations, and at most n + generators of Aut(P) + 1
    monomial images for each later code, fewer as the block walks skip a
    move that arranges the columns as one tried before, and an image needs
    an elimination only when a pivot does not stay its row's first entry:
    the all-ones code on ``chain:6`` over GF(2) takes 41 canonicalisations,
    9 of them eliminations (``_add``), for its 32 codes, where trying every
    move from every code takes 480, and the pair code on ``antichain:6``
    takes 14 images and no elimination for its 15.  A poset of another
    length is refused before any image; the orbit budget stops the walk
    exactly when the orbit exceeds it."""
    _check_length(code, poset)
    identity, ones = tuple(range(1, code.n + 1)), (1,) * code.n
    walk = list(_unipotent_walk(code, poset, orbit_budget))
    matrices = dict(_matrices(walk, range(len(walk)), _eye(code.n)))
    orbit = {x: _witness(poset, code.q, identity, ones, a) for x, a in matrices.items()}
    for image, x, sigma, scale in _block_images(list(matrices), len(walk), poset, orbit_budget):
        orbit[image] = _witness(poset, code.q, sigma, scale, matrices[x])
    return orbit


def _spanned(q: int, columns: list, over: list):
    """Each ``(i, row)``, i ascending, where column i lies in the span of
    the columns at the 0-based indices ``over[i]``: row is e_i - sum c_ij
    e_j with col_i = sum c_ij col_j, the row i of the element that zeroes
    that column, and e_i for a zero column.  On the code's side ``over``
    holds the columns above each coordinate and the element lies in U; on
    the dual's, it holds the parity-check columns below it and the element
    lies in U_P*.

    The supports settle most columns with no elimination: a zero column
    lies in the span, and a column nonzero in a row where every column of
    ``over[i]`` is zero does not.  Any other column takes one ``rref`` over
    k + n entries: col_i + e_i is reduced against the rows col_j + e_j of
    ``over[i]``, so col_i lies in the span exactly when its first k entries
    reduce to zero, and the unit entries are then the row, which depends on
    that elimination when the columns of ``over[i]`` are dependent.  The
    matrix need not be canonical: whether a column lies in the span of
    others depends only on the row space."""
    eye = _eye(len(columns))
    masks = list(map(support_mask, columns))
    for i, column in enumerate(columns):
        reached = 0
        for j in over[i]:
            reached |= masks[j]
        if masks[i] & ~reached:  # a row that only col_i reaches
            continue
        k, row = len(column), column + eye[i]
        if masks[i]:
            rows = [columns[j] + eye[j] for j in over[i]]
            for basis, p in zip(*rref(q, k + len(eye), rows)):
                c = row[p - 1]
                row = tuple([(a - c * b) % q for a, b in zip(row, basis)])
            if any(row[:k]):
                continue
        yield i, row[k:]


def _zeroed(code: LinearCode, poset: Poset) -> tuple:
    """The column structure of the code's canonical generator matrix: Z, as
    a dict from each i in Z (0-based) to row i of u0 (``_spanned`` over the
    columns above i), and C0, which is C when Z holds only zero columns and
    is otherwise reduced again."""
    q, n = code.q, code.n
    columns = list(zip(*code.generators))
    above = [[] for _ in columns]
    for i, j in poset.strict_pairs():
        above[i - 1].append(j - 1)
    zeroed = dict(_spanned(q, columns, above))
    start = code
    if any(any(columns[i]) for i in zeroed):
        rows = [[0 if j in zeroed else v for j, v in enumerate(row)] for row in code.generators]
        start = LinearCode(q, n, *rref(q, n, rows))
    return zeroed, start


def _zeroed_walk(code: LinearCode, poset: Poset, orbit_budget: int) -> tuple:
    """u0, and the walk of U_Z.C0 by ``_unipotent_walk``: the codes of U.C
    that are zero on Z, which hold every code of least value in U.C.

    Z holds the coordinates i (0-based) whose column col_i of the code's
    canonical generator matrix lies in W_i, the span of the columns col_j
    with i below j in P: a zero column too.  Row i of u0 is e_i - sum c_ij
    e_j for i in Z, with col_i = sum c_ij col_j, and e_i otherwise, so u0
    is in U and C0 = u0.C is C with the columns of Z set to zero.
    ``_zeroed`` gives Z, each row of u0 and C0, from ``_spanned`` over the
    columns above each coordinate, which settles most of them from the
    column supports alone: a zero column is in Z, and a column nonzero in
    a row where every column above it is zero, as at a maximal i, is not.

    Column i of u.C, u in U, is col_i plus a combination of the columns
    above i, so every code of U.C has the same Z.  A code of U.C nonzero on
    Z is never of least value there: the addition that zeroes that column
    keeps the rank and splits the column's row group, the component of its
    column matroid, of deficiency d >= 1, into parts whose deficiencies sum
    to d - 1, and q^a + q^b <= q^(a+b) for a, b >= 1, so the grouping
    minimum strictly drops.  W_i is spanned by the columns above i outside
    Z, so U_Z, generated by the additions into the rows outside Z, maps C0
    onto every matrix whose column i is 0 for i in Z and lies in col_i +
    W_i otherwise: U_Z.C0 is exactly the codes of U.C zero on Z."""
    zeroed, start = _zeroed(code, poset)
    u0 = tuple(zeroed.get(i, row) for i, row in enumerate(_eye(code.n)))
    return u0, _unipotent_walk(start, poset, orbit_budget, zeroed)


def primary_decomposition(
    code: LinearCode, poset: Poset, *, orbit_budget: int = DEFAULT_ORBIT_BUDGET
) -> PDecomposition:
    """A decomposition of minimal complexity over the whole orbit.

    On a hierarchical poset it is ``hierarchical_decomposition``: the direct
    sum of the code's level projections, reached by a unipotent witness
    with the identity permutation, which need not be the orbit's
    lexicographically least code of that complexity.  No walk runs and no
    orbit budget applies there.  On any other poset, ties are broken by the
    lexicographically smallest canonical generator matrix; the witness is
    the isometry that the walk reaches it by.  Every
    block m(U.C) has the values of U.C, whose codes of least value all lie
    in U_Z.C0 (``_zeroed_walk``), so U_Z.C0 is walked and valued, and the
    blocks are walked only for its codes X of least value, whose images
    are the orbit's codes of that value, each with its block map
    (``_block_images``); only the result's matrix is built, from u0
    (``_matrices``, ``_witness``).  The orbit budget counts the codes of
    U_Z.C0 per block.  The error's partial result is the best code
    admitted before the stop: past U_Z.C0, a code of the least value, so
    it is ``proven_minimal`` though its code and witness may not be the
    tie-break's; inside U_Z.C0, the best of the codes walked, not proven
    minimal.
    """
    _check_length(code, poset)
    if poset.is_hierarchical():
        return hierarchical_decomposition(code, poset)
    identity, ones = tuple(range(1, code.n + 1)), (1,) * code.n
    u0, zeroed = _zeroed_walk(code, poset, orbit_budget)
    walk, values = [], []
    best = None  # ((complexity, generator matrix), index in walk order)

    def decomposed(image, t, sigma=identity, scale=ones, proven_minimal=True):
        """The result for the image under (sigma, D) of the code at index t."""
        [(_, matrix)] = _matrices(walk, [t], u0)
        witness = _witness(poset, code.q, sigma, scale, matrix)
        return PDecomposition(witness, cheapest_grouping(image), best[0][0], proven_minimal)

    try:
        for image, step in zeroed:
            value = min_grouping_complexity(image)
            if best is None or (value, image.generators) < best[0]:
                best = ((value, image.generators), len(walk))
            walk.append((image, step))
            values.append(value)
    except ResourceLimitError as exc:
        if best is not None:
            t = best[1]
            exc.partial_result = decomposed(walk[t][0], t, proven_minimal=False)
        raise
    winner = (walk[best[1]][0], best[1])  # U_Z.C0's best
    ties = {walk[t][0]: t for t, value in enumerate(values) if value == best[0][0]}
    try:
        for image, x, sigma, scale in _block_images(list(ties), len(walk), poset, orbit_budget):
            if image.generators < winner[0].generators:
                winner = (image, ties[x], sigma, scale)
    except ResourceLimitError as exc:
        exc.partial_result = decomposed(*winner)
        raise
    return decomposed(*winner)


def _least_complexity(code: LinearCode, poset: Poset, orbit_budget: int, floor: int = 0) -> int:
    """The least grouping complexity over U_Z.C0 (``_zeroed_walk``), which
    is that of U.C, where no code has a value below ``floor``: the walk
    stops at the first code that reaches it.  Every value is at least 1,
    so a floor of 0 stops no walk."""
    _check_length(code, poset)
    least = None
    for image, _ in _zeroed_walk(code, poset, orbit_budget)[1]:
        value = min_grouping_complexity(image)
        if least is None or value < least:
            least = value
            if least <= floor:
                break
    return least


def minimal_complexity(
    code: LinearCode, poset: Poset, *, orbit_budget: int = DEFAULT_ORBIT_BUDGET
) -> int:
    """The complexity of a primary decomposition, from U_Z.C0 alone.

    It walks U_Z.C0 on every poset, hierarchical ones too, where
    ``primary_decomposition`` takes the closed form instead; so this walk
    is the one the closed form is checked against.  A monomial map, an
    automorphism of P after a diagonal scaling, keeps a code's supports
    and row groups up to the automorphism, so every block
    m(U.C) of the orbit has the same grouping minima as U.C, and every code
    of least value in U.C lies in U_Z.C0, the codes of U.C zero at each
    coordinate whose column lies in the span of the columns above it
    (``_zeroed_walk``).  The orbit budget counts the codes of U_Z.C0.
    """
    return _least_complexity(code, poset, orbit_budget)


# -- irreducibility and profile uniqueness ---------------------------


def _reducible(groups: list, n: int) -> bool:
    """True when a length-n code with the row groups ``groups`` of
    ``_row_groups`` splits into several components or occupies fewer than
    n coordinates; a group's support size is its row count plus its
    deficiency."""
    if len(groups) > 1:
        return True
    rows, deficiency = groups[0]
    return len(rows) + deficiency < n


def _strict_ups(poset: Poset) -> list:
    """The mask of the elements strictly above each element (0-based)."""
    ups = [0] * poset.n
    for i, j in poset.strict_pairs():
        ups[i - 1] |= 1 << j - 1
    return ups


def _splits(q: int, rows: tuple, ups: list) -> bool:
    """True when some code of U.C is reducible, C the full-support code of
    the canonical ``rows`` on n coordinates and ``ups[i]`` the mask of the
    coordinates strictly above i (0-based), found from a zeroable column on
    either side with no walk; False leaves the verdict open.  On n = 1
    every code is irreducible.

    The code's side: a column in the span of the columns above it, the
    first that ``_spanned`` yields over ``above``, is zeroed by some u0 in
    U, and u0.C, C0, has a smaller support.  The dual's side: the dual of
    u.C is u^(-T).C^perp, and u -> u^(-T) maps U_P onto U_P*, which adds
    column j of a parity-check matrix to column i for each j below i in P.
    So when column i of H, the rows of ``_parity_rows``, lies in the span
    of the columns below i, as ``_spanned`` over ``below`` finds, some u.C
    has a dual zero at i: u.C holds e_i, a component of its own, so with n
    >= 2 it has several components or a smaller support.  With k = n, H has
    no row and every column of it is zero: the full space is reducible."""
    n = len(ups)
    if n < 2:
        return False
    above = [[j for j in range(n) if up >> j & 1] for up in ups]
    if next(_spanned(q, list(zip(*rows)), above), None) is not None:
        return True
    below = [[j for j in range(n) if ups[j] >> i & 1] for i in range(n)]
    pivots = [row.index(1) + 1 for row in rows]  # a canonical row's first nonzero entry is 1
    columns = list(zip(*_parity_rows(q, n, rows, pivots))) or [()] * n
    return next(_spanned(q, columns, below), None) is not None


def _irreducible(code: LinearCode, poset: Poset, orbit_budget: int) -> tuple:
    """The verdict on a full-support code that ``_splits`` leaves open, True
    when no code of U.C is reducible, and the codes walked, all of one
    orbit and so all of that verdict: the unipotent orbit is walked up to
    its first reducible code."""
    walked = []
    for image, _ in _unipotent_walk(code, poset, orbit_budget):
        walked.append(image)
        if _reducible(_row_groups(image), poset.n):
            return False, walked
    return True, walked


@lru_cache(maxsize=4096)  # bounded, as a long-lived process calls it without end
def is_p_irreducible(
    code: LinearCode, poset: Poset, *, orbit_budget: int = DEFAULT_ORBIT_BUDGET
) -> bool:
    """True when no orbit code splits into several components or occupies a
    smaller support.

    The monomial part of the group, a permutation or a scaling, never
    changes support size or the component count, so U.C alone decides the
    question.  A zeroable column, on the code's side or on the dual's over
    the dual poset, shows a reducible code of U.C with no walk
    (``_splits``); only when there is none is U.C walked, up to its first
    reducible code (``_irreducible``).
    """
    _check_length(code, poset)
    if code.support() != frozenset(range(1, poset.n + 1)):
        raise ValidationError("irreducibility expects a code with full support")
    if _splits(code.q, code.generators, _strict_ups(poset)):
        return False
    return _irreducible(code, poset, orbit_budget)[0]


def verify_profile_uniqueness(
    code: LinearCode, poset: Poset, *, orbit_budget: int = DEFAULT_ORBIT_BUDGET
) -> ProfileUniquenessReport:
    """Scan the orbit and check that every maximal decomposition carries the
    same canonical profile.

    Only the codes of U_Z.C0 are decomposed (``_zeroed``).  Every candidate
    of U.C is zero on Z: a component nonzero at i in Z holds col_i on its
    rows, where the columns outside its support are zero, so col_i lies in
    the span of the columns above it on the component's own support, and
    ``_splits`` finds the component reducible.  U_Z.C0 is the codes of U.C
    zero on Z, so it holds every candidate of U.C, and the first code of
    its walk with each profile.  Setting the columns of Z to zero maps the
    generator matrices of U.C, column i ranging over col_i + W_i, onto
    those of U_Z.C0, q^(dim W_i) to one at each i in Z; a matrix X with
    X.col_j in W_j for every j outside Z has it for j in Z too, as col_j
    lies in W_j there, so both families have the same matrices per code,
    and |U.C| = |U_Z.C0| * q^s with s the sum of dim W_i over Z.  The walk
    of U_Z.C0 runs under the budget // q^s, so it refuses at once when q^s
    alone exceeds the budget, and stops exactly when |U.C| does.

    Each monomial block m(U.C) is a bijective image of U.C that keeps
    maximal decompositions, profiles, the irreducibility of components and
    Z up to the automorphism, so each block holds as many candidates as
    U.C.  The orbit size is |U.C| times the number of blocks.  A monomial
    map keeps a code's shape, the sorted row count and deficiency of each
    row group, so each block holds the image of the codes X of U_Z.C0 of
    one shape, its codes of that shape zero on its Z; the blocks are
    counted by walking X alone, for the shape with fewest codes, as a walk
    of blocks of |U.C| codes, so it stops exactly when the orbit exceeds
    the budget.

    A code of U_Z.C0 is a candidate when each of its row groups, on its
    support, is irreducible for the subposet there, and the one walk
    decides that.  A code that is one group on full support is its own
    component, whose unipotent orbit is U.C: every such code is a candidate
    exactly when no code of U.C is reducible, which the walk settles once it
    ends; then Z is empty, as C0 would have a smaller support, and U_Z.C0
    is U.C.  A component on a support holding no strict relation of P is
    irreducible, as the unipotent group of that subposet is trivial.  Any
    other component is reducible when ``_splits`` finds a zeroable column
    on its side or its dual's, from its rows on its support and the order
    there, with no subposet built and no walk.  Only what that leaves open
    is walked (``_irreducible``): the component's unipotent orbit on its
    subposet, under the same budget since it embeds in U.C, up to its first
    reducible code; the verdict holds for every code that walk yielded, all
    of one orbit, so no later component starting there is walked again in
    this call.
    """
    _check_length(code, poset)
    q, n = code.q, poset.n
    ups = _strict_ups(poset)
    zeroed, start = _zeroed(code, poset)
    columns, s = list(zip(*code.generators)), 0
    for i in zeroed:  # dim W_i, the rank of the columns above i
        s += len(rref(q, code.k, [columns[j] for j in range(n) if ups[i] >> j & 1])[1])
    per_code = q**s  # the codes of U.C per code of U_Z.C0
    verdicts = {}

    def irreducible(image: LinearCode, rows: list) -> bool:
        mask = 0
        for index in rows:
            mask |= support_mask(image.generators[index])
        # its coordinates, and the order there as masks
        coords = [j for j in range(n) if mask >> j & 1]
        local = [sum(1 << b for b, c in enumerate(coords) if ups[a] >> c & 1) for a in coords]
        if not any(local):
            return True
        # the group's canonical rows stay canonical on its support
        generators = tuple(tuple(image.generators[i][j] for j in coords) for i in rows)
        key = (mask, generators)
        if key in verdicts:
            return verdicts[key]
        if _splits(q, generators, local):
            verdicts[key] = False
            return False
        pivots = tuple(coords.index(image.pivots[i] - 1) + 1 for i in rows)
        component = LinearCode(q, len(coords), generators, pivots)
        subposet = poset.restrict([j + 1 for j in coords])
        verdict, walked = _irreducible(component, subposet, orbit_budget)
        verdicts.update({(mask, other.generators): verdict for other in walked})
        return verdict

    shapes = {}  # the codes of U_Z.C0 of each shape
    candidates = 0
    profiles = {}
    pending = True  # every code so far is one group on full support
    try:
        for image, _ in _unipotent_walk(start, poset, orbit_budget // per_code, zeroed):
            groups = _row_groups(image)
            shape = tuple(sorted((len(rows), deficiency) for rows, deficiency in groups))
            shapes.setdefault(shape, []).append(image)
            if not _reducible(groups, n):
                continue  # a candidate only if every code of U.C is one too
            pending = False
            if all(irreducible(image, rows) for rows, _ in groups):
                candidates += 1
                sizes = [(len(rows) + deficiency, len(rows)) for rows, deficiency in groups]
                j0 = n - sum(size for size, _ in sizes)
                profiles.setdefault(((j0, j0), *sorted(sizes)), image)
    except ResourceLimitError:
        raise ResourceLimitError(f"orbit exceeds budget of {orbit_budget} codes") from None
    unipotent = sum(map(len, shapes.values())) * per_code  # |U.C|
    if pending:
        candidates = unipotent
        profiles = {((0, 0), (n, code.k)): code}
    # A monomial map m keeps a code's shape, so the orbit's codes of U_Z.C0's
    # rarest shape, each zero on its block's Z, are the images m(X) of its
    # codes X of that shape, |X| per block.
    _, rarest = min(shapes.items(), key=lambda item: (len(item[1]), item[0]))
    images = sum(1 for _ in _block_images(rarest, unipotent, poset, orbit_budget))
    blocks = 1 + images // len(rarest)
    ok = len(profiles) == 1
    return ProfileUniquenessReport(
        ok=ok,
        profile=next(iter(profiles)) if ok else None,
        candidates=candidates * blocks,
        orbit_size=unipotent * blocks,
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
    The complexity is read off that grouping, so the row groups are found
    once.  The witness has the identity permutation and a unipotent matrix
    in the triangular part, built here and so not checked again.
    """
    _check_length(code, poset)
    if not poset.is_hierarchical():
        raise ValidationError("closed-form decomposition needs a hierarchical poset")
    image, entries = _level_sum(code, poset.heights())
    matrix = [list(row) for row in _eye(code.n)]
    for i, p, c in entries:
        matrix[i][p] = c
    matrix = tuple(map(tuple, matrix))
    witness = PIsometry._trusted(poset, code.q, tuple(range(1, code.n + 1)), matrix)
    dec = cheapest_grouping(image)
    return PDecomposition(witness, dec, dec.complexity())


def hierarchy_bounds(
    code: LinearCode, poset: Poset, *, orbit_budget: int = DEFAULT_ORBIT_BUDGET
) -> BoundsReport:
    """Minimal complexities for the hierarchical neighbours, sandwiching the
    poset's own value.

    Both neighbour values are exact and come from the closed form of
    :func:`hierarchical_decomposition`, so no budget applies to them.  So
    does the poset's own value when the poset is hierarchical, or when the
    two neighbour values are equal, since they sandwich it.  Otherwise it
    is the least grouping complexity over U_Z.C0, as in
    :func:`minimal_complexity`.  Refining the order never raises the
    complexity, so no code of U.C goes below the upper neighbour's value,
    and the walk stops at the first code that reaches it.  It is None when
    the walk exceeds the orbit budget before then.
    """
    _check_length(code, poset)
    o_upper = min_grouping_complexity(_level_sum(code, poset.heights())[0])
    if poset.is_hierarchical():  # its own upper and lower neighbour
        return BoundsReport(poset, poset, o_upper, o_upper, o_upper)
    blocks = _block_ranks(poset)
    o_lower = min_grouping_complexity(_level_sum(code, blocks)[0])
    upper = upper_neighbour(poset)
    lower = Poset.from_ranks(blocks)
    if o_upper == o_lower:
        return BoundsReport(upper, lower, o_upper, o_lower, o_upper)
    try:
        o_p = _least_complexity(code, poset, orbit_budget, floor=o_upper)
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
