"""Independent reference implementations used to check library results.

Everything here recomputes answers from first principles (pair-set
closures, exhaustive partition searches, closed-form weights) without
touching the production code paths it validates.
"""

from itertools import combinations, product
from math import prod


def closure_pairs(n, pairs):
    """Reflexive-transitive closure as a plain set of pairs (Warshall)."""
    rel = {(i, i) for i in range(1, n + 1)}
    rel.update(tuple(p) for p in pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def longest_chain_heights(n, strict_pairs):
    """Heights by longest strict chain ending at each element."""
    below = {i: {a for (a, b) in strict_pairs if b == i} for i in range(1, n + 1)}
    heights = {}

    def height(i):
        if i not in heights:
            heights[i] = 1 + max((height(j) for j in below[i]), default=0)
        return heights[i]

    return tuple(height(i) for i in range(1, n + 1))


def order_masks(poset):
    """Each element's up-set and down-set as bitmasks, read off ``leq``."""
    elements = range(1, poset.n + 1)
    up = [sum(1 << (j - 1) for j in elements if poset.leq(i, j)) for i in elements]
    down = [sum(1 << (j - 1) for j in elements if poset.leq(j, i)) for i in elements]
    return up, down


def reference_level_structure(poset):
    """Heights, levels and type vector as ``Poset.level_structure`` first
    built them: the elements in order of down-set size, each one higher
    than the highest element below it."""
    n = poset.n
    _, down = order_masks(poset)
    h = [1] * n
    for i in sorted(range(n), key=lambda i: bin(down[i]).count("1")):
        for j in range(n):
            if j != i and down[i] >> j & 1 and h[j] + 1 > h[i]:
                h[i] = h[j] + 1
    levels = tuple(
        frozenset(i + 1 for i in range(n) if h[i] == lvl) for lvl in range(1, max(h) + 1)
    )
    return tuple(h), levels, tuple(len(lv) for lv in levels)


def reference_hierarchy_flags(poset, levels):
    """The flags as ``Poset.hierarchy_flags`` first built them from
    ``levels``: a level is flagged when the down-set of each of its
    elements holds every element of the levels below it."""
    _, down = order_masks(poset)
    flags = [True]
    lower = 0
    for lvl in range(1, len(levels)):
        for i in levels[lvl - 1]:
            lower |= 1 << (i - 1)
        flags.append(all(down[a - 1] & lower == lower for a in levels[lvl]))
    return tuple(flags)


def reference_cycle(n, pairs):
    """The pair of elements that ``Poset.from_covers`` first named for a
    cyclic input, or None: after Warshall on the up-sets, the least i, then
    the least j in i's strict up-set, whose up-set holds i."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a - 1] |= 1 << (b - 1)
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    for i in range(n):
        for j in range(n):
            if j != i and up[i] >> j & 1 and up[j] >> i & 1:
                return i + 1, j + 1
    return None


def hamming_distance(x, y):
    return sum(a != b for a, b in zip(x, y))


def top_disagreement_index(x, y):
    return max((i + 1 for i in range(len(x)) if x[i] != y[i]), default=0)


def hierarchical_weight(type_vector, x):
    """Closed-form weight for a naturally labelled hierarchical poset:
    Hamming weight on the top occupied level plus the sizes of all lower
    levels."""
    levels = []
    start = 0
    for size in type_vector:
        levels.append(range(start, start + size))
        start += size
    occupied = [
        lvl for lvl, members in enumerate(levels) if any(x[i] for i in members)
    ]
    if not occupied:
        return 0
    top = max(occupied)
    return sum(1 for i in levels[top] if x[i]) + sum(type_vector[:top])


# -- canonical rows and row groups as first written ---------------------


def reference_rref(q, n, rows):
    """Reduced row echelon form over GF(q) as the code module first wrote
    it: every pivot rescaled, every entry taken mod q at each step and once
    more on return.  Returns (rows, 1-based pivot columns)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col] % q), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = pow(mat[r][col] % q, q - 2, q)
        mat[r] = [(v * inv) % q for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] % q:
                c = mat[i][col]
                mat[i] = [(a - c * b) % q for a, b in zip(mat[i], mat[r])]
        pivots.append(col + 1)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(v % q for v in mat[i]) for i in range(r)), tuple(pivots)


def reference_row_groups(code):
    """The canonical rows grouped into the finest components as the
    decomposition module first wrote it: union-find over coordinates, each
    row anchored at its pivot; groups in order of their smallest
    coordinate, each with its deficiency (support size minus row count)."""
    parent = list(range(code.n))

    def find(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    support = set()
    for row in code.generators:
        coords = [j for j, v in enumerate(row) if v]
        support.update(coords)
        root = find(coords[0])
        for j in coords[1:]:
            parent[find(j)] = root
    groups = {}
    for index, pivot in enumerate(code.pivots):
        groups.setdefault(find(pivot - 1), []).append(index)
    sizes = dict.fromkeys(groups, 0)
    for j in support:
        sizes[find(j)] += 1
    return [(rows, sizes[root] - len(rows)) for root, rows in groups.items()]


def set_partitions(items):
    """Every partition of ``items`` into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            block = frozenset((first,) + extra)
            remaining = [e for e in rest if e not in block]
            for tail in set_partitions(remaining):
                yield [block] + tail


def _word_support_masks(code):
    masks = []
    for word in code.codewords():
        mask = 0
        for i, v in enumerate(word):
            if v:
                mask |= 1 << i
        masks.append(mask)
    return masks


def block_dimensions(code):
    """Dimension of the subcode supported inside every subset of the support,
    keyed by coordinate bitmask, computed by counting codewords."""
    masks = _word_support_masks(code)
    supp_mask = 0
    for j in code.support():
        supp_mask |= 1 << (j - 1)
    dims = {}
    sub = supp_mask
    while True:
        count = sum(1 for m in masks if m & ~sub == 0)
        dim = 0
        while code.q**dim < count:
            dim += 1
        assert code.q**dim == count, "subcode size is not a power of q"
        dims[sub] = dim
        if sub == 0:
            break
        sub = (sub - 1) & supp_mask
    return dims


def subcode_dimension(code, block):
    """Dimension of the codewords supported inside ``block``, by counting."""
    mask = 0
    for j in block:
        mask |= 1 << (j - 1)
    masks = _word_support_masks(code)
    count = sum(1 for m in masks if m & ~mask == 0)
    dim = 0
    while code.q**dim < count:
        dim += 1
    assert code.q**dim == count, "subcode size is not a power of q"
    return dim


def brute_force_finest_partition(code):
    """The unique valid support partition with the most blocks, where a
    partition is valid when the blockwise subcodes sum to the code."""
    supp = sorted(code.support())
    dims = block_dimensions(code)

    def mask_of(block):
        mask = 0
        for j in block:
            mask |= 1 << (j - 1)
        return mask

    valid = []
    for blocks in set_partitions(supp):
        if sum(dims[mask_of(b)] for b in blocks) == code.k:
            valid.append(set(blocks))
    best_size = max(len(blocks) for blocks in valid)
    best = [blocks for blocks in valid if len(blocks) == best_size]
    assert len(best) == 1, "finest decomposition is not unique"
    return best[0]


def reference_maximal_decomposition(code):
    """The finest decomposition as the decomposition module first wrote it:
    union-find over the coordinates of each row, each row's component
    rebuilt from its generators."""
    from posetcodes.code import LinearCode
    from posetcodes.decomposition import Decomposition

    supp = sorted(code.support())
    parent = {j: j for j in supp}

    def find(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for row in code.generators:
        coords = [j + 1 for j in range(code.n) if row[j]]
        root = find(coords[0])
        for j in coords[1:]:
            parent[find(j)] = root
    groups = {}
    for row in code.generators:
        anchor = find(next(j + 1 for j in range(code.n) if row[j]))
        groups.setdefault(anchor, []).append(row)
    components = [
        LinearCode.from_generators(code.q, code.n, rows) for rows in groups.values()
    ]
    return Decomposition(code, components)


def reference_cheapest_grouping(code):
    """The cheapest grouping as first written: the finest components built,
    then the zero-deficiency ones merged into the first positive one (or
    all together when none is positive) and the merged codes rebuilt."""
    from posetcodes.code import LinearCode
    from posetcodes.decomposition import Decomposition

    finest = reference_maximal_decomposition(code)
    positive = [c for c in finest.components if len(c.support()) - c.k > 0]
    zero = [c for c in finest.components if len(c.support()) - c.k == 0]
    if not positive:
        groups = [list(finest.components)]
    elif zero:
        groups = [[positive[0], *zero]] + [[c] for c in positive[1:]]
    else:
        groups = [[c] for c in positive]
    merged = []
    for group in groups:
        rows = [row for comp in group for row in comp.generators]
        merged.append(LinearCode.from_generators(code.q, code.n, rows))
    return Decomposition(code, merged)


def grouping_minimum(code):
    """Minimum table size over all groupings of the finest components."""
    comps = reference_maximal_decomposition(code).components
    deficiencies = [len(c.support()) - c.k for c in comps]
    best = None
    for blocks in set_partitions(range(len(comps))):
        total = sum(code.q ** sum(deficiencies[i] for i in block) for block in blocks)
        if best is None or total < best:
            best = total
    return best


def refinement_reachable(start, include_whole_part_aggregates=False):
    """Everything reachable from a pointed partition by one-step moves;
    ``include_whole_part_aggregates`` also lets a move absorb an entire part
    into j0, the alternative reading of an aggregate."""
    from posetcodes.partition import PointedPartition

    def successors(current):
        yield from current.one_step_successors()
        if include_whole_part_aggregates:
            for part in current.parts:
                rest = [p for p in current.parts if p != part]
                yield PointedPartition(current.n, current.j0 | part, rest)

    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for current in frontier:
            for succ in successors(current):
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
    return seen


def reference_poset_restrict(poset, coords):
    """The induced subposet as ``Poset.restrict`` first built it: every
    related pair of ``coords``, relabelled, sent through ``from_covers``."""
    from posetcodes.poset import Poset

    sub = sorted(set(coords))
    pairs = [
        (a + 1, b + 1)
        for a, i in enumerate(sub)
        for b, j in enumerate(sub)
        if i != j and poset.leq(i, j)
    ]
    return Poset.from_covers(len(sub), pairs)


def reference_code_restrict(code, coords):
    """The code on ``coords`` as ``LinearCode.restrict`` first built it: the
    generator rows cut to ``coords`` and reduced again by ``from_generators``."""
    from posetcodes.code import LinearCode
    from posetcodes.errors import ValidationError

    sub = sorted(set(coords))
    outside = [j for j in range(1, code.n + 1) if j not in set(sub)]
    for row in code.generators:
        if any(row[j - 1] for j in outside):
            raise ValidationError("code is not supported inside the given coordinates")
    rows = [tuple(row[j - 1] for j in sub) for row in code.generators]
    return LinearCode.from_generators(code.q, len(sub), rows)


def reference_from_ranks(ranks):
    """The hierarchical poset of ``ranks`` as ``Poset.from_ranks`` first
    built it: every rank-ordered pair sent through ``from_covers``."""
    from posetcodes.poset import Poset

    n = len(ranks)
    pairs = [(a + 1, b + 1) for a in range(n) for b in range(n) if ranks[a] < ranks[b]]
    return Poset.from_covers(n, pairs)


# -- automorphisms by lexicographic search -----------------------------


def reference_automorphisms(poset):
    """Every order automorphism, in lexicographic order: sigma(1), sigma(2),
    ... fixed in turn, each from the elements with the same (height,
    |up-set|, |down-set|) in ascending order.  A candidate m for sigma(i) is
    kept when it is unused and its up- and down-sets among the images placed
    so far are the images of i's up- and down-sets among the elements placed
    so far.  It lists the whole group, n! tuples on an antichain."""
    n = poset.n
    up, down = order_masks(poset)
    heights = poset.heights()
    sig = [(heights[i], bin(up[i]).count("1"), bin(down[i]).count("1")) for i in range(n)]
    candidates = [[m for m in range(n) if sig[m] == sig[i]] for i in range(n)]
    image = [0] * n  # image[k] is the bit of sigma(k + 1) once k is placed
    found = []

    def extend(i, used):
        if i == n:
            found.append(tuple(bit.bit_length() for bit in image))
            return
        want_up = want_down = 0
        for k in range(i):
            if up[i] >> k & 1:
                want_up |= image[k]
            if down[i] >> k & 1:
                want_down |= image[k]
        for m in candidates[i]:
            bit = 1 << m
            if not used & bit and up[m] & used == want_up and down[m] & used == want_down:
                image[i] = bit
                extend(i + 1, used | bit)

    extend(0, 0)
    return found


def reference_generators(poset):
    """The generating set that ``Poset.automorphisms`` documents, read off
    the lexicographic list: for i = n down to 1, the first automorphism in
    the list that fixes 1..i-1 and maps i to m, for each m in ascending
    order that the generators found so far do not map i to."""
    autos = reference_automorphisms(poset)
    n = poset.n
    generators = []
    for i in range(n, 0, -1):
        for m in range(i + 1, n + 1):
            if m in permutation_orbit(i, generators):
                continue
            prefix = tuple(range(1, i)) + (m,)
            found = [sigma for sigma in autos if sigma[:i] == prefix]
            if found:
                generators.append(found[0])
    return generators


def permutation_orbit(point, generators):
    """The points that products of the permutations reach from ``point``."""
    orbit = {point}
    frontier = [point]
    for p in frontier:
        for g in generators:
            if g[p - 1] not in orbit:
                orbit.add(g[p - 1])
                frontier.append(g[p - 1])
    return orbit


def generated_group(generators, n):
    """Every product of the permutations of [n], the identity included."""
    identity = tuple(range(1, n + 1))
    group = {identity}
    frontier = [identity]
    for sigma in frontier:
        for g in generators:
            product = tuple(sigma[g[i] - 1] for i in range(n))
            if product not in group:
                group.add(product)
                frontier.append(product)
    return group


# -- full-enumeration orbit walk ---------------------------------------
#
# The orbit loops as the search module first wrote them: every isometry of
# the group enumerated, validated, applied and deduplicated, with a separate
# walk per question.  Production walks the unipotent part breadth-first
# and maps that orbit by scalings and automorphisms; these stay as the
# reference its decompositions, orbit sets and reports must match.


def enumerate_isometries(poset, q, budget=10**7):
    """Every isometry exactly once: automorphisms in lexicographic order,
    then matrix entries in row-major lexicographic order."""
    from posetcodes.errors import ResourceLimitError
    from posetcodes.isometry import PIsometry, group_size

    size = group_size(poset, q)
    if size > budget:
        raise ResourceLimitError(
            f"isometry group of size {size} exceeds budget {budget}"
        )
    n = poset.n
    slots = []
    for i in range(n):
        for j in range(n):
            if i == j:
                slots.append(((i, j), range(1, q)))
            elif poset.leq(i + 1, j + 1):
                slots.append(((i, j), range(q)))
    positions = [slot[0] for slot in slots]
    ranges = [slot[1] for slot in slots]
    for sigma in reference_automorphisms(poset):
        for values in product(*ranges):
            rows = [[0] * n for _ in range(n)]
            for (i, j), v in zip(positions, values):
                rows[i][j] = v
            yield PIsometry(poset, q, sigma, rows)


def reference_orbit_codes(code, poset, group_budget=10**7, orbit_budget=10**5):
    """Distinct orbit codes mapped to the first isometry reaching each."""
    from posetcodes.errors import ResourceLimitError

    seen = {}
    for iso in enumerate_isometries(poset, code.q, budget=group_budget):
        image = iso.apply_code(code)
        if image not in seen:
            if len(seen) >= orbit_budget:
                raise ResourceLimitError(
                    f"orbit exceeds budget of {orbit_budget} codes"
                )
            seen[image] = iso
    return seen


def reference_primary_decomposition(code, poset, group_budget=10**7, orbit_budget=10**5):
    """Minimal complexity over the orbit; ties go to the smallest generator
    matrix, then to the earliest isometry."""
    from posetcodes.errors import ResourceLimitError
    from posetcodes.search import PDecomposition

    best = None  # (complexity, generator matrix, witness, image)
    seen = set()
    for iso in enumerate_isometries(poset, code.q, budget=group_budget):
        image = iso.apply_code(code)
        if image in seen:
            continue
        if len(seen) >= orbit_budget:
            partial = None
            if best is not None:
                _, _, witness, img = best
                partial = PDecomposition(
                    witness, reference_cheapest_grouping(img), best[0], proven_minimal=False
                )
            raise ResourceLimitError(
                f"orbit exceeds budget of {orbit_budget} codes", partial_result=partial
            )
        seen.add(image)
        value = reference_cheapest_grouping(image).complexity()
        key = (value, image.generators)
        if best is None or key < (best[0], best[1]):
            best = (value, image.generators, iso, image)
    value, _, witness, image = best
    return PDecomposition(witness, reference_cheapest_grouping(image), value)


def reference_is_p_irreducible(code, poset):
    """No image of a full-support code under the whole group occupies a
    smaller support or splits into several components."""
    return all(
        len(image.support()) == poset.n and reference_maximal_decomposition(image).r == 1
        for image in reference_orbit_codes(code, poset)
    )


def reference_profile_candidates(code, poset):
    """The maximal decompositions of the orbit codes whose every component
    is irreducible on its support, from a full walk of the orbit."""
    candidates = []
    for image in reference_orbit_codes(code, poset):
        dec = reference_maximal_decomposition(image)
        if all(
            reference_is_p_irreducible(
                reference_code_restrict(comp, comp.support()),
                reference_poset_restrict(poset, comp.support()),
            )
            for comp in dec.components
        ):
            candidates.append(dec)
    return candidates


def reference_profile_uniqueness(code, poset):
    """Profile-uniqueness report from two full walks of the orbit."""
    from posetcodes.search import ProfileUniquenessReport

    orbit = reference_orbit_codes(code, poset)
    candidates = reference_profile_candidates(code, poset)
    profiles = {}
    for dec in candidates:
        profiles.setdefault(dec.profile(), dec.code)
    if len(profiles) == 1 and candidates:
        return ProfileUniquenessReport(
            ok=True,
            profile=next(iter(profiles)),
            candidates=len(candidates),
            orbit_size=len(orbit),
        )
    return ProfileUniquenessReport(
        ok=False,
        profile=None,
        candidates=len(candidates),
        orbit_size=len(orbit),
        conflicts=sorted(profiles.items(), key=lambda item: item[0]),
    )


def reference_primitive_root(q):
    """The least element of GF(q) of multiplicative order q - 1, each
    candidate's order found by repeated multiplication."""

    def order(g):
        power, k = g, 1
        while power != 1:
            power, k = power * g % q, k + 1
        return k

    return next(g for g in range(1, q) if order(g) == q - 1)


def reference_orbit_walk(code, poset, orbit_budget=10**5, unipotent=None):
    """The orbit walk's items ``(image, sigma, matrix)`` in the order the
    search module documents, from whole matrices.  First the unipotent walk:
    the matrices of ``unipotent`` in their order, each image computed here,
    or when that is None, breadth-first from the identity, each matrix A
    taken to E.A for each strict relation i < j by column j descending, row
    i ascending, where E is the identity plus a 1 at (i, j), and kept when
    E.A.C is new.  Then two block walks, each under monomial matrices: the
    scalings of each coordinate by the least element of order q - 1 (none
    over GF(2)) over the unipotent images, then the permutation matrices of
    ``reference_generators`` over all images so far.  In each, for each
    block's matrix R, in the order the blocks were found, and each
    generator G in turn, every walked image A.C is mapped by G.R,
    canonicalised and kept when new, and G.R represents a new block when
    any image was new.  G.R.A = P_sigma.(D.A), where (P_sigma x)_i =
    x_sigma(i), so the witness matrix D.A is G.R.A with its rows moved back
    by sigma.  The budget counts codes alone."""
    from posetcodes.code import LinearCode
    from posetcodes.errors import ResourceLimitError, ValidationError

    if poset.n != code.n:
        raise ValidationError(f"poset size {poset.n} != code length {code.n}")
    q, n = code.q, code.n
    eye = [[int(i == j) for j in range(n)] for i in range(n)]

    def times(a, b):
        return [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a]

    def image_of(w, generators=code.generators):
        rows = [[sum(x * y for x, y in zip(row, g)) for row in w] for g in generators]
        return LinearCode.from_generators(q, n, rows)

    seen = set()

    def admit(image):
        if image in seen:
            return False
        if len(seen) >= orbit_budget:
            raise ResourceLimitError(f"orbit exceeds budget of {orbit_budget} codes")
        seen.add(image)
        return True

    def block_walk(walked, generators):
        blocks = [eye]
        for r in blocks:
            for g in generators:
                block = times(g, r)
                sigma = tuple(1 + next(j for j in range(n) if row[j]) for row in block)
                new = False
                for a, walked_image in walked:
                    image = image_of(block, walked_image.generators)
                    if admit(image):
                        new = True
                        w = times(block, a)
                        witness = [None] * n
                        for i, s in enumerate(sigma):
                            witness[s - 1] = w[i]
                        yield image, sigma, witness
                if new:
                    blocks.append(block)

    identity = tuple(range(1, n + 1))
    strict = [
        (i, j) for j in reversed(range(n)) for i in range(n) if i != j and poset.leq(i + 1, j + 1)
    ]
    if unipotent is not None:
        unipotent = [([list(row) for row in a], image_of(a)) for a in unipotent]
        for a, image in unipotent:
            admit(image)
            yield image, identity, tuple(map(tuple, a))
    else:
        unipotent = [(eye, image_of(eye))]
        admit(unipotent[0][1])
        yield unipotent[0][1], identity, tuple(map(tuple, eye))
        for a, _ in unipotent:
            for i, j in strict:
                e = [row[:] for row in eye]
                e[i][j] = 1
                product_matrix = times(e, a)
                image = image_of(product_matrix)
                if admit(image):
                    unipotent.append((product_matrix, image))
                    yield image, identity, tuple(map(tuple, product_matrix))
    scalings = []
    if q > 2:
        root = reference_primitive_root(q)
        scalings = [
            [[root if i == j == c else int(i == j) for j in range(n)] for i in range(n)]
            for c in range(n)
        ]
    scaled = []
    for image, sigma, witness in block_walk(unipotent, scalings):
        scaled.append((witness, image))
        yield image, sigma, tuple(map(tuple, witness))
    permutations = [
        [[int(g[i] == j + 1) for j in range(n)] for i in range(n)]
        for g in reference_generators(poset)
    ]
    for image, sigma, witness in block_walk(unipotent + scaled, permutations):
        yield image, sigma, tuple(map(tuple, witness))


# -- the walk of U.C with every addition canonicalised --------------------


def reference_unipotent_walk(code, poset, orbit_budget, fixed=()):
    """The breadth-first walk of U.C that the search module first used,
    with the same kernels (``rref``, ``_admit``) and a set of codes of its
    own: every code tries every addition x_i += x_j, i below j and i not in
    ``fixed`` (0-based), none skipped as a provable repeat.  It reaches the
    codes of the search module's walk in another order."""
    from posetcodes.code import LinearCode, rref
    from posetcodes.isometry import _eye
    from posetcodes.search import _admit

    q, n = code.q, code.n
    pairs = ((i, j) for j in range(n - 1, -1, -1) for i in range(n) if i != j)
    strict = [(i, j) for i, j in pairs if i not in fixed and poset.leq(i + 1, j + 1)]
    eye = _eye(n)
    seen = set()
    _admit(seen, code, orbit_budget)
    yield code, eye
    queue = [(code, eye)]
    for current, matrix in queue:
        for i, j in strict:
            rows = [row[:i] + (row[i] + row[j],) + row[i + 1 :] for row in current.generators]
            image = LinearCode(q, n, *rref(q, n, rows))
            if _admit(seen, image, orbit_budget):
                added = tuple((a + b) % q for a, b in zip(matrix[i], matrix[j]))
                product = matrix[:i] + (added,) + matrix[i + 1 :]
                yield image, product
                queue.append((image, product))


def reference_span(q, vectors, length):
    """The span over GF(q) of ``vectors``, each of ``length`` entries,
    listed whole."""
    span = {(0,) * length}
    for other in vectors:
        span = {tuple((v + c * w) % q for v, w in zip(s, other)) for s in span for c in range(q)}
    return span


def reference_spans(code, poset):
    """W_i for each coordinate i (0-based): the span of the columns of the
    canonical generator matrix above i in P, listed whole."""
    columns = list(zip(*code.generators))
    return [
        reference_span(
            code.q, [other for j, other in enumerate(columns) if j != i and poset.leq(i + 1, j + 1)], code.k
        )
        for i in range(code.n)
    ]


def reference_zeroable(code, poset):
    """The coordinates i (0-based) whose column of the canonical generator
    matrix lies in the span of the columns above i in P, that span listed
    whole: a zero column too."""
    columns = zip(*code.generators)
    return tuple(
        i for i, (column, span) in enumerate(zip(columns, reference_spans(code, poset))) if column in span
    )


def reference_zeroed_walk(code, poset, orbit_budget):
    """``reference_unipotent_walk`` from C0, the code with the columns of
    ``reference_zeroable`` set to zero, adding into no row of those: it
    reaches the codes of U_Z.C0, each with a matrix mapping C0 onto it."""
    from posetcodes.code import LinearCode

    zeroable = reference_zeroable(code, poset)
    rows = [[0 if j in zeroable else v for j, v in enumerate(row)] for row in code.generators]
    start = LinearCode.from_generators(code.q, code.n, rows)
    return reference_unipotent_walk(start, poset, orbit_budget, fixed=zeroable)


def reference_zeroed_family(code, poset, limit):
    """The codes of the zeroed column family: the matrices whose column i
    is 0 for i in ``reference_zeroable`` and ranges over col_i + W_i
    otherwise (``reference_spans``), every one enumerated, so these are the
    codes of U.C zero on Z, found with no walk.  None when the family has
    more than ``limit`` matrices."""
    from posetcodes.code import LinearCode

    q = code.q
    choices = []
    for column, span in zip(zip(*code.generators), reference_spans(code, poset)):
        if column in span:  # i in Z
            choices.append([(0,) * code.k])
        else:
            choices.append([tuple((a + b) % q for a, b in zip(column, w)) for w in span])
    if prod(map(len, choices)) > limit:
        return None
    return {LinearCode.from_generators(q, code.n, list(zip(*columns))) for columns in product(*choices)}


def reference_zeroed_setup(code, poset):
    """Z, u0 and C0 as the search module first found them, by one
    elimination per coordinate i (0-based): col_i + e_i reduced against the
    rows col_j + e_j of the j above i, over k + n entries.  i is in Z when
    the first k reduce to zero, and the last n are then row i of u0; u0's
    other rows are the identity's, and C0 is the code with the columns of Z
    set to zero, reduced again.  Returns ``(Z, u0, C0)``."""
    from posetcodes.code import LinearCode, rref
    from posetcodes.isometry import _eye

    q, k, n = code.q, code.k, code.n
    rows = [column + unit for column, unit in zip(zip(*code.generators), _eye(n))]
    above = [[] for _ in rows]
    for i, j in poset.strict_pairs():
        above[i - 1].append(rows[j - 1])
    u0, zeroed = list(_eye(n)), []
    for i, row in enumerate(rows):
        for basis, p in zip(*rref(q, k + n, above[i])):
            c = row[p - 1]
            row = tuple((a - c * b) % q for a, b in zip(row, basis))
        if not any(row[:k]):
            zeroed.append(i)
            u0[i] = row[k:]
    c0 = [[0 if j in zeroed else v for j, v in enumerate(row)] for row in code.generators]
    return tuple(zeroed), tuple(u0), LinearCode(q, n, *rref(q, n, c0))


# -- exhaustive decoding ------------------------------------------------

ORACLE_BUDGET = 1 << 16


def nearest_codeword_oracle(code, poset, y):
    """Exact minimum-distance decoding by full enumeration; ties are broken
    towards the lexicographically smallest error pattern.  Returns
    (codeword, distance)."""
    from posetcodes.errors import ResourceLimitError, ValidationError
    from posetcodes.metric import pweight

    if poset.n != code.n:
        raise ValidationError(f"poset size {poset.n} != code length {code.n}")
    if code.size() > ORACLE_BUDGET:
        raise ResourceLimitError(
            f"oracle enumeration of {code.q}^{code.k} codewords exceeds budget"
        )
    if len(y) != code.n:
        raise ValidationError(f"expected vector of length {code.n}, got {len(y)}")
    q = code.q
    best = None
    for word in code.codewords():
        error = tuple((v - w) % q for v, w in zip(y, word))
        candidate = (pweight(poset, error), error, word)
        if best is None or candidate < best:
            best = candidate
    distance, _, word = best
    return word, distance


def reference_table_leaders(pd, poset):
    """Each component's (support, leaders) as ``build_table`` first found
    them: every vector of the support space enumerated, the least weight
    per syndrome kept, ties to the lexicographically smallest vector."""
    from posetcodes.metric import support_mask, weight_table

    q = pd.dec.code.q
    out = []
    for comp in pd.dec.components:
        coords = tuple(sorted(comp.support()))
        parity = reference_code_restrict(comp, coords).parity_check()
        weights = weight_table(reference_poset_restrict(poset, coords))
        leaders = {}
        for vec in product(range(q), repeat=len(coords)):
            syndrome = parity.syndrome(vec)
            w = weights[support_mask(vec)]
            known = leaders.get(syndrome)
            if known is None or w < known[0]:
                leaders[syndrome] = (w, vec)
        out.append((coords, {syndrome: vec for syndrome, (w, vec) in leaders.items()}))
    return out


def reference_agreement_rate(table, code, poset):
    """The agreement rate as the decoder module first measured it: every
    received word decoded and compared with the exhaustive oracle's
    distance, q^n * q^k codeword visits in total."""
    from posetcodes.decoder import decode
    from posetcodes.metric import pweight

    q = code.q
    hits = 0
    total = 0
    for y in product(range(q), repeat=code.n):
        decoded, _ = decode(table, y)
        _, best_distance = nearest_codeword_oracle(code, poset, y)
        achieved = pweight(poset, tuple((a - b) % q for a, b in zip(y, decoded)))
        hits += achieved == best_distance
        total += 1
    return hits / total


def identity_isometry(poset, q):
    """The identity map of GF(q)^n as an isometry of ``poset``."""
    from posetcodes.isometry import PIsometry

    n = poset.n
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    return PIsometry(poset, q, range(1, n + 1), eye)


def reference_decode(table, y):
    """Decoding as the decoder module first wrote it: y transported into the
    decomposed frame by F, each component corrected by its leader there,
    the coordinates j0 zeroed and flagged where nonzero, and the result
    transported back by F^-1.  F and F^-1 come from the table's witness,
    not from anything the table itself precomputed."""
    from posetcodes.isometry import apply_matrix, invert_matrix

    pd, q = table.pd, table.q
    frame = pd.witness.matrix()
    z = apply_matrix(q, frame, [v % q for v in y])
    corrected = [0] * table.n
    for comp, comp_table in zip(pd.dec.components, table.components):
        coords = tuple(sorted(comp.support()))
        parity = reference_code_restrict(comp, coords).parity_check()
        local = tuple(z[j - 1] for j in coords)
        leader = comp_table.leaders[parity.syndrome(local)]
        for j, zv, lv in zip(coords, local, leader):
            corrected[j - 1] = (zv - lv) % q
    flags = tuple(j for j in sorted(pd.dec.j0) if z[j - 1])
    return apply_matrix(q, invert_matrix(q, frame), corrected), flags
