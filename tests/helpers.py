"""Independent reference implementations used to check library results.

Everything here recomputes answers from first principles (pair-set
closures, exhaustive partition searches, closed-form weights) without
touching the production code paths it validates.
"""

from itertools import combinations, product


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
    """Everything reachable from a pointed partition by one-step moves."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for current in frontier:
            for succ in current.one_step_successors(include_whole_part_aggregates):
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
    return seen


def all_binary_vectors(n):
    return list(product(range(2), repeat=n))


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
    up = [sum(1 << (j - 1) for j in range(1, n + 1) if poset.leq(i, j)) for i in range(1, n + 1)]
    down = [sum(1 << (j - 1) for j in range(1, n + 1) if poset.leq(j, i)) for i in range(1, n + 1)]
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
# walk per question.  Production walks the triangular part breadth-first
# and permutes that orbit; these stay as the reference its decompositions,
# orbit sets and reports must match.


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


def reference_profile_uniqueness(code, poset):
    """Profile-uniqueness report from two full walks of the orbit."""
    from posetcodes.search import ProfileUniquenessReport

    orbit = reference_orbit_codes(code, poset)
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


def reference_orbit_walk(code, poset, orbit_budget=10**5):
    """The orbit walk's items ``(image, sigma, matrix)`` in the order the
    search module documents: the triangular walk, then the blocks
    breadth-first.  For each block's representative rep, in the order the
    blocks were found, and each generator g of ``reference_generators`` in
    turn, every triangular image is permuted by g after rep, canonicalised
    and kept when new, and g after rep represents a new block when any image
    was new.  Only the triangular walk counts canonicalisations against the
    budget; permuting every image takes far more of them than the
    production walk, so the permutation step counts codes alone."""
    from posetcodes.code import LinearCode, rref
    from posetcodes.errors import ResourceLimitError, ValidationError
    from posetcodes.search import _delta_walk, _Seen

    def admit(seen, image):
        if image in seen:
            return False
        if len(seen) >= orbit_budget:
            raise ResourceLimitError(f"orbit exceeds budget of {orbit_budget} codes")
        seen.add(image)
        return True

    if poset.n != code.n:
        raise ValidationError(f"poset size {poset.n} != code length {code.n}")
    identity = tuple(range(1, poset.n + 1))
    generators = reference_generators(poset)
    seen = _Seen()
    delta_orbit = []
    for image, matrix in _delta_walk(code, poset, seen, orbit_budget):
        delta_orbit.append((image, matrix))
        yield image, identity, matrix
    reps = [identity]
    for rep in reps:
        for g in generators:
            sigma = tuple(rep[g[i] - 1] for i in range(poset.n))
            new = False
            for image, matrix in delta_orbit:
                rows = [[row[s - 1] for s in sigma] for row in image.generators]
                permuted = LinearCode(code.q, code.n, *rref(code.q, code.n, rows))
                if admit(seen, permuted):
                    new = True
                    yield permuted, sigma, matrix
            if new:
                reps.append(sigma)


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
