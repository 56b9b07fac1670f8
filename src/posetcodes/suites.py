"""Exhaustive and sampled verification suites behind the ``verify`` command.

Every suite is deterministic given its seed and reports the instance
counts it actually checked; a failing suite carries a counterexample
dump.  These drive the same library entry points users call, with the
leg work (reference values, reachability scans) recomputed independently
inside the suite.
"""

import random
import time
from dataclasses import dataclass, field as dataclass_field
from itertools import accumulate, product

from .code import LinearCode
from .errors import ResourceLimitError, ValidationError
from .field import FieldSpec
from .metric import weight_table
from .partition import all_pointed_partitions
from .poset import Poset, all_posets, hierarchical_posets
from .search import (
    hierarchy_bounds,
    lower_neighbour,
    minimal_complexity,
    primary_decomposition,
    upper_neighbour,
    verify_profile_uniqueness,
    witness_refinement,
)

N_POSET_COVERS = ((1, 3), (1, 4), (2, 4))
POSET_DRAWS = 10_000
# Checks the metric and partition suites may make, counted from their
# arguments before they start.  It admits every run that took a few seconds
# (`metric --n 6`, `partition --n 6`); a pair check at n = 10 takes ~4 us.
SUITE_CHECKS = 1 << 24


@dataclass
class SuiteReport:
    name: str
    ok: bool
    checked: int
    seed: int | None = None
    elapsed: float = 0.0
    details: list = dataclass_field(default_factory=list)
    counterexample: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "suite": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "seed": self.seed,
            "elapsed_seconds": round(self.elapsed, 3),
            "details": self.details,
            "counterexample": self.counterexample,
        }


def _check_sizes(n: int, q: int = 2) -> None:
    """Reject a ground-set size below 1 or a non-prime field up front: the
    samplers below retry on every ``ValidationError`` and would never stop."""
    if n < 1:
        raise ValidationError(f"ground-set size must be a positive integer, got {n}")
    FieldSpec(q)


def _check_count(suite: str, checks: int) -> None:
    if checks > SUITE_CHECKS:
        raise ResourceLimitError(
            f"{suite} needs {checks} checks, above the cap of {SUITE_CHECKS}"
        )


def random_poset(rng: random.Random, n: int) -> Poset:
    """A poset from a random relation set; cyclic draws are retried."""
    while True:
        count = rng.randint(0, 2 * n)
        pairs = []
        for _ in range(count):
            a = rng.randint(1, n)
            b = rng.randint(1, n)
            if a != b:
                pairs.append((a, b))
        try:
            return Poset.from_covers(n, pairs)
        except ValidationError:
            continue


def random_code(rng: random.Random, q: int, n: int) -> LinearCode:
    while True:
        rows = [
            tuple(rng.randrange(q) for _ in range(n))
            for _ in range(rng.randint(1, n))
        ]
        try:
            return LinearCode.from_generators(q, n, rows)
        except ValidationError:
            continue


def random_coarsening(rng: random.Random, poset: Poset, extra: int = 3) -> Poset:
    """A poset above the given one in the refinement order."""
    pairs = list(poset.strict_pairs())
    for _ in range(extra):
        a = rng.randint(1, poset.n)
        b = rng.randint(1, poset.n)
        if a == b or poset.leq(b, a):
            continue
        try:
            candidate = Poset.from_covers(poset.n, pairs + [(a, b)])
        except ValidationError:
            continue
        pairs = list(candidate.strict_pairs())
    return Poset.from_covers(poset.n, pairs)


def distinct_random_posets(rng: random.Random, n: int, count: int) -> list:
    """``count`` distinct random posets on [n], in draw order; the draws are
    bounded, since a small [n] has fewer posets (19 on three points)."""
    found = {}  # insertion-ordered set
    for _ in range(POSET_DRAWS):
        if len(found) >= count:
            break
        found[random_poset(rng, n)] = None
    if len(found) < count:
        raise ResourceLimitError(
            f"found {len(found)} distinct posets on {n} points in {POSET_DRAWS} draws,"
            f" {count} requested"
        )
    return list(found)


# -- metric -----------------------------------------------------------


def metric_suite(n: int = 4, q: int = 2, posets: int = 50, seed: int = 1) -> SuiteReport:
    """Metric axioms over random posets, plus the closed forms of the two
    extreme families (Hamming for the antichain, top index for the chain)."""
    _check_sizes(n, q)
    start = time.monotonic()
    rng = random.Random(seed)
    report = SuiteReport("metric", ok=True, checked=0, seed=seed)
    extremes = [Poset.antichain(n), Poset.chain(n)]  # n past the maximum stops here
    size = q**n
    triples = size**3 if q == 2 and size <= 64 else 2000
    _check_count("metric suite", (posets + 2) * (size**2 + triples) + 2 * size**2)
    catalog = distinct_random_posets(rng, n, posets) + extremes
    # Each vector with a key whose n-bit block v - 1 masks the coordinates
    # holding the value v != 0.  Where two vectors differ, one of them is
    # nonzero, so some block of the XOR of their keys has that coordinate:
    # OR-folding the q - 1 blocks onto the lowest gives the difference mask.
    full = (1 << n) - 1
    folds = [n << j for j in range((q - 2).bit_length())]
    vectors = [
        (x, sum(1 << (idx + (v - 1) * n) for idx, v in enumerate(x) if v))
        for x in product(range(q), repeat=n)
    ]

    def diff_mask(a, b):
        bits = a ^ b
        for shift in folds:
            bits |= bits >> shift
        return bits & full

    for poset in catalog:
        wt = weight_table(poset)
        for x, mx in vectors:
            for y, my in vectors:
                d = wt[diff_mask(mx, my)]
                if (d == 0) != (x == y) or d != wt[diff_mask(my, mx)] or d < 0:
                    report.ok = False
                    report.counterexample = {
                        "poset": poset.to_json_dict(),
                        "x": list(x),
                        "y": list(y),
                    }
                    break
            if not report.ok:
                break
        if not report.ok:
            break
        if q == 2 and size <= 64:
            triples = (
                (a, b, c)
                for a in range(size)
                for b in range(size)
                for c in range(size)
            )
            for a, b, c in triples:
                if wt[a ^ b] > wt[a ^ c] + wt[c ^ b]:
                    report.ok = False
                    report.counterexample = {
                        "poset": poset.to_json_dict(),
                        "masks": [a, b, c],
                    }
                    break
        else:
            for _ in range(2000):
                (x, mx), (y, my), (z, mz) = (rng.choice(vectors) for _ in range(3))
                if wt[diff_mask(mx, my)] > wt[diff_mask(mx, mz)] + wt[diff_mask(mz, my)]:
                    report.ok = False
                    report.counterexample = {
                        "poset": poset.to_json_dict(),
                        "x": list(x),
                        "y": list(y),
                        "z": list(z),
                    }
                    break
        if not report.ok:
            break
        report.checked += 1

    if report.ok:
        wt = weight_table(Poset.antichain(n))
        hamming_ok = all(
            wt[diff_mask(mx, my)] == sum(a != b for a, b in zip(x, y))
            for x, mx in vectors
            for y, my in vectors
        )
        wt = weight_table(Poset.chain(n))
        chain_ok = all(
            wt[diff_mask(mx, my)]
            == max((i + 1 for i in range(n) if x[i] != y[i]), default=0)
            for x, mx in vectors
            for y, my in vectors
        )
        if not hamming_ok or not chain_ok:
            report.ok = False
            report.counterexample = {"closed_form": "extreme family mismatch"}
        report.details.append("antichain matches Hamming; chain matches top index")
    report.elapsed = time.monotonic() - start
    return report


# -- partitions ---------------------------------------------------------


def partition_suite(max_n: int = 4) -> SuiteReport:
    """Closed-form refinement test against reachability over one-step moves,
    for every pointed partition pair on each ground set up to ``max_n``."""
    _check_sizes(max_n)
    # A pointed partition of [m] is a set partition of [m + 1] (j0 joins
    # m + 1): Bell(m + 1) of them, the last entry of row m of Bell's triangle.
    row, pairs = [1], 0
    for m in range(1, max_n + 1):
        row = list(accumulate(row, initial=row[-1]))
        pairs += row[-1] ** 2
        if pairs > SUITE_CHECKS:
            break
    _check_count(f"partition suite up to n={m}", pairs)
    start = time.monotonic()
    report = SuiteReport("partition", ok=True, checked=0)
    for n in range(1, max_n + 1):
        universe = list(all_pointed_partitions(n))
        reachable = {}
        for part in universe:
            seen = {part}
            frontier = [part]
            while frontier:
                nxt = []
                for current in frontier:
                    for succ in current.one_step_successors():
                        if succ not in seen:
                            seen.add(succ)
                            nxt.append(succ)
                frontier = nxt
            reachable[part] = seen
        for coarse in universe:
            for fine in universe:
                closed = fine.is_refinement_of(coarse)
                walked = fine in reachable[coarse]
                report.checked += 1
                if closed != walked:
                    report.ok = False
                    report.counterexample = {
                        "fine": fine.to_json_dict(),
                        "coarse": coarse.to_json_dict(),
                        "closed_form": closed,
                        "reachable": walked,
                    }
                    report.elapsed = time.monotonic() - start
                    return report
    report.details.append(f"all pointed-partition pairs up to n={max_n}")
    report.elapsed = time.monotonic() - start
    return report


# -- decompositions and search -----------------------------------------


def profile_suite(n: int = 4, q: int = 2, samples: int = 50, seed: int = 1) -> SuiteReport:
    """Profile uniqueness across maximal decompositions over random instances."""
    _check_sizes(n, q)
    start = time.monotonic()
    rng = random.Random(seed)
    report = SuiteReport("profile", ok=True, checked=0, seed=seed)
    for _ in range(samples):
        poset = random_poset(rng, n)
        code = random_code(rng, q, n)
        result = verify_profile_uniqueness(code, poset)
        report.checked += 1
        if not result.ok:
            report.ok = False
            report.counterexample = {
                "poset": poset.to_json_dict(),
                "code": code.to_json_dict(),
                "report": result.to_json_dict(),
            }
            break
    report.elapsed = time.monotonic() - start
    return report


def monotonicity_suite(n: int = 4, q: int = 2, samples: int = 100, seed: int = 1) -> SuiteReport:
    """Minimal complexity never grows when the order gains relations."""
    _check_sizes(n, q)
    start = time.monotonic()
    rng = random.Random(seed)
    report = SuiteReport("monotone", ok=True, checked=0, seed=seed)
    for _ in range(samples):
        finer = random_poset(rng, n)
        coarser = random_coarsening(rng, finer)
        code = random_code(rng, q, n)
        o_fine = minimal_complexity(code, finer)
        o_coarse = minimal_complexity(code, coarser)
        report.checked += 1
        if o_coarse > o_fine:
            report.ok = False
            report.counterexample = {
                "finer": finer.to_json_dict(),
                "coarser": coarser.to_json_dict(),
                "code": code.to_json_dict(),
                "o_fine": o_fine,
                "o_coarse": o_coarse,
            }
            break
    report.elapsed = time.monotonic() - start
    return report


def bounds_suite(n: int = 4, q: int = 2, samples: int = 50, seed: int = 1) -> SuiteReport:
    """Sandwich between the hierarchical neighbours, pinned on the worked
    length-4 instance and then sampled."""
    _check_sizes(n, q)
    start = time.monotonic()
    rng = random.Random(seed)
    report = SuiteReport("bounds", ok=True, checked=0, seed=seed)

    n_poset = Poset.from_covers(4, N_POSET_COVERS)
    repetition = LinearCode.from_generators(2, 4, [(1, 1, 1, 1)])
    pinned = hierarchy_bounds(repetition, n_poset)
    report.checked += 1
    if (pinned.o_upper, pinned.o_p, pinned.o_lower) != (2, 2, 8):
        report.ok = False
        report.counterexample = {
            "instance": "repetition code on the N-shaped order",
            "got": [pinned.o_upper, pinned.o_p, pinned.o_lower],
            "expected": [2, 2, 8],
        }
        report.elapsed = time.monotonic() - start
        return report

    for _ in range(samples):
        poset = random_poset(rng, n)
        code = random_code(rng, q, n)
        bounds = hierarchy_bounds(code, poset)
        report.checked += 1
        if not bounds.sandwich_ok or bounds.o_p is None:
            report.ok = False
            report.counterexample = {
                "poset": poset.to_json_dict(),
                "code": code.to_json_dict(),
                "bounds": bounds.to_json_dict(),
            }
            break
    report.elapsed = time.monotonic() - start
    return report


def neighbour_suite(n: int = 4) -> SuiteReport:
    """Extremality of the hierarchical neighbours over the full catalogs:
    the lower neighbour is the maximum hierarchical poset below, and no
    hierarchical poset sits strictly between a poset and its upper
    neighbour."""
    _check_sizes(n)
    start = time.monotonic()
    report = SuiteReport("neighbours", ok=True, checked=0)
    posets = list(all_posets(n))
    catalog = list(hierarchical_posets(n))
    for poset in posets:
        upper = upper_neighbour(poset)
        lower = lower_neighbour(poset)
        good = (
            lower.is_hierarchical()
            and upper.is_hierarchical()
            and lower.is_finer_than(poset)
            and poset.is_finer_than(upper)
        )
        if good:
            for h in catalog:
                if h.is_finer_than(poset) and not h.is_finer_than(lower):
                    good = False
                    break
                if (
                    poset.is_finer_than(h)
                    and h.is_finer_than(upper)
                    and h != upper
                ):
                    good = False
                    break
        report.checked += 1
        if not good:
            report.ok = False
            report.counterexample = {
                "poset": poset.to_json_dict(),
                "upper": upper.to_json_dict(),
                "lower": lower.to_json_dict(),
            }
            break
    report.details.append(f"{report.checked} posets against {len(catalog)} hierarchical posets")
    report.elapsed = time.monotonic() - start
    return report


def refinement_witness_suite(finer: Poset, coarser: Poset, q: int = 2) -> SuiteReport:
    """Search for a code whose primary decomposition strictly improves when
    moving from the finer poset to the coarser."""
    _check_sizes(finer.n, q)
    start = time.monotonic()
    report = SuiteReport("refinement-witness", ok=True, checked=0)
    code = witness_refinement(finer, coarser, q=q)
    if code is None:
        report.ok = False
        report.details.append("no witness within the enumeration budget")
    else:
        pd_fine = primary_decomposition(code, finer)
        pd_coarse = primary_decomposition(code, coarser)
        report.checked = 1
        report.details.append(
            f"witness generators {list(code.generators)}; "
            f"complexities {pd_fine.complexity} vs {pd_coarse.complexity}"
        )
        report.counterexample = None
    report.elapsed = time.monotonic() - start
    return report

