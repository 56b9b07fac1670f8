"""Exhaustive and sampled verification suites behind the ``verify`` command.

Every suite is deterministic given its seed.  Each states its check as a
function that returns None when the check holds and a counterexample dict
when it fails, and one driver, ``_scan``, runs the stream of outcomes: it
counts every instance it examines, the failing one included, and stops at
the first counterexample.  The sampled suites (profile, monotone, bounds)
share one entry, ``_sampled``, which checks the sizes, seeds the generator
and makes the report.  The suites drive the same library entry points
users call, with the leg work (reference values, reachability scans)
recomputed independently inside the suite.  The ``verify`` command times
each run; a report built here keeps ``elapsed`` at 0.
"""

import random
from dataclasses import dataclass, field as dataclass_field
from itertools import accumulate, chain

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
    upper_neighbour,
    verify_profile_uniqueness,
    witness_refinement,
)

N_POSET_COVERS = ((1, 3), (1, 4), (2, 4))
POSET_DRAWS = 10_000
# Checks the metric and partition suites may make, counted from their
# arguments before they start: (samples + 2) * 4^n support pairs for the
# metric suite, so every field up to n = 9 at 50 samples (under a second),
# and the pointed-partition pairs up to n = 6 (a few seconds).
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


def _check_samples(samples: int) -> None:
    """Reject a sample count below 1, on which a sampled suite checks
    nothing and would report a vacuous pass."""
    if samples < 1:
        raise ValidationError(f"sample count must be a positive integer, got {samples}")


def _check_count(suite: str, checks: int) -> None:
    if checks > SUITE_CHECKS:
        raise ResourceLimitError(
            f"{suite} needs {checks} checks, above the cap of {SUITE_CHECKS}"
        )


def _scan(report: SuiteReport, outcomes) -> SuiteReport:
    """Count every outcome, None for a check that held or a counterexample
    dict, and stop at the first counterexample, which fails the report."""
    for outcome in outcomes:
        report.checked += 1
        if outcome is not None:
            report.ok = False
            report.counterexample = outcome
            break
    return report


def _sampled(
    name: str, n: int, q: int, samples: int, seed: int, violation, pinned=()
) -> SuiteReport:
    """A sampled suite: the outcomes of the zero-argument ``pinned`` checks,
    then of ``violation(rng)`` once per sample, under one seeded generator."""
    _check_sizes(n, q)
    _check_samples(samples)
    rng = random.Random(seed)
    report = SuiteReport(name, ok=True, checked=0, seed=seed)
    samples_outcomes = (violation(rng) for _ in range(samples))
    return _scan(report, chain((check() for check in pinned), samples_outcomes))


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
    extreme families (Hamming for the antichain, top index for the chain).

    Each weight table is checked on every support: d(x, y) weighs
    supp(x - y) = supp(y - x), inside supp(x - z) | supp(z - y), so a weight
    0 only on the empty support, monotone and subadditive on unions is a
    metric over every GF(q), and the only kind over q >= 3 (all unions occur).
    """
    _check_sizes(n, q)
    _check_samples(posets)
    extremes = [  # n past the maximum stops here
        (Poset.antichain(n), "Hamming", int.bit_count),
        (Poset.chain(n), "top index", int.bit_length),
    ]
    masks, bits = range(1 << n), [1 << j for j in range(n)]
    _check_count("metric suite", (posets + 2) * len(masks) ** 2)
    randoms = distinct_random_posets(random.Random(seed), n, posets)

    def violation(poset, family=None, closed_form=None):
        wt = weight_table(poset)
        broken = chain(
            (("identity", b) for b in masks if (wt[b] == 0) != (b == 0)),
            (("monotone", b, b | a) for b in masks for a in bits if wt[b | a] < wt[b]),
            (("union", b, c) for b in masks for c in masks[b:] if wt[b | c] > wt[b] + wt[c]),
            ((family, b) for b in masks if family and wt[b] != closed_form(b)),
        )
        axiom, *supports = next(broken, (None,))
        return None if axiom is None else {
            "poset": poset.to_json_dict(),
            "axiom": axiom,
            "supports": [[j + 1 for j in range(n) if b >> j & 1] for b in supports],
        }

    outcomes = chain(map(violation, randoms), (violation(*extreme) for extreme in extremes))
    report = _scan(SuiteReport("metric", ok=True, checked=0, seed=seed), outcomes)
    if report.ok:
        report.details.append("antichain matches Hamming; chain matches top index")
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

    def outcomes():
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
                    yield None if closed == walked else {
                        "fine": fine.to_json_dict(),
                        "coarse": coarse.to_json_dict(),
                        "closed_form": closed,
                        "reachable": walked,
                    }

    report = _scan(SuiteReport("partition", ok=True, checked=0), outcomes())
    if report.ok:
        report.details.append(f"all pointed-partition pairs up to n={max_n}")
    return report


# -- decompositions and search -----------------------------------------


def profile_suite(n: int = 4, q: int = 2, samples: int = 50, seed: int = 1) -> SuiteReport:
    """Profile uniqueness across maximal decompositions over random instances."""

    def violation(rng):
        poset = random_poset(rng, n)
        code = random_code(rng, q, n)
        result = verify_profile_uniqueness(code, poset)
        return None if result.ok else {
            "poset": poset.to_json_dict(),
            "code": code.to_json_dict(),
            "report": result.to_json_dict(),
        }

    return _sampled("profile", n, q, samples, seed, violation)


def monotonicity_suite(n: int = 4, q: int = 2, samples: int = 100, seed: int = 1) -> SuiteReport:
    """Minimal complexity never grows when the order gains relations."""

    def violation(rng):
        finer = random_poset(rng, n)
        coarser = random_coarsening(rng, finer)
        code = random_code(rng, q, n)
        o_fine = minimal_complexity(code, finer)
        o_coarse = minimal_complexity(code, coarser)
        return None if o_coarse <= o_fine else {
            "finer": finer.to_json_dict(),
            "coarser": coarser.to_json_dict(),
            "code": code.to_json_dict(),
            "o_fine": o_fine,
            "o_coarse": o_coarse,
        }

    return _sampled("monotone", n, q, samples, seed, violation)


def bounds_suite(n: int = 4, q: int = 2, samples: int = 50, seed: int = 1) -> SuiteReport:
    """Sandwich between the hierarchical neighbours, pinned on the worked
    length-4 instance and then sampled."""

    def pinned_violation():
        n_poset = Poset.from_covers(4, N_POSET_COVERS)
        repetition = LinearCode.from_generators(2, 4, [(1, 1, 1, 1)])
        bounds = hierarchy_bounds(repetition, n_poset)
        got = [bounds.o_upper, bounds.o_p, bounds.o_lower]
        return None if got == [2, 2, 8] else {
            "instance": "repetition code on the N-shaped order",
            "got": got,
            "expected": [2, 2, 8],
        }

    def violation(rng):
        poset = random_poset(rng, n)
        code = random_code(rng, q, n)
        bounds = hierarchy_bounds(code, poset)
        # hierarchy_bounds may take o_p from the sandwich itself, or stop its
        # walk at o_upper, so the sandwich is checked on a full walk's o_p.
        # The neighbour values come from the closed form; the walk recomputes
        # them independently.
        o_p = minimal_complexity(code, poset)
        walked = [
            minimal_complexity(code, bounds.upper_poset),
            minimal_complexity(code, bounds.lower_poset),
        ]
        if (
            bounds.o_upper <= o_p <= bounds.o_lower
            and bounds.o_p == o_p
            and walked == [bounds.o_upper, bounds.o_lower]
        ):
            return None
        return {
            "poset": poset.to_json_dict(),
            "code": code.to_json_dict(),
            "bounds": bounds.to_json_dict(),
            "walked_o_p": o_p,
            "walked_neighbours": walked,
        }

    return _sampled("bounds", n, q, samples, seed, violation, pinned=(pinned_violation,))


def neighbour_suite(n: int = 4) -> SuiteReport:
    """Extremality of the hierarchical neighbours over the full catalogs:
    the lower neighbour is the maximum hierarchical poset below, and no
    hierarchical poset sits strictly between a poset and its upper
    neighbour."""
    _check_sizes(n)
    report = SuiteReport("neighbours", ok=True, checked=0)
    posets = list(all_posets(n))
    catalog = list(hierarchical_posets(n))

    def violation(poset):
        upper = upper_neighbour(poset)
        lower = lower_neighbour(poset)
        good = (
            lower.is_hierarchical()
            and upper.is_hierarchical()
            and lower.is_finer_than(poset)
            and poset.is_finer_than(upper)
            and not any(
                (h.is_finer_than(poset) and not h.is_finer_than(lower))
                or (poset.is_finer_than(h) and h.is_finer_than(upper) and h != upper)
                for h in catalog
            )
        )
        return None if good else {
            "poset": poset.to_json_dict(),
            "upper": upper.to_json_dict(),
            "lower": lower.to_json_dict(),
        }

    _scan(report, map(violation, posets))
    report.details.append(f"{report.checked} posets against {len(catalog)} hierarchical posets")
    return report


def refinement_witness_suite(finer: Poset, coarser: Poset, q: int = 2) -> SuiteReport:
    """Search for a code whose primary decomposition strictly improves when
    moving from the finer poset to the coarser."""
    _check_sizes(finer.n, q)
    report = SuiteReport("refinement-witness", ok=True, checked=0)
    code = witness_refinement(finer, coarser, q=q)
    if code is None:
        report.ok = False
        report.details.append("no witness within the enumeration budget")
    else:
        report.checked = 1
        report.details.append(
            f"witness generators {list(code.generators)}; complexities"
            f" {minimal_complexity(code, finer)} vs {minimal_complexity(code, coarser)}"
        )
    return report
