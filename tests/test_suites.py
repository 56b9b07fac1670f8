import dataclasses
import itertools
import json

import pytest

from posetcodes import cli, suites
from posetcodes.partition import PointedPartition
from posetcodes.poset import Poset


def fail_on_call(monkeypatch, owner, name, call, broken):
    """Patch ``owner.name`` so that its ``call``-th call returns ``broken``
    of the real value."""
    real = getattr(owner, name)
    calls = itertools.count(1)

    def patched(*args, **kwargs):
        value = real(*args, **kwargs)
        return broken(value) if next(calls) == call else value

    monkeypatch.setattr(owner, name, patched)


# suite, patched call (owner, name, call number, broken value), k, counterexample keys
CASES = {
    "metric": (
        lambda: suites.metric_suite(n=3, q=2, posets=5, seed=1),
        (suites, "weight_table", 3, lambda table: [0] * len(table)),
        3,
        {"poset", "axiom", "supports"},
    ),
    "partition": (
        lambda: suites.partition_suite(3),
        (PointedPartition, "is_refinement_of", 3, lambda refines: not refines),
        3,
        {"fine", "coarse", "closed_form", "reachable"},
    ),
    "profile": (
        lambda: suites.profile_suite(n=4, samples=5, seed=1),
        (suites, "verify_profile_uniqueness", 3, lambda r: dataclasses.replace(r, ok=False)),
        3,
        {"poset", "code", "report"},
    ),
    # two walks per sample: the third sample's coarser value
    "monotone": (
        lambda: suites.monotonicity_suite(n=4, samples=5, seed=1),
        (suites, "minimal_complexity", 6, lambda o: o + 10**6),
        3,
        {"finer", "coarser", "code", "o_fine", "o_coarse"},
    ),
    # the pinned instance comes first, then three walks per sample: the
    # second sample's o_p
    "bounds": (
        lambda: suites.bounds_suite(n=4, samples=5, seed=1),
        (suites, "minimal_complexity", 4, lambda o: o + 1),
        3,
        {"poset", "code", "bounds", "walked_o_p", "walked_neighbours"},
    ),
    "bounds-pinned": (
        lambda: suites.bounds_suite(n=4, samples=5, seed=1),
        (suites, "hierarchy_bounds", 1, lambda b: dataclasses.replace(b, o_lower=9)),
        1,
        {"instance", "got", "expected"},
    ),
    "neighbours": (
        lambda: suites.neighbour_suite(3),
        (suites, "upper_neighbour", 3, lambda upper: Poset.from_covers(3, [(1, 2)])),
        3,
        {"poset", "upper", "lower"},
    ),
    "refinement-witness": (
        lambda: suites.refinement_witness_suite(Poset.antichain(2), Poset.chain(2)),
        (suites, "witness_refinement", 1, lambda code: None),
        0,
        None,
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_a_failing_instance_is_counted_and_stops_the_suite(monkeypatch, case):
    """Every suite counts the k-th instance that fails, stops there, and
    reports its counterexample."""
    suite, (owner, name, call, broken), k, keys = CASES[case]
    fail_on_call(monkeypatch, owner, name, call, broken)
    report = suite()
    assert report.ok is False
    assert report.checked == k
    if keys is None:
        assert report.counterexample is None
    else:
        assert set(report.counterexample) == keys


def with_entry(mask, value):
    """Break a weight table at one support: ``value`` in place of its weight."""
    return lambda table: table[:mask] + [value] + table[mask + 1 :]


# weight_table call to break (random posets 1 to 5 of seed 1, then the
# antichain, then the chain), its broken entry, the field, and the expected
# checked count, poset covers, axiom and supports
BROKEN_TABLES = {
    "identity": (2, with_entry(0b100, 0), "2", 2, [[1, 2]], "identity", [[3]]),
    "monotone": (6, with_entry(0b111, 1), "2", 6, [], "monotone", [[1, 2], [1, 2, 3]]),
    "union": (6, with_entry(0b011, 3), "3", 6, [], "union", [[1], [2]]),
    "hamming": (6, with_entry(0b111, 2), "2", 6, [], "Hamming", [[1, 2, 3]]),
    "top-index": (7, with_entry(0b001, 2), "2", 7, [[1, 2], [2, 3]], "top index", [[1]]),
}


@pytest.mark.parametrize("case", BROKEN_TABLES)
def test_a_weight_table_broken_at_one_support_fails_verify_metric(monkeypatch, capsys, case):
    """Each axiom the metric suite checks on supports, and each extreme
    family's closed form, fails on a table broken at one entry; the
    counterexample names the axiom and its supports as sorted 1-based
    coordinates, and ``verify metric`` exits 3."""
    call, broken, q, checked, covers, axiom, supports = BROKEN_TABLES[case]
    fail_on_call(monkeypatch, suites, "weight_table", call, broken)
    argv = ["verify", "metric", "--n", "3", "--q", q, "--samples", "5", "--format", "json"]
    assert cli.main(argv) == 3
    report = json.loads(capsys.readouterr().out)
    assert (report["ok"], report["checked"]) == (False, checked)
    assert report["counterexample"] == {
        "poset": {"n": 3, "covers": covers},
        "axiom": axiom,
        "supports": supports,
    }
