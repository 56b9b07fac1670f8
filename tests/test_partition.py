import json

import pytest

from helpers import refinement_reachable
from posetcodes.errors import ResourceLimitError, ValidationError
from posetcodes.partition import PointedPartition, all_pointed_partitions


def pp(n, j0, *parts):
    return PointedPartition(n, j0, parts)


def test_canonical_part_order():
    a = pp(5, [], {1, 2}, {3, 4, 5})
    b = pp(5, [], {5, 4, 3}, {1, 2})
    assert a == b
    assert a.parts == (frozenset({1, 2}), frozenset({3, 4, 5}))


def test_construction_validation():
    with pytest.raises(ValidationError):
        pp(3, [1], {1, 2}, {3})  # overlap with j0
    with pytest.raises(ValidationError):
        pp(3, [], {1, 2})  # does not cover
    with pytest.raises(ValidationError):
        pp(3, [], {1, 2, 3}, set())  # empty part
    with pytest.raises(ValidationError, match="each element of \\[3\\] once"):
        pp(3, [1, 1], [2, 3])  # repeated in j0
    with pytest.raises(ValidationError, match="each element of \\[2\\] once"):
        pp(2, [], [1, 2, 2])  # repeated in a part


def test_refinement_walk_from_the_whole_set():
    start = pp(4, [], {1, 2, 3, 4})
    step1 = start.aggregate(1, {3})
    assert step1 == pp(4, [3], {1, 2, 4})
    step2 = step1.aggregate(1, {1})
    assert step2 == pp(4, [1, 3], {2, 4})
    step3 = step2.split(1, {2})
    assert step3 == pp(4, [1, 3], {2}, {4})
    assert step3.is_refinement_of(start)


def test_split_validation():
    part = pp(4, [1, 3], {2}, {4})
    with pytest.raises(ValidationError):
        part.split(1, {2})  # not a proper subset
    with pytest.raises(ValidationError):
        part.split(1, set())
    whole = pp(4, [], {1, 2, 3, 4})
    with pytest.raises(ValidationError):
        whole.split(1, {5})
    with pytest.raises(ValidationError):
        whole.split(2, {1})  # no such part


def test_aggregate_requires_proper_subset():
    whole = pp(2, [], {1, 2})
    with pytest.raises(ValidationError):
        whole.aggregate(1, {1, 2})
    assert whole.aggregate(1, {1}) == pp(2, [1], {2})


def test_is_refinement_examples():
    coarse = pp(4, [], {1, 2, 3, 4})
    fine = pp(4, [1, 3], {2}, {4})
    assert fine.is_refinement_of(coarse)
    assert coarse.is_refinement_of(coarse)
    all_absorbed = PointedPartition(4, {1, 2, 3, 4}, [])
    assert not all_absorbed.is_refinement_of(coarse)
    with pytest.raises(ValidationError):
        fine.is_refinement_of(pp(3, [], {1, 2, 3}))


def test_one_step_successors_examples():
    two = pp(2, [], {1, 2})
    succ = two.one_step_successors()
    assert len(succ) == 3
    assert set(succ) == {pp(2, [], {1}, {2}), pp(2, [1], {2}), pp(2, [2], {1})}
    assert pp(1, [], {1}).one_step_successors() == []
    assert pp(3, [1], {2}, {3}).one_step_successors() == []


def test_successors_are_strict_refinements():
    for part in all_pointed_partitions(4):
        for succ in part.one_step_successors():
            assert succ.is_refinement_of(part)
            assert not part.is_refinement_of(succ)


def test_successor_budget():
    big = PointedPartition(9, [], [range(1, 10)])
    with pytest.raises(ResourceLimitError):
        big.one_step_successors()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_matches_reachability(n):
    universe = list(all_pointed_partitions(n))
    reachable = {part: refinement_reachable(part) for part in universe}
    for coarse in universe:
        for fine in universe:
            assert fine.is_refinement_of(coarse) == (fine in reachable[coarse])


def test_refinement_is_a_partial_order_on_four_elements():
    universe = list(all_pointed_partitions(4))
    assert len(universe) == 52
    below = {
        a: {b for b in universe if b.is_refinement_of(a)} for a in universe
    }
    for a in universe:
        assert a in below[a]
        for b in below[a]:
            if a in below[b]:
                assert a == b
            for c in below[b]:
                assert c in below[a]


def test_whole_part_reading_changes_the_order():
    # absorbing an entire part is not a legal move under the proper-subset
    # reading, so the fully absorbed partition is unreachable
    start = pp(2, [1], {2})
    target = PointedPartition(2, {1, 2}, [])
    assert target not in refinement_reachable(start)
    assert target in refinement_reachable(start, include_whole_part_aggregates=True)
    assert not target.is_refinement_of(start)


def test_counts():
    assert sum(1 for _ in all_pointed_partitions(3)) == 15
    assert sum(1 for _ in all_pointed_partitions(5)) == 203


def test_json_round_trip():
    part = pp(4, [1, 3], {2}, {4})
    blob = json.dumps(part.to_json_dict())
    assert PointedPartition.from_json_dict(json.loads(blob)) == part
    with pytest.raises(ValidationError, match="^malformed partition document"):
        PointedPartition.from_json_dict({**part.to_json_dict(), "covers": []})


@pytest.mark.parametrize(
    "document",
    [
        {"n": 2, "j0": [1.0], "parts": [[2]]},
        {"n": 2, "j0": [], "parts": [[1, 2.0]]},
        {"n": True, "j0": [], "parts": [[1]]},
        {"n": 1, "j0": [True], "parts": []},
    ],
)
def test_a_partition_document_with_a_non_integer_is_refused(document):
    """A float or a bool as the size or an element is refused: ``1.0``
    would pass as the element 1 and be written back as ``1.0``."""
    with pytest.raises(ValidationError, match="integer"):
        PointedPartition.from_json_dict(document)
