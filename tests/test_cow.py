"""Partitioned copy-on-write maps: forks share partitions until written."""

from __future__ import annotations

import pytest

from repro.cow import MASK, PARTITIONS, PartitionedMap, by_slot, empty_parts


def filled(count: int = 1000) -> PartitionedMap:
    mapping = PartitionedMap()
    for key in range(count):
        mapping[key] = [key]
    return mapping


def test_reads_like_a_dict():
    mapping = filled()
    reference = {key: [key] for key in range(1000)}
    assert mapping == reference and dict(mapping) == reference
    assert len(mapping) == 1000 and mapping and not PartitionedMap()
    assert mapping[7] == [7] and mapping.get(7) == [7]
    assert mapping.get(-1) is None and mapping.get(-1, "x") == "x"
    assert 999 in mapping and 1000 not in mapping
    assert sorted(mapping) == sorted(mapping.keys()) == list(range(1000))
    assert sorted(mapping.items()) == sorted(reference.items())
    with pytest.raises(KeyError):
        mapping[1000]


def test_an_int_key_lives_in_its_low_bits():
    mapping = filled()
    for key in (0, 1, 255, 256, 999):
        assert key in mapping.parts[key & MASK]


def test_a_row_id_lives_in_its_slot_bits():
    mapping = PartitionedMap(by_slot)
    mapping[("paper", 258)] = 1
    assert mapping.parts[2] == {("paper", 258): 1}
    assert mapping.pop(("paper", 258)) == 1 and not mapping


def test_a_fork_copies_no_partition():
    parent = filled()
    child = parent.fork()
    assert len(child.parts) == PARTITIONS
    assert all(mine is theirs for mine, theirs in zip(child.parts, parent.parts))
    assert child == parent


def test_the_first_write_copies_one_partition_shallowly():
    parent = filled()
    child = parent.fork()
    child[3] = "changed"
    child[3 + PARTITIONS] = "again"  # same partition: no second copy
    copied = [i for i in range(PARTITIONS) if child.parts[i] is not parent.parts[i]]
    assert copied == [3]
    assert parent[3] == [3] and child[3] == "changed"
    # Values stay shared: the copy is shallow.
    assert child[3 + 2 * PARTITIONS] is parent[3 + 2 * PARTITIONS]


def test_forks_are_isolated_both_ways():
    parent = filled()
    child = parent.fork()
    del child[1]
    assert child.pop(2) == [2] and child.pop(2, "gone") == "gone"
    parent[4] = "parent only"
    parent[1000] = "new"
    assert 1 in parent and 2 in parent and 1000 not in child
    assert child[4] == [4] and parent[4] == "parent only"
    assert 1 not in child and 2 not in child
    with pytest.raises(KeyError):
        del child[1]


def test_a_bulk_build_owns_its_partitions():
    parts = empty_parts()
    parts[5][5] = "five"
    mapping = PartitionedMap(parts=parts)
    first = mapping.parts[5]
    mapping[5 + PARTITIONS] = "again"
    assert mapping.parts[5] is first and len(mapping) == 2
