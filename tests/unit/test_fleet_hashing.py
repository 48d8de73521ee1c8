"""The consistent-hash ring every fleet process must agree on."""

from collections import Counter

import pytest

from repro.fleet.hashing import ShardRing, stable_hash


def test_stable_hash_is_process_stable():
    # Regression pin: these exact values must never change — a respawned
    # worker in a *new* process has to agree with the front about
    # ownership, and any drift silently re-homes every link.
    assert stable_hash("LBL-ANL") == stable_hash("LBL-ANL")
    assert stable_hash("") == 0xE4A6A0577479B2B4
    assert stable_hash("LBL-ANL") != stable_hash("ISI-ANL")


def test_same_parameters_build_identical_rings():
    a, b = ShardRing(4), ShardRing(4)
    links = [f"SITE{i}-DEST{j}" for i in range(20) for j in range(5)]
    assert [a.shard_of(link) for link in links] == [
        b.shard_of(link) for link in links
    ]


def test_single_shard_owns_everything():
    ring = ShardRing(1)
    assert all(ring.shard_of(f"L{i}") == 0 for i in range(50))


def test_every_shard_gets_some_links():
    ring = ShardRing(4)
    counts = Counter(ring.shard_of(f"SITE{i}-ANL") for i in range(200))
    assert sorted(counts) == [0, 1, 2, 3]
    # Replica smoothing: no shard should own a wildly outsized share.
    assert max(counts.values()) < 3 * (200 // 4)


def test_partition_groups_match_shard_of_and_preserve_order():
    ring = ShardRing(3)
    links = [f"L{i}" for i in range(30)]
    groups = ring.partition(links)
    assert sorted(sum(groups.values(), [])) == sorted(links)
    for shard, members in groups.items():
        assert [link for link in links if ring.shard_of(link) == shard] == members


def test_growing_the_ring_remaps_only_a_fraction():
    links = [f"SITE{i}-DEST{j}" for i in range(40) for j in range(25)]
    before = ShardRing(4)
    after = ShardRing(5)
    moved = sum(
        1 for link in links if before.shard_of(link) != after.shard_of(link)
    )
    # Classic consistent hashing: ~1/5 of links move when 4 grows to 5.
    # Allow generous slack — the point is "a fraction", not "most".
    assert moved / len(links) < 0.45


def test_bad_parameters_are_rejected():
    with pytest.raises(ValueError):
        ShardRing(0)
