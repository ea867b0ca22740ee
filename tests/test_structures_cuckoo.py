"""Tests for the lock-free-style cuckoo hash table."""

import random

import pytest

from repro.structures import CuckooHash


class TestBasics:
    def test_insert_find(self):
        c = CuckooHash()
        new, stats = c.insert("k", 1)
        assert new
        assert stats.writes >= 1 and stats.cas_ops >= 1
        value, found, fstats = c.find("k")
        assert found and value == 1
        assert fstats.reads >= 1

    def test_overwrite_not_new(self):
        c = CuckooHash()
        assert c.insert("k", 1)[0] is True
        assert c.insert("k", 2)[0] is False
        assert c.find("k")[0] == 2
        assert len(c) == 1

    def test_missing_key(self):
        c = CuckooHash()
        value, found, _ = c.find("ghost")
        assert not found and value is None
        assert c.contains("ghost")[0] is False

    def test_remove(self):
        c = CuckooHash()
        c.insert("k", 1)
        ok, _ = c.remove("k")
        assert ok and len(c) == 0
        ok, _ = c.remove("k")
        assert not ok

    def test_default_buckets_paper_value(self):
        """Section III-D1: structures start with 128 buckets."""
        assert CuckooHash().bucket_count == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            CuckooHash(initial_buckets=1)

    def test_find_at_most_two_probes(self):
        """Cuckoo's contract: lookup touches at most 2 slots."""
        c = CuckooHash()
        for i in range(80):
            c.insert(i, i)
        for i in range(80):
            _v, found, stats = c.find(i)
            assert found
            assert stats.reads <= 2


class TestResize:
    def test_load_factor_triggers_doubling(self):
        c = CuckooHash(initial_buckets=16)
        for i in range(13):  # 13/16 > 0.75
            c.insert(i, i)
        assert c.bucket_count > 16
        assert c.resizes >= 1
        for i in range(13):
            assert c.find(i)[1]

    def test_resize_stats_reported(self):
        c = CuckooHash(initial_buckets=16)
        resized = False
        for i in range(40):
            _new, stats = c.insert(i, i)
            resized = resized or stats.resized
        assert resized

    def test_explicit_resize_preserves_content(self):
        from repro.structures.stats import OpStats

        c = CuckooHash()
        for i in range(50):
            c.insert(i, str(i))
        stats = OpStats()
        c._resize(stats)
        assert len(c) == 50
        assert all(c.find(i) == (str(i), True, c.find(i)[2]) or c.find(i)[1]
                   for i in range(50))
        c.check_invariants()

    def test_load_factor_metric(self):
        c = CuckooHash(initial_buckets=128)
        for i in range(32):
            c.insert(i, i)
        # load 32 / 128 = 0.25, below LOAD_FACTOR: no doubling
        assert len(c) / c.bucket_count == pytest.approx(0.25)


class TestHashOverride:
    def test_custom_hash_changes_distribution(self):
        """The std::hash override of Section III-D1."""
        c = CuckooHash(hash_fn=lambda k: (k * 2654435761) & 0xFFFFFFFF)
        for i in range(60):
            c.insert(i, i)
        assert len(c) == 60
        for i in range(60):
            assert c.find(i)[1]
        c.check_invariants()

    def test_degenerate_hash_fails_loudly(self):
        """A constant hash can never spread keys; resize must not loop."""
        c = CuckooHash(hash_fn=lambda k: 0)
        with pytest.raises(RuntimeError, match="degenerate"):
            for i in range(8):
                c.insert(i, i)

    def test_custom_hash_used_for_placement(self):
        calls = []

        def spy(key):
            calls.append(key)
            return hash(key)

        c = CuckooHash(hash_fn=spy)
        c.insert("x", 1)
        assert "x" in calls


class TestDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_dict(self, seed):
        rng = random.Random(seed)
        c = CuckooHash()
        ref = {}
        for _ in range(4000):
            op = rng.random()
            key = rng.randrange(1200)
            if op < 0.6:
                new, _ = c.insert(key, key * 3)
                assert new == (key not in ref)
                ref[key] = key * 3
            elif op < 0.9:
                value, found, _ = c.find(key)
                assert found == (key in ref)
                if found:
                    assert value == ref[key]
            else:
                ok, _ = c.remove(key)
                assert ok == (key in ref)
                ref.pop(key, None)
        assert len(c) == len(ref)
        assert dict(c.items()) == ref
        assert {k for k, _v in c.items()} == set(ref)
        c.check_invariants()

    def test_eviction_cycle_does_not_lose_keys(self):
        """Regression: a kick chain that cycles back onto the fresh key."""
        c = CuckooHash(initial_buckets=4)
        ref = {}
        relocations = []
        for i in range(200):
            relocations.append(c.insert(i, i)[1].relocations)
            ref[i] = i
        assert dict(c.items()) == ref
        # some chain runs out and resizes — the case the test is named for
        assert max(relocations) == CuckooHash.MAX_RELOCATIONS

