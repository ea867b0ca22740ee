"""The vector upsert: ``CuckooHash.upsert_many`` and the batch path over it.

A coalesced batch hands each maximal run of ``upsert`` sub-ops to one
``upsert_many`` call, and the scalar ``upsert`` is that call's one-element
case.  Host time is the only thing allowed to change, so every check here
compares the vector path against the per-op path it replaced:

* the rehash layout after forced resizes — digests recorded from the
  per-entry ``_try_insert`` rehash loop before the rehash was rewritten;
* ``upsert_many`` against N scalar ``upsert`` calls on twin tables;
* one ``_do_batch`` against N ``_run`` calls of ``_do_upsert`` (and of the
  other sub-ops of a mixed batch) on twin containers: results, summed
  ``OpStats``, worst entry bytes, write epoch, segment size, table layout
  and resize count — with int and ``ExtensionPair`` deltas, under the
  default hash and under a colliding one that forces kick chains and
  mid-run resizes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import astuple

import pytest

from repro.apps.contig import make_pair
from repro.config import ares_like
from repro.core import HCL
from repro.structures import CuckooHash
from repro.structures.cuckoo import stable_hash
from repro.structures.stats import OpStats


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _layout(table: CuckooHash):
    return [[None if s is None else list(s) for s in arr]
            for arr in (table._t0, table._t1)]


def _colliding(key) -> int:
    """Every key shares t0 slot 0 (for caps up to 2**31); t1 spreads."""
    return stable_hash(key) << 31


def _int_colliding(key: int) -> int:
    return key << 31


def _sum(stats_list) -> OpStats:
    total = OpStats()
    for stats in stats_list:
        total = total.merge(stats)
    return total


# -- rehash layout ---------------------------------------------------------------

#: sha256 of the layout after every resizing op plus two explicit
#: doublings, recorded from the rehash that re-inserted each old entry
#: through ``_try_insert``.  Frozen: never re-record from the code under
#: test.
REHASH_DIGESTS = {
    ("stable", 1): "27e3926f358d12fabd62be7653cf4a9fb7b1657d205433d4278a1e1fe1de6f20",
    ("stable", 2): "26f1ad033f4b97b58887708b0a6b029c7e9dd41e1358f97fac645ddc91879b38",
    ("colliding", 1): "920175b9571420bb9d6ce6ff6008ab58666760221840e2e871eca102c82bbcb6",
    ("colliding", 2): "217684ee9f44113e332d341fd6ae6dbb4ab94e022ebfdcf1e867097a6068950a",
}


def rehash_trace(hash_name: str, seed: int):
    colliding = hash_name == "colliding"
    rng = random.Random(seed)
    table = CuckooHash(initial_buckets=4,
                       hash_fn=_int_colliding if colliding else stable_hash)
    order = rng.sample(range(480), 480)
    snaps = []
    kicked = 0
    for i in range(480):
        if colliding:
            key = order[i]
        else:
            key = i if rng.random() < 0.7 else f"k{i}"
        if rng.random() < 0.5:
            _new, stats = table.insert(key, i)
        else:
            _value, stats = table.upsert(key, i)
        kicked += stats.relocations > 0
        if stats.resized:
            snaps.append(_layout(table))
    for _ in range(2):
        table._resize(OpStats())
        snaps.append(_layout(table))
    table.check_invariants()
    return _sha(snaps), table, kicked


@pytest.mark.parametrize("hash_name,seed", sorted(REHASH_DIGESTS))
def test_rehash_layout_matches_per_entry_reinsert(hash_name, seed):
    digest, table, kicked = rehash_trace(hash_name, seed)
    assert digest == REHASH_DIGESTS[(hash_name, seed)]
    assert len(table) == 480 and table.resizes >= 8 and kicked


# -- upsert_many against scalar upserts ------------------------------------------

def _stream(seed: int, n: int, keyspace: int, pairs: bool):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        key = f"k{rng.randrange(keyspace)}"
        if pairs:
            delta = make_pair(rng.choice("ACGT"), rng.choice("ACGT"))
        else:
            delta = rng.randrange(1, 5)
        out.append((key, delta))
    return out


@pytest.mark.parametrize("hash_fn", [stable_hash, _colliding],
                         ids=["stable", "colliding"])
@pytest.mark.parametrize("pairs", [False, True], ids=["int", "pair"])
def test_upsert_many_is_n_scalar_upserts(hash_fn, pairs):
    stream = _stream(3, 900, 400, pairs)
    vec = CuckooHash(initial_buckets=4, hash_fn=hash_fn)
    one = CuckooHash(initial_buckets=4, hash_fn=hash_fn)
    results = []
    pos = calls = 0
    while pos < len(stream):
        stop, stats = vec.upsert_many(stream, pos, results)
        assert stop > pos
        singles = [one.upsert(k, d) for k, d in stream[pos:stop]]
        assert results[pos:stop] == [v for v, _s in singles]
        assert astuple(stats) == astuple(_sum(s for _v, s in singles))
        # a call stops right after its op that resized, and only there
        assert [s.resized for _v, s in singles][:-1] == [False] * (
            stop - pos - 1)
        if stop < len(stream):
            assert stats.resized
        pos = stop
        calls += 1
    assert 1 < calls <= vec.resizes + 1
    assert vec.resizes == one.resizes and vec.resizes > 0
    assert _layout(vec) == _layout(one)
    vec.check_invariants()


# -- one _do_batch against N per-op calls ------------------------------------------

def _small_map(hash_fn):
    """A single-partition map on its own runtime, resizing early."""
    h = HCL(ares_like(nodes=2, procs_per_node=2, seed=7))
    return h, h.unordered_map("t", partitions=1, hash_fn=hash_fn,
                              initial_buckets=4)


def _mixed(stream, seed: int):
    """Upsert runs broken up by finds, inserts and erases."""
    rng = random.Random(seed)
    subops = []
    for key, delta in stream:
        r = rng.random()
        if r < 0.08:
            subops.append(("find", (key,)))
        elif r < 0.12:
            subops.append(("insert", (key, delta)))
        elif r < 0.14:
            subops.append(("erase", (key,)))
        subops.append(("upsert", (key, delta)))
    return subops


@pytest.mark.parametrize("hash_fn", [None, _colliding],
                         ids=["default", "colliding"])
@pytest.mark.parametrize("pairs", [False, True], ids=["int", "pair"])
@pytest.mark.parametrize("mixed", [False, True], ids=["upserts", "mixed"])
def test_batch_is_n_per_op_calls(hash_fn, pairs, mixed):
    stream = _stream(11, 1500, 900, pairs)
    subops = (_mixed(stream, 5) if mixed
              else [("upsert", args) for args in stream])
    (h_vec, vec), (h_one, one) = _small_map(hash_fn), _small_map(hash_fn)
    part_vec, part_one = vec.partitions[0], one.partitions[0]

    results, stats, worst = vec._do_batch(part_vec, subops)
    singles = [one._run(part_one, op, args) for op, args in subops]

    assert results == [r for r, _s, _b in singles]
    assert astuple(stats) == astuple(_sum(s for _r, s, _b in singles))
    assert worst == max(16, *(b for _r, _s, b in singles))
    assert part_vec.write_epoch == part_one.write_epoch == sum(
        op != "find" for op, _a in subops)
    assert part_vec.segment.size == part_one.segment.size
    if hash_fn is None:  # the resizes grew the segment on the way
        assert part_one.segment.size > 64 * 1024
    table_vec, table_one = part_vec.structure, part_one.structure
    assert _layout(table_vec) == _layout(table_one)
    assert table_vec.resizes == table_one.resizes >= 2
    if hash_fn is not None:
        assert stats.relocations > 0  # kick chains ran
    h_vec.close()
    h_one.close()


def test_failed_upsert_mid_run_bumps_epoch_per_applied_op():
    """A delta that cannot be added fails the batch; the ops applied
    before it still bumped the epoch once each, as per-op calls would."""
    h, m = _small_map(None)
    part = m.partitions[0]
    m._do_batch(part, [("upsert", ("a", 1))])
    epoch = part.write_epoch
    with pytest.raises(TypeError):
        m._do_batch(part, [("upsert", ("b", 1)), ("upsert", ("c", 2)),
                           ("upsert", ("a", make_pair("A", "C")))])
    assert part.write_epoch == epoch + 2
    assert part.structure.find("c")[0] == 2
    h.close()
