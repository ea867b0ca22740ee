"""Structure goldens: per-op ``OpStats``, final contents and counters, bit for bit.

The cuckoo table, the red-black tree and the optimistic queue charge the
simulation through the ``OpStats`` each op returns, so a rewrite of
``repro.structures`` that means to keep simulated time must reproduce them
exactly.  Each trace below is a seeded op mix on one structure:

* ``CuckooHash`` at ``initial_buckets=4`` under ``stable_hash`` — dense
  enough that kick chains run out (``MAX_RELOCATIONS``) and the table
  resizes many times;
* ``CuckooHash`` at 128 buckets with mixed insert / upsert / find / remove,
  under ``stable_hash`` and under a multiplicative integer hash;
* ``RedBlackTree`` insert / remove / find churn;
* ``OptimisticQueue`` push / pop / ``push_many`` / ``pop_many`` with
  ``defer_prev=True`` pushes, so the fix-list repair runs.

``tests/data/structures_goldens.json`` holds, per trace, the sha256 of the
per-op record (op, arguments, results, every ``OpStats`` field), the sha256
of the final contents in the structure's own iteration order, and its
counters.  It was recorded from the structures that still took a host lock
per op and is frozen: a change that *means* to move these costs re-records
it and says so — never from the code under test.

Re-record with ``PYTHONPATH=src python tests/test_structures_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import astuple
from pathlib import Path

import pytest

from repro.core.hash_container import stable_hash
from repro.structures import CuckooHash, OptimisticQueue, RedBlackTree
from repro.structures.lfqueue import QueueEmpty

GOLDEN_PATH = Path(__file__).parent / "data" / "structures_goldens.json"


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _mult_hash(k):
    return (k * 2654435761) & 0xFFFFFFFF


def _digest(record, final, counters):
    return {"ops": len(record), "ops_sha256": _sha(record),
            "final_sha256": _sha(final), **counters}


def _cuckoo_counters(c):
    return {"len": len(c), "buckets": c.bucket_count, "resizes": c.resizes}


def cuckoo_dense(seed):
    """Grow a 4-bucket table to ~600 keys; overwrite and upsert on the way."""
    rng = random.Random(seed)
    c = CuckooHash(initial_buckets=4, hash_fn=stable_hash)
    record = []
    events = {"exhausted": 0, "resized": 0}
    for i in range(600):
        key = i if rng.random() < 0.7 else f"k{i}"
        new, stats = c.insert(key, i)
        record.append(["insert", key, new, *astuple(stats)])
        events["exhausted"] += stats.relocations >= CuckooHash.MAX_RELOCATIONS
        events["resized"] += stats.resized
        if rng.random() < 0.2:
            new_value, stats = c.upsert(key, 1)
            record.append(["upsert", key, new_value, *astuple(stats)])
    c.check_invariants()
    return _digest(record, [list(s) for s in c.items()], _cuckoo_counters(c)), events


def cuckoo_mixed(seed, hash_fn):
    """A churning 128-bucket table: insert / upsert / find / remove."""
    rng = random.Random(seed)
    c = CuckooHash(initial_buckets=128, hash_fn=hash_fn)
    record = []
    events = {"remove_hit": 0, "upsert_new": 0, "resized": 0}
    for _ in range(5000):
        r = rng.random()
        key = rng.randrange(400)
        if r < 0.35:
            new, stats = c.insert(key, rng.randrange(1000))
            record.append(["insert", key, new, *astuple(stats)])
        elif r < 0.6:
            found = c.find(key)[1]
            value, stats = c.upsert(key, 1)
            events["upsert_new"] += not found
            record.append(["upsert", key, value, *astuple(stats)])
        elif r < 0.85:
            value, found, stats = c.find(key)
            record.append(["find", key, value, found, *astuple(stats)])
        else:
            ok, stats = c.remove(key)
            events["remove_hit"] += ok
            record.append(["remove", key, ok, *astuple(stats)])
        events["resized"] += stats.resized
    c.check_invariants()
    return _digest(record, [list(s) for s in c.items()], _cuckoo_counters(c)), events


def rbtree_churn(seed):
    rng = random.Random(seed)
    t = RedBlackTree()
    record = []
    events = {"remove_hit": 0, "overwrite": 0}
    for phase in range(6):
        insert_p = 0.7 if phase % 2 == 0 else 0.3
        for _ in range(1500):
            r = rng.random()
            key = rng.randrange(2000)
            if r < insert_p:
                new, stats = t.insert(key, phase)
                events["overwrite"] += not new
                record.append(["insert", key, new, *astuple(stats)])
            elif r < insert_p + 0.1:
                value, found, stats = t.find(key)
                record.append(["find", key, value, found, *astuple(stats)])
            else:
                ok, stats = t.remove(key)
                events["remove_hit"] += ok
                record.append(["remove", key, ok, *astuple(stats)])
    t.check_invariants()
    return _digest(record, [list(kv) for kv in t.items()],
                   {"len": len(t), "rotations_total": t.rotations_total}), events


def queue_mix(seed):
    rng = random.Random(seed)
    q = OptimisticQueue()
    record = []
    events = {"empty": 0, "fix": 0}

    def pop() -> bool:
        try:
            got, stats = q.pop()
        except QueueEmpty:
            events["empty"] += 1
            record.append(["pop-empty"])
            return False
        events["fix"] += stats.relocations > 0
        record.append(["pop", got, *astuple(stats)])
        return True

    value = 0
    for phase in range(8):
        push_p = 0.6 if phase % 2 == 0 else 0.35
        for _ in range(800):
            r = rng.random()
            if r < push_p:
                defer = rng.random() < 0.25
                stats = q.push(value, defer_prev=defer)
                record.append(["push", value, defer, *astuple(stats)])
                value += 1
            elif r < push_p + 0.05:
                n = rng.randrange(1, 6)
                stats = q.push_many(range(value, value + n))
                record.append(["push_many", value, n, *astuple(stats)])
                value += n
            elif r < push_p + 0.1:
                out, stats = q.pop_many(rng.randrange(1, 8))
                events["fix"] += stats.relocations > 0
                record.append(["pop_many", out, *astuple(stats)])
            else:
                pop()
        if phase % 4 == 3:  # drain, then pop once more on the empty queue
            while pop():
                pass
    q.check_invariants()
    return _digest(record, list(q.snapshot()),
                   {"len": len(q), "fixups_total": q.fixups_total}), events


TRACES = {
    **{f"cuckoo_dense_s{s}": (cuckoo_dense, s) for s in (1, 2)},
    **{f"cuckoo_mixed_stable_s{s}": (lambda s: cuckoo_mixed(s, stable_hash), s)
       for s in (1, 2)},
    **{f"cuckoo_mixed_mult_s{s}": (lambda s: cuckoo_mixed(s, _mult_hash), s)
       for s in (1, 2)},
    **{f"rbtree_s{s}": (rbtree_churn, s) for s in (1, 2)},
    **{f"queue_s{s}": (queue_mix, s) for s in (1, 2)},
}


def run_trace(name):
    fn, seed = TRACES[name]
    return fn(seed)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_reproduces_golden(name, golden):
    digests, events = run_trace(name)
    assert digests == golden[name]
    # the trace exercises what it claims to
    assert all(events.values()), events


def test_golden_covers_every_trace(golden):
    assert sorted(golden) == sorted(TRACES)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {name: run_trace(name)[0] for name in sorted(TRACES)},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
