"""MDList goldens: per-op ``OpStats``, pops and final shape, bit for bit.

The priority queue's simulated cost is its ``OpStats`` — hops, reads,
writes, CASes and purged counts — so a host-time rewrite of
``repro.structures.mdlist`` must reproduce them exactly.  Each trace below
is a seeded mix of pushes, pops and peeks over one ``(dims, base)``
geometry, with priorities drawn from a small pool so duplicates and
re-pushes of popped (marked, not yet purged) keys are common, drain phases
that pop past empty, and at least three purges.  Geometries too small to
hold ``PURGE_THRESHOLD`` nodes run with the instance's threshold lowered,
so the purge runs there too.

``tests/data/mdlist_goldens.json`` holds, per trace, the sha256 of the
per-op record (op, returned key/value, every ``OpStats`` field), the
sha256 of the final preorder shape (key, marked, values, child keys per
node, head included) and ``purges_total``.  It was recorded from the
``mdlist.py`` that rebuilt every purge by re-splicing each live key, and
is frozen: a change that *means* to move the queue's costs re-records it
and says so — never from the code under test.

Each trace is replayed a second time through the vector ops: runs of
consecutive pushes become one ``push_many`` and runs of consecutive pops one
``pop_many``, whose ``OpStats`` must be the sum of the per-op records, with
the same pops and the same final shape.

Re-record with ``PYTHONPATH=src python tests/test_mdlist_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import astuple
from itertools import groupby
from pathlib import Path

import pytest

from repro.structures.mdlist import MDListPriorityQueue, PriorityQueueEmpty

GOLDEN_PATH = Path(__file__).parent / "data" / "mdlist_goldens.json"

# (dims, base, seed, purge threshold or None for the class default)
TRACES = [
    (2, 4, 1, 4), (2, 4, 2, 6), (2, 4, 3, 8),
    (3, 4, 1, 8), (3, 4, 2, 16), (3, 4, 3, 32),
    (4, 8, 1, None), (4, 8, 2, None), (4, 8, 3, 16),
    (8, 16, 1, None), (8, 16, 2, None), (8, 16, 3, 32),
    (9, 8, 1, None), (9, 8, 2, None), (9, 8, 3, 16),
]


def _shape(pq):
    """Every node in preorder, head first: key, marked, values, children."""
    out = []
    stack = [pq._head]
    while stack:
        node = stack.pop()
        out.append([node.key, node.marked, list(node.values),
                    [None if c is None else c.key for c in node.children]])
        stack.extend(c for c in node.children if c is not None)
    return out


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _queue(dims, base, threshold):
    pq = MDListPriorityQueue(dims=dims, base=base)
    if threshold is not None:
        pq.PURGE_THRESHOLD = threshold
    return pq


def run_trace(dims, base, seed, threshold):
    """Play one trace; returns its digests, the events it exercised and
    the per-op record."""
    rng = random.Random(seed * 1000 + dims * 10 + base)
    pq = _queue(dims, base, threshold)
    limit = base ** dims
    pool = sorted(rng.sample(range(limit), min(limit, 3 * pq.PURGE_THRESHOLD)))
    live = {}  # key -> live values, for every node in the structure
    events = {"empty": 0, "unmark": 0, "dup": 0}
    record = []

    def pop() -> bool:
        nonlocal live
        try:
            key, got, stats = pq.pop_min()
        except PriorityQueueEmpty:
            events["empty"] += 1
            record.append(["pop-empty"])
            return False
        live[key] -= 1
        if stats.relocations:
            live = {k: n for k, n in live.items() if n}
        record.append(["pop", key, got, *astuple(stats)])
        return True

    value = 0
    for phase in range(10):
        push_p = 0.75 if phase % 2 == 0 else 0.3
        for _ in range(12 * pq.PURGE_THRESHOLD):
            r = rng.random()
            if r < push_p:
                key = rng.choice(pool)
                if key in live:
                    events["dup" if live[key] else "unmark"] += 1
                stats = pq.push(key, value)
                live[key] = live.get(key, 0) + 1
                record.append(["push", key, value, *astuple(stats)])
                value += 1
            elif r < push_p + 0.05:
                try:
                    record.append(["peek", *pq.peek_min()])
                except PriorityQueueEmpty:
                    record.append(["peek-empty"])
            else:
                pop()
        if phase % 4 == 3:  # drain, then pop once more on the empty queue
            while pop():
                pass
    pq.check_invariants()
    return {
        "ops": len(record),
        "ops_sha256": _sha(record),
        "shape_sha256": _sha(_shape(pq)),
        "purges_total": pq.purges_total,
    }, events, record


def replay_vectored(dims, base, threshold, record):
    """Replay ``record`` with each run of pushes as one ``push_many`` and
    each run of pops as one ``pop_many``, checking every batch against
    the per-op records.  Returns the queue and the largest push batch,
    pop batch and purge count in one batch."""
    pq = _queue(dims, base, threshold)
    widest = {"push": 0, "pop": 0, "purged": 0}
    # "pop-empty" joins a run of pops, "peek-empty" one of peeks
    for kind, run in groupby(record, key=lambda entry: entry[0].split("-")[0]):
        run = list(run)
        if kind == "push":
            stats = pq.push_many([(key, value) for _op, key, value, *_s
                                  in run])
            per_op = [entry[3:] for entry in run]
        elif kind == "pop":
            got, stats = pq.pop_many(len(run))
            done = [entry for entry in run if entry[0] == "pop"]
            assert got == [(key, value) for _op, key, value, *_s in done]
            per_op = [entry[3:] for entry in done]
            widest["purged"] = max(widest["purged"], stats.relocations)
        else:
            for entry in run:
                try:
                    assert ["peek", *pq.peek_min()] == entry
                except PriorityQueueEmpty:
                    assert entry == ["peek-empty"]
            continue
        fields = astuple(stats)
        summed = ([sum(column) for column in zip(*per_op)] if per_op
                  else [0] * len(fields))
        assert list(fields) == summed, (kind, len(run))
        widest[kind] = max(widest[kind], len(run))
    pq.check_invariants()
    return pq, widest


def _trace_id(trace):
    dims, base, seed, threshold = trace
    return f"d{dims}b{base}s{seed}t{threshold or 'default'}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", TRACES, ids=_trace_id)
def test_trace_reproduces_golden(trace, golden):
    digests, events, _record = run_trace(*trace)
    assert digests == golden[_trace_id(trace)]
    # the trace exercises what it claims to
    assert digests["purges_total"] >= 3
    assert events["empty"] > 0 and events["unmark"] > 0 and events["dup"] > 0


@pytest.mark.parametrize("trace", TRACES, ids=_trace_id)
def test_vector_ops_replay_the_trace(trace, golden):
    """push_many / pop_many over the trace's runs of pushes and pops: each
    batch's OpStats is the sum of its per-op records, the pops match, and
    the final shape and purge count are the golden ones."""
    dims, base, _seed, threshold = trace
    _digests, _events, record = run_trace(*trace)
    pq, widest = replay_vectored(dims, base, threshold, record)
    want = golden[_trace_id(trace)]
    assert _sha(_shape(pq)) == want["shape_sha256"]
    assert pq.purges_total == want["purges_total"]
    # the batches are real batches, and some pop_many purges mid-batch
    assert widest["push"] > 1 and widest["pop"] > 1 and widest["purged"] > 0


def test_golden_covers_every_trace(golden):
    assert sorted(golden) == sorted(_trace_id(t) for t in TRACES)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {_trace_id(t): run_trace(*t)[0] for t in TRACES},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
