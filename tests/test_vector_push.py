"""The vector push on the batch path: ``HCLPriorityQueue._run_push``.

A coalesced batch hands each maximal run of ``push`` sub-ops to one
``MDListPriorityQueue.push_many`` call.  Host time is the only thing
allowed to change, so every check here compares one ``_do_batch`` against
the N per-op ``_run`` calls of ``_do_push`` (and of the other sub-ops of a
mixed batch) it replaced, on twin queues: results, summed ``OpStats``
(resize stats included), worst entry bytes, write epoch, segment size,
node ``memory_used`` and MDList pop order.  Streams repeat priorities,
grow the segment several times mid-run, and break a run with an
out-of-range priority.

The last check pins what a small aggregated ISx run charges — the Table I
rows of ``push`` and ``batch``, the final clock and the event count —
recorded from the per-op batch path before the vector push replaced it.
"""

from __future__ import annotations

import random
from dataclasses import astuple
from functools import reduce

import pytest

from repro.apps import run_isx
from repro.config import ares_like
from repro.core import HCL
from repro.structures.stats import OpStats

#: a dims=4, base=8 queue takes priorities in [0, 4096)
KEY_LIMIT = 8 ** 4


def _small_pq():
    """A priority queue on its own runtime; its segment starts at 64 KiB."""
    h = HCL(ares_like(nodes=2, procs_per_node=2, seed=7))
    return h, h.priority_queue("q", dims=4, base=8)


def _stream(seed: int, n: int, keyspace: int, strings: bool):
    """``(priority, value)`` pushes; a small keyspace repeats priorities,
    and string values of mixed length make each op's entry bytes differ."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        value = "v" * rng.randrange(0, 400) if strings else None
        out.append((rng.randrange(keyspace), value))
    return out


def _mixed(stream, seed: int):
    """Push runs broken up by pops, peeks and sizes."""
    rng = random.Random(seed)
    subops = []
    for args in stream:
        r = rng.random()
        if r < 0.05:
            subops.append(("pop", ()))
        elif r < 0.08:
            subops.append(("peek", ()))
        elif r < 0.09:
            subops.append(("size", ()))
        subops.append(("push", args))
    return subops


def _state(part):
    """What a run leaves behind, popping the queue empty last."""
    return (part.write_epoch, part.segment.size,
            part.segment.node.memory_used.value, len(part.structure),
            part.structure.pop_many(len(part.structure))[0])


@pytest.mark.parametrize("strings", [False, True], ids=["none", "str"])
@pytest.mark.parametrize("mixed", [False, True], ids=["pushes", "mixed"])
@pytest.mark.parametrize("seed", [1, 2])
def test_batch_is_n_per_op_calls(strings, mixed, seed):
    stream = _stream(seed, 1500, 300, strings)
    subops = (_mixed(stream, seed + 10) if mixed
              else [("push", args) for args in stream])
    (h_vec, vec), (h_one, one) = _small_pq(), _small_pq()
    part_vec, part_one = vec.partitions[0], one.partitions[0]

    results, stats, worst = vec._do_batch(part_vec, subops)
    singles = [one._run(part_one, op, args) for op, args in subops]

    assert results == [r for r, _s, _b in singles]
    assert astuple(stats) == astuple(
        reduce(OpStats.merge, (s for _r, s, _b in singles), OpStats()))
    assert worst == max(16, *(b for _r, _s, b in singles))
    # segment grows at several ops inside the runs, each at its own length
    grows = [s.resize_entries for _r, s, _b in singles if s.resized]
    assert len(grows) >= (4 if strings else 2)
    assert stats.resized and stats.resize_entries == sum(grows)
    part_vec.structure.check_invariants()
    assert _state(part_vec) == _state(part_one)
    assert part_one.write_epoch == sum(op in ("push", "pop")
                                       for op, _a in subops)
    h_vec.close()
    h_one.close()


@pytest.mark.parametrize("strings", [False, True], ids=["none", "str"])
def test_out_of_range_priority_keeps_the_pushed_prefix(strings):
    """A range error mid-run fails the batch; the pushes before it keep
    their results, epoch bumps and grows, as per-op calls leave them."""
    stream = _stream(3, 900, 200, strings)
    bad = 700
    stream[bad] = (KEY_LIMIT, None)
    (h_vec, vec), (h_one, one) = _small_pq(), _small_pq()
    h_run, run = _small_pq()
    part_vec, part_one = vec.partitions[0], one.partitions[0]
    part_run = run.partitions[0]

    with pytest.raises(ValueError, match="outside"):
        vec._do_batch(part_vec, [("push", args) for args in stream])
    singles = []
    with pytest.raises(ValueError, match="outside"):
        for args in stream:
            singles.append(one._run(part_one, "push", args))
    results = []
    with pytest.raises(ValueError, match="outside"):
        run._run_push(part_run, stream, results)

    assert len(singles) == bad
    assert results == [r for r, _s, _b in singles]
    assert part_one.write_epoch == bad
    assert any(s.resized for _r, s, _b in singles)
    state = _state(part_one)
    assert _state(part_vec) == state
    assert _state(part_run) == state
    for h in (h_vec, h_one, h_run):
        h.close()


def test_buffered_push_builds_no_generator():
    """A remote push with aggregation on is buffered at the call and
    returns ``()``; a same-node push is the ``_execute`` generator."""
    h = HCL(ares_like(nodes=2, procs_per_node=2, seed=7))
    q = h.priority_queue("q", home_node=1, aggregation=8)
    assert h.cluster.node_of_rank(0) == 0 and h.cluster.node_of_rank(2) == 1
    assert q.push_buffered(0, 5, None) == ()
    assert q._coalescer.pending_total() == 1
    local = q.push_buffered(2, 6, None)
    assert hasattr(local, "send")

    def body():
        yield from local
        yield from q.flush(0)

    h.sim.run_process(body())
    assert q._coalescer.pending_total() == 0
    assert [k for k, _v in q.partitions[0].structure.items()] == [5, 6]
    h.close()


# -- the charge of a small aggregated ISx run --------------------------------------

#: recorded from the per-op batch path (one ``_do_push`` per sub-op); the
#: vector push must charge exactly the same.  Never re-record from the code
#: under test.
ISX_CHARGES = {
    "isx.bucket0": (
        {"count": 107, "F": 0.0, "L": 5.663551401869159, "R": 0.0,
         "W": 1.0, "CAS": 1.0},
        {"count": 11, "F": 1.0, "L": 217.63636363636363, "R": 0.0,
         "W": 25.727272727272727, "CAS": 25.727272727272727}),
    "isx.bucket1": (
        {"count": 99, "F": 0.0, "L": 5.717171717171717, "R": 0.0,
         "W": 1.0, "CAS": 1.0},
        {"count": 6, "F": 1.0, "L": 412.6666666666667, "R": 0.0,
         "W": 47.333333333333336, "CAS": 47.333333333333336}),
    "isx.bucket2": (
        {"count": 105, "F": 0.0, "L": 5.714285714285714, "R": 0.0,
         "W": 1.0, "CAS": 1.0},
        {"count": 4, "F": 1.0, "L": 596.25, "R": 0.0,
         "W": 70.0, "CAS": 70.0}),
    "isx.bucket3": (
        {"count": 97, "F": 0.0, "L": 5.979381443298969, "R": 0.0,
         "W": 1.0, "CAS": 1.0},
        {"count": 3, "F": 1.0, "L": 841.6666666666666, "R": 0.0,
         "W": 93.66666666666667, "CAS": 93.66666666666667}),
}


def test_aggregated_isx_charges_as_recorded():
    seen = {}
    res = run_isx("hcl", ares_like(nodes=4, procs_per_node=4, seed=7),
                  keys_per_rank=96, seed=3, aggregation=512,
                  instrument=lambda hcl: seen.setdefault("hcl", hcl))
    hcl = seen["hcl"]
    assert res.verified
    assert hcl.sim.now == 0.0017580717414283258
    assert hcl.sim.events_processed == 1740
    assert {name: (c.ledger.per_op("push"), c.ledger.per_op("batch"))
            for name, c in sorted(hcl.containers.items())} == ISX_CHARGES
