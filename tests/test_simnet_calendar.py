"""Calendar-queue far lane: heap-derived goldens and a ``heapq`` oracle.

The calendar queue is the kernel's only far lane.  Its one contract:
retire events in exactly the order a binary heap would — same timestamps,
same priority handling, same FIFO tiebreak on the creation sequence — so
every simulated result is bit-identical to the heap kernel this repo
shipped until PR 13.  Two independent checks pin that contract:

* **Golden retire-order traces.**  Each scenario below was run at the
  parent commit with ``Simulator(scheduler="heap")`` and its full trace
  frozen in ``tests/data/simnet_heap_goldens.json``.  The scenarios cover
  the edges where a bucketed structure could drift from a heap:
  same-timestamp bursts, tombstoned (interrupted) entries inside buckets,
  AnyOf/AllOf settle order, and a seeded randomized workload whose trace
  is independent of ``PYTHONHASHSEED``.  The heap lane no longer exists,
  so the file is frozen: never regenerate it from the calendar queue.
* **A queue-level differential test** that drives :class:`_CalendarQueue`
  and a plain ``heapq`` list with identical seeded push/pop interleavings.
"""

from __future__ import annotations

import heapq
import json
import random
from functools import partial
from pathlib import Path

import pytest

from repro.simnet.core import (
    _T_CAP, Interrupt, SimulationError, Simulator, _CalendarQueue,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "simnet_heap_goldens.json"


def _far(sim, delay, value=None):
    """Schedule a timeout that lands in the FAR lane (not the near deque).

    The near lane only takes monotone appends; scheduling a later anchor
    first forces the earlier timeout into the far structure under test.
    """
    anchor = sim.timeout(delay + 1000.0)
    to = sim.timeout(delay, value=value)
    assert anchor is not to
    return to


# -- scenarios ---------------------------------------------------------------
# Each takes a fresh Simulator, asserts its own human-readable invariants
# and returns a JSON-able trace that must equal the heap-derived golden.

def same_timestamp_creation_order(sim):
    fired = []

    def waiter(i, to):
        yield to
        fired.append(i)

    # A far anchor first, then 50 identical-time timeouts that all land in
    # one calendar bucket.
    sim.timeout(2000.0)
    for i in range(50):
        sim.process(waiter(i, sim.timeout(7.25)))
    sim.run(until=100.0)
    assert fired == list(range(50))
    return fired


def same_timestamp_interleaved(sim):
    trace = []

    def waiter(i, to):
        got = yield to
        trace.append((sim.now, i, got))

    sim.timeout(5000.0)
    for i in range(30):
        # Three distinct times, ten waiters each, interleaved.
        sim.process(waiter(i, sim.timeout(1.0 + (i % 3), value=i)))
    sim.run(until=100.0)
    return trace


def tombstone_far_entry(sim):
    log = []

    def proc():
        try:
            yield _far(sim, 50.0, value="late")
            log.append("value")
        except Interrupt as intr:
            log.append(("intr", intr.cause))
            yield sim.timeout(0.5)
            log.append(("after", sim.now))

    p = sim.process(proc())

    def interrupter():
        yield sim.timeout(1.0)
        p.interrupt("go")

    sim.process(interrupter())
    sim.run(until=2000.0)
    # The tombstoned t=50 wakeup inside the far structure must be skipped
    # silently when its bucket drains.
    assert log == [("intr", "go"), ("after", 1.5)]
    assert p.done
    return log


def tombstone_bucket(sim):
    survivors = []

    def waiter(i, to):
        try:
            yield to
            survivors.append((sim.now, i))
        except Interrupt:
            pass

    sim.timeout(5000.0)
    procs = [sim.process(waiter(i, sim.timeout(10.0))) for i in range(20)]

    def killer():
        yield sim.timeout(1.0)
        for i in range(0, 20, 2):
            procs[i].interrupt()

    sim.process(killer())
    sim.run(until=100.0)
    assert survivors == [(10.0, i) for i in range(1, 20, 2)]
    return survivors


def any_of_far_children(sim):
    got = []

    def proc():
        fast = _far(sim, 3.0, value="fast")
        slow = _far(sim, 30.0, value="slow")
        got.append((yield sim.any_of([fast, slow])))
        got.append(sim.now)

    sim.run_process(proc())
    assert got[0] == (0, "fast")
    return got


def all_of_across_buckets(sim):
    got = []

    def proc():
        # Reverse-chronological listing, spread far apart so the children
        # occupy different calendar buckets.
        late = _far(sim, 40.0, value="late")
        mid = _far(sim, 2.0, value="mid")
        early = _far(sim, 0.5, value="early")
        got.append((yield sim.all_of([late, mid, early])))
        got.append(sim.now)

    sim.run_process(proc())
    # AllOf value order follows the listed order, not firing order.
    assert got[0] == ["late", "mid", "early"]
    return got


def randomized(sim, seed):
    """Seeded random workload; everything observable is keyed on
    deterministic ints/floats and list order — no set/dict iteration."""
    rng = random.Random(seed)
    trace = []
    plans = [
        [
            (rng.choice(("short", "far", "cb", "at")),
             rng.uniform(1e-7, 1.0) * 10 ** rng.randint(0, 4))
            for _ in range(rng.randint(5, 25))
        ]
        for _ in range(20)
    ]

    def body(pid, plan):
        for step, (kind, delay) in enumerate(plan):
            if kind == "cb":
                sim.schedule_callback(
                    lambda pid=pid, step=step:
                        trace.append((sim.now, "cb", pid, step)),
                    delay,
                )
            elif kind == "at":
                yield sim.timeout_at(sim.now + delay)
                trace.append((sim.now, "at", pid, step))
            else:
                yield sim.timeout(delay)
                trace.append((sim.now, kind, pid, step))
        trace.append((sim.now, "done", pid, -1))

    for pid, plan in enumerate(plans):
        sim.process(body(pid, plan))
    sim.run()
    assert len(trace) > 100  # the workload actually ran
    return {"trace": trace, "events_processed": sim.events_processed,
            "now": sim.now}


SCENARIOS = {
    "same_timestamp_creation_order": same_timestamp_creation_order,
    "same_timestamp_interleaved": same_timestamp_interleaved,
    "tombstone_far_entry": tombstone_far_entry,
    "tombstone_bucket": tombstone_bucket,
    "any_of_far_children": any_of_far_children,
    "all_of_across_buckets": all_of_across_buckets,
    "randomized_seed_1": partial(randomized, seed=1),
    "randomized_seed_7": partial(randomized, seed=7),
    "randomized_seed_1234": partial(randomized, seed=1234),
}


def run_scenario(name, sim):
    """Trace of one scenario in the goldens' JSON shape (tuples -> lists;
    floats round-trip exactly through ``repr``)."""
    return json.loads(json.dumps(SCENARIOS[name](sim)))


class TestHeapGoldens:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_PATH) as fh:
            return json.load(fh)

    def test_header_names_the_oracle(self, golden):
        assert golden["scheduler"] == "heap"
        assert golden["parent_commit"].startswith("640e6f4")
        assert sorted(golden["traces"]) == sorted(SCENARIOS)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_retire_order_matches_heap_golden(self, golden, name):
        assert run_scenario(name, Simulator()) == golden["traces"][name]


class TestAdaptiveWidth:
    def test_skewed_spacing_forces_resizes_and_stays_ordered(self):
        sim = Simulator()
        fired = []

        def waiter(i, to):
            yield to
            fired.append((sim.now, i))

        # Anchor far out so everything below routes through the calendar.
        # Then both skew extremes: a sub-bucket-width clump of 600 events
        # (refill sees > _REFILL_HI -> width halves) and a sparse tail of
        # one event per bucket across 16 buckets (refills see <= _REFILL_LO
        # with many buckets pending -> width doubles).
        sim.timeout(1e6)
        delays = [1000.0 + j * 1e-7 for j in range(600)]
        delays.extend(2000.0 + k * 10.0 for k in range(16))
        for i, d in enumerate(delays):
            sim.process(waiter(i, sim.timeout(d)))
        sim.run(until=1e5)
        assert [i for _t, i in fired] == sorted(
            range(len(delays)), key=lambda i: (delays[i], i)
        )
        cal = sim.kernel_stats()["calendar"]
        assert cal["resizes"] >= 1, "adaptive width never engaged"
        assert cal["refills"] >= 1

    def test_kernel_stats_always_carry_the_calendar(self):
        stats = Simulator().kernel_stats()
        assert set(stats["calendar"]) >= {"width", "refills", "resizes"}
        assert "scheduler" not in stats and "heap_depth" not in stats

    def test_simulator_takes_no_options(self):
        with pytest.raises(TypeError):
            Simulator(scheduler="heap")
        with pytest.raises(TypeError):
            Simulator(pooling=False)


class TestHeapqOracle:
    """``_CalendarQueue`` vs a plain ``heapq`` list, op for op."""

    @staticmethod
    def _drive(seed):
        rng = random.Random(seed)
        cal = _CalendarQueue()
        ref = []
        seq = 0
        now = 0.0
        widths = [cal.width]

        def push(t, prio=0):
            nonlocal seq
            seq += 1
            entry = (t, prio, seq, None)
            cal.push(entry)
            heapq.heappush(ref, entry)

        def pop():
            nonlocal now
            assert cal.peek() == ref[0]
            got = cal.pop()
            assert got == heapq.heappop(ref)
            assert len(cal) == len(ref)
            now = got[0]
            if cal.width != widths[-1]:
                widths.append(cal.width)

        # Dense clump (one bucket > _REFILL_HI -> halve) then a sparse
        # tail (<= _REFILL_LO per bucket, > 8 buckets pending -> double).
        for j in range(600):
            push(1000.0 + j * 1e-7)
        for k in range(16):
            push(2000.0 + k * 10.0)
        # Same-(t, prio) burst: only the sequence number breaks the tie.
        for _ in range(40):
            push(1500.0, prio=1)
        # Deadlines at and past the bucket-index cap share one top bucket.
        for t in (_T_CAP, 2 * _T_CAP, float("inf"), float("inf")):
            push(t)
        # Seeded interleaving: pushes land before, inside and far beyond
        # the active epoch, at mixed priorities, between pops.
        for _ in range(4000):
            if ref and rng.random() < 0.45:
                pop()
            else:
                span = 10 ** rng.randint(-7, 3)
                push(now + rng.uniform(0.0, 1.0) * span,
                     prio=rng.choice((0, 0, 0, -1, 1)))
        while ref:
            pop()
        assert len(cal) == 0 and cal.peek() is None
        return widths, cal.stats()

    @pytest.mark.parametrize("seed", [1, 7, 1234])
    def test_identical_pop_order_under_seeded_interleaving(self, seed):
        widths, stats = self._drive(seed)
        steps = list(zip(widths, widths[1:]))
        assert any(b < a for a, b in steps), "bucket width never halved"
        assert any(b > a for a, b in steps), "bucket width never doubled"
        assert stats["resizes"] == len(steps)

    def test_pop_on_empty_raises_simulation_error(self):
        with pytest.raises(SimulationError, match="empty"):
            _CalendarQueue().pop()


class TestEmptyQueue:
    def test_step_on_empty_raises_simulation_error(self):
        with pytest.raises(SimulationError,
                           match=r"step\(\) on an empty event queue"):
            Simulator().step()

    def test_step_after_drain_raises_simulation_error(self):
        sim = Simulator()
        _far(sim, 1.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.step()
