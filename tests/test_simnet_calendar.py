"""The event queue: heap-derived goldens and a ``(time, seq)`` property.

The kernel's one contract: retire entries in exactly the total order
``(time, seq)`` — same timestamps, same FIFO tiebreak on the creation
sequence — so every simulated result is bit-identical to the heap
scheduler the goldens were recorded from.  Two independent checks pin
that contract:

* **Golden retire-order traces.**  Each scenario below was run with the
  original heap scheduler (``Simulator(scheduler="heap")``) and its full
  trace frozen in ``tests/data/simnet_heap_goldens.json``.  The scenarios
  cover same-timestamp bursts, entries pushed behind later ones,
  AnyOf settle order, and a seeded randomized workload whose trace
  is independent of ``PYTHONHASHSEED``.  The file is frozen: never
  regenerate it from the code under test.
* **A Hypothesis property** over random schedules (zero-delay and
  equal-time timeouts, ``timeout_at``, callbacks, events succeeded from
  callbacks, processes sleeping on timeouts): every retired entry is the
  ``(time, seq)`` minimum of what is pending, and cutting the run into
  ``run(until=)`` segments retires the same sequence as one ``run()``.
"""

from __future__ import annotations

import json
import random
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simnet import Process
from repro.simnet.core import Simulator

GOLDEN_PATH = Path(__file__).parent / "data" / "simnet_heap_goldens.json"


def _far(sim, delay, value=None):
    """Schedule a timeout behind a later anchor (an out-of-order push)."""
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

    # A later anchor first, then 50 identical-time timeouts.
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
                sim.timeout(delay).add_callback(
                    lambda _ev, pid=pid, step=step:
                        trace.append((sim.now, "cb", pid, step)))
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
    "any_of_far_children": any_of_far_children,
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


class TestOneQueue:
    def test_kernel_stats_report_one_queue_depth(self):
        sim = Simulator()
        assert sim.kernel_stats()["queue_depth"] == 0
        sim.timeout(2.0)
        sim.timeout(1.0).add_callback(lambda _ev: None)
        stats = sim.kernel_stats()
        assert stats["queue_depth"] == 2
        assert not {"lane_depth", "far_depth", "calendar"} & set(stats)

    def test_simulator_takes_no_options(self):
        with pytest.raises(TypeError):
            Simulator(scheduler="heap")
        with pytest.raises(TypeError):
            Simulator(pooling=False)
        # No bare-callback entry, no interrupt, no pool stats.
        sim = Simulator()
        assert not hasattr(sim, "schedule_callback")
        assert not hasattr(sim, "schedule_callback_at")
        assert not hasattr(Process, "interrupt")
        assert set(sim.kernel_stats()) == {"events_processed", "queue_depth"}


# -- the (time, seq) property -----------------------------------------------
# Every delay and absolute time comes from a small grid of exact binary
# fractions, so equal-time entries (and sums of them) collide constantly.

_GRID = (0.0, 0.25, 0.5, 1.0)

_op = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(_GRID)),
    st.tuples(st.just("at"), st.sampled_from(_GRID)),
    st.tuples(st.just("cb"), st.sampled_from(_GRID)),
    st.tuples(st.just("succeed"), st.sampled_from(_GRID),
              st.sampled_from(_GRID)),
    st.tuples(st.just("proc"), st.sampled_from(_GRID),
              st.sampled_from(_GRID)),
)


@st.composite
def schedules(draw):
    ops = draw(st.lists(_op, min_size=1, max_size=30))
    times = sorted({op[1] for op in ops})
    bounds = draw(st.lists(
        st.one_of(st.sampled_from(times),
                  st.floats(0.0, 2.5, allow_nan=False)),
        max_size=4))
    # At least one bound sits exactly on an entry's time.
    bounds.append(draw(st.sampled_from(times)))
    return ops, sorted(bounds)


def _play(sim, ops):
    """Schedule ``ops`` on ``sim`` and return ``(log, pending)``.

    Each tracked entry is keyed ``(time, k)`` when scheduled, ``k``
    counting this function's scheduling calls — the kernel's ``seq`` is
    assigned in the same call order.  ``log`` collects ``(tag, now)`` per
    retire; ``pending`` maps tag -> key for entries not yet retired.
    """
    log = []
    pending = {}
    counter = [0]

    def track(tag, t):
        counter[0] += 1
        pending[tag] = (t, counter[0])

    def retire(tag):
        log.append((tag, sim.now))
        key = pending.pop(tag)
        assert key[0] == sim.now
        assert not pending or key < min(pending.values()), (tag, key)

    def hook(tag):
        return lambda _ev: retire(tag)

    def succeed_later(tag, delay):
        def fire():
            retire(tag)
            ev = sim.event()
            ev.succeed(tag, delay=delay)
            track(tag + "/ev", sim.now + delay)
            ev.add_callback(hook(tag + "/ev"))
        return fire

    def sleeper(tag, waits):
        # Its kick-off and each timeout it yields are queue entries; the
        # drain loop resumes it in place from the timeout's waiter slot.
        retire(tag)
        for j, wait in enumerate(waits):
            to = sim.timeout(wait)
            track(f"{tag}/{j}", sim.now + wait)
            yield to
            retire(f"{tag}/{j}")

    for i, op in enumerate(ops):
        tag = f"{i}:{op[0]}"
        kind = op[0]
        if kind == "timeout":
            sim.timeout(op[1]).add_callback(hook(tag))
            track(tag, op[1])
        elif kind == "at":
            sim.timeout_at(op[1]).add_callback(hook(tag))
            track(tag, op[1])
        elif kind == "cb":
            sim.timeout(op[1]).add_callback(lambda _ev, tag=tag: retire(tag))
            track(tag, op[1])
        elif kind == "succeed":
            sim.timeout(op[1]).add_callback(
                lambda _ev, fn=succeed_later(tag, op[2]): fn())
            track(tag, op[1])
        else:
            sim.process(sleeper(tag, op[1:]))
            track(tag, sim.now)
    return log, pending


@given(schedules())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_retire_order_is_time_seq_and_segment_invariant(schedule):
    ops, bounds = schedule
    sim = Simulator()
    whole, pending = _play(sim, ops)
    sim.run()
    assert not pending
    assert sim.kernel_stats()["queue_depth"] == 0

    segmented = Simulator()
    cut, pending = _play(segmented, ops)
    for bound in bounds:
        segmented.run(until=bound)
        assert segmented.now == bound
        assert all(now <= bound for _tag, now in cut)
        assert segmented.peek() > bound
    segmented.run()
    assert not pending
    assert cut == whole
    assert segmented.events_processed == sim.events_processed

