"""Tests for mutual exclusion and Barrier.

The kernel has no lock class: a mutex is a capacity-1 :class:`Resource`
(``claim`` / ``release_slot`` / ``try_acquire`` / ``in_use``), as the NIC's
per-region atomic lock, a ``concurrency="mutex"`` partition lock and
Fig 1's bucket line use it.  ``TestSimLock`` keeps the lock contract the
retired ``SimLock`` class was tested on.
"""

import pytest

from repro.simnet import Barrier, Resource
from repro.simnet.core import SimulationError


class TestSimLock:
    def test_mutual_exclusion(self, sim):
        lock = Resource(sim, 1)
        inside = []

        def worker(i):
            yield lock.claim()
            inside.append(("enter", i, sim.now))
            yield sim.timeout(1.0)
            inside.append(("exit", i, sim.now))
            lock.release_slot()

        for i in range(3):
            sim.process(worker(i))
        sim.run()
        # Critical sections must not overlap.
        intervals = [(e[2], x[2]) for e, x in zip(inside[::2], inside[1::2])]
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2

    def test_release_unlocked_raises(self, sim):
        lock = Resource(sim, 1)
        with pytest.raises(SimulationError):
            lock.release_slot()

    def test_contention_counters(self, sim):
        lock = Resource(sim, 1)
        queued = []

        def worker():
            yield lock.claim()
            queued.append(len(lock._queue))
            yield sim.timeout(1.0)
            lock.release_slot()

        for _ in range(4):
            sim.process(worker())
        sim.run()
        # The first holder saw all three others queued behind it; each
        # later grant leaves one fewer.
        assert queued == [3, 2, 1, 0]
        assert lock.in_use == 0 and not lock._queue
        assert sim.now == 4.0

    def test_fifo_fairness(self, sim):
        lock = Resource(sim, 1)
        order = []

        def worker(i):
            yield lock.claim()
            order.append(i)
            yield sim.timeout(0.5)
            lock.release_slot()

        for i in range(5):
            sim.process(worker(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestBarrier:
    def test_all_parties_released_together(self, sim):
        barrier = Barrier(sim, parties=3)
        released = []

        def worker(i):
            yield sim.timeout(float(i))
            gen = yield barrier.wait()
            released.append((i, sim.now, gen))

        for i in range(3):
            sim.process(worker(i))
        sim.run()
        assert all(t == 2.0 for _i, t, _g in released)
        assert all(g == 1 for _i, _t, g in released)

    def test_reusable_generations(self, sim):
        barrier = Barrier(sim, parties=2)
        gens = []

        def worker():
            for _ in range(3):
                g = yield barrier.wait()
                gens.append(g)

        sim.process(worker())
        sim.process(worker())
        sim.run()
        assert sorted(gens) == [1, 1, 2, 2, 3, 3]

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            Barrier(sim, parties=0)
