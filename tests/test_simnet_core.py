"""Tests for the discrete-event kernel: events, timeouts, processes."""

import gc

import pytest

from repro.simnet import AnyOf, Process, SimulationError, Simulator
from repro.simnet.core import _PROCESSED


class TestEvent:
    def test_pending_value_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_succeed_carries_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        sim.run()
        assert ev._state == _PROCESSED and ev.ok and ev.value == 42

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)
        with pytest.raises(SimulationError):
            ev.fail(ValueError("x"))

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = sim.event()
        ev.succeed("v")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]

    def test_delayed_succeed(self, sim):
        ev = sim.event()
        ev.succeed("late", delay=5.0)
        sim.run()
        assert sim.now == 5.0


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        sim.timeout(2.5)
        sim.run()
        assert sim.now == 2.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_timeouts_fire_in_order(self, sim):
        order = []
        for d in (3.0, 1.0, 2.0):
            sim.timeout(d).add_callback(lambda e, d=d: order.append(d))
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_equal_time_fifo(self, sim):
        order = []
        for i in range(5):
            sim.timeout(1.0).add_callback(lambda e, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcess:
    def test_return_value(self, sim):
        def body():
            yield sim.timeout(1.0)
            return "done"

        assert sim.run_process(body()) == "done"
        assert sim.now == 1.0

    def test_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            Process(sim, lambda: None)

    def test_yield_from_composition(self, sim):
        def inner():
            yield sim.timeout(1.0)
            return 10

        def outer():
            a = yield from inner()
            b = yield from inner()
            return a + b

        assert sim.run_process(outer()) == 20
        assert sim.now == 2.0

    def test_exception_propagates(self, sim):
        def body():
            yield sim.timeout(0.5)
            raise ValueError("boom")

        proc = sim.process(body())
        sim.run()
        assert proc.done and not proc.ok
        with pytest.raises(ValueError, match="boom"):
            _ = proc.result

    def test_result_before_done_raises(self, sim):
        def body():
            yield sim.timeout(1.0)

        proc = sim.process(body())
        with pytest.raises(SimulationError):
            _ = proc.result

    def test_failed_event_throws_into_process(self, sim):
        ev = sim.event()

        def body():
            try:
                yield ev
            except RuntimeError as err:
                return f"caught {err}"

        proc = sim.process(body())
        ev.fail(RuntimeError("remote"))
        sim.run()
        assert proc.result == "caught remote"

    def test_yield_non_event_raises(self, sim):
        def body():
            yield 42

        proc = sim.process(body())
        sim.run()
        assert not proc.ok
        with pytest.raises(SimulationError):
            _ = proc.result

    def test_wait_on_other_process(self, sim):
        def worker():
            yield sim.timeout(3.0)
            return "worker-result"

        def boss():
            w = sim.process(worker())
            value = yield w
            return value

        assert sim.run_process(boss()) == "worker-result"

    def test_run_process_detects_deadlock(self, sim):
        ev = sim.event()  # never triggered

        def body():
            yield ev

        with pytest.raises(SimulationError, match="did not finish"):
            sim.run_process(body())

    def test_yield_already_fired_event(self, sim):
        ev = sim.event()
        ev.succeed(99)
        sim.run()

        def body():
            value = yield ev
            return value

        assert sim.run_process(body()) == 99

    def test_hot_loop_does_not_recurse(self, sim):
        """10k immediate resumptions must not blow the stack."""

        def body():
            ev = sim.event()
            ev.succeed(None)
            sim.run(until=sim.now)
            for _ in range(10_000):
                yield sim.timeout(0.0)
            return True

        assert sim.run_process(body()) is True


class TestCombinators:
    def test_any_of_first_wins(self, sim):
        events = [sim.timeout(3.0, "slow"), sim.timeout(1.0, "fast")]
        combined = sim.any_of(events)

        def body():
            result = yield combined
            return result

        assert sim.run_process(body()) == (1, "fast")

    def test_any_of_requires_events(self, sim):
        with pytest.raises(ValueError):
            sim.any_of([])


class TestSimulator:
    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(4.0)
        assert sim.peek() == 4.0

    def test_run_until(self, sim):
        hits = []
        for d in (1.0, 2.0, 3.0):
            sim.timeout(d).add_callback(lambda e, d=d: hits.append(d))
        sim.run(until=2.0)
        assert hits == [1.0, 2.0]
        assert sim.now == 2.0
        sim.run()
        assert hits == [1.0, 2.0, 3.0]

    def test_events_processed_counter(self, sim):
        for _ in range(7):
            sim.timeout(1.0)
        sim.run()
        assert sim.events_processed == 7


class TestProcessGarbage:
    @staticmethod
    def _short_processes():
        """Waiters overflow to a callbacks list at all three sites: a
        process's first step, a resume by a plain event, and the kernel's
        inlined resume by a timeout.  Keepers, whose result is the event
        they waited on, share a plain event and a timeout with other
        waiters: if the kernel kept a retired event's callbacks list,
        event, list and keeper would form a cycle.  Returns the results
        and the simulator, by which the test tells these processes from
        any other test's leftovers."""
        sim = Simulator()
        gate = sim.event()
        nap = sim.timeout(0.5)

        def short(i):
            yield sim.timeout(1.0 + i % 3)
            return i

        def at_start(target):
            return (yield target)

        def after_event(target):
            yield gate
            return (yield target)

        def after_timeout(target):
            yield sim.timeout(0.5)
            return (yield target)

        def keeper(event):
            yield event
            return event

        def opener():
            yield sim.timeout(0.25)
            gate.succeed()

        targets = [sim.process(short(i)) for i in range(6)]
        waiters = [sim.process(body(targets[i % 6]))
                   for i in range(12)
                   for body in (at_start, after_event, after_timeout)]
        keepers = [sim.process(keeper(ev)) for ev in (gate, nap) * 3]
        sim.process(opener())
        sim.run()
        assert [k.result for k in keepers] == [gate, nap] * 3
        return [w.result for w in waiters], sim

    def test_finished_processes_are_not_cyclic_garbage(self):
        # Only this program's processes count: cyclic garbage an earlier
        # test left (a generated program's processes, say) may land in
        # ``gc.garbage`` too.
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            results, sim = self._short_processes()
            gc.collect()
            leaked = sum(isinstance(o, Process) and o.sim is sim
                         for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert results == [i % 6 for i in range(12) for _ in range(3)]
        assert leaked == 0

    def test_settled_any_of_is_not_cyclic_garbage(self):
        """Each child callback of an AnyOf names the AnyOf; once it
        settles it drops them, so it is freed by reference counting."""
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            sim = Simulator()

            def waiter():
                return (yield sim.any_of([sim.timeout(1.0), sim.timeout(2.0)]))

            procs = [sim.process(waiter()) for _ in range(10)]
            sim.run()
            results = [p.result for p in procs]
            del procs
            gc.collect()
            leaked = sum(isinstance(o, AnyOf) and o.sim is sim
                         for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert results == [(0, None)] * 10
        assert leaked == 0
