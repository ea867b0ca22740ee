"""The kernel against the reference kernel, on generated process programs.

Hypothesis writes small programs of a few processes; each op is a sleep
(zero sleeps included, yielded or as a ``timeout``), a claim on a small
:class:`Resource`, a critical section on a capacity-1 ``Resource`` used as
a mutex (claimed, or taken inline by ``try_acquire`` when free), a
:class:`Store` put or get, an ``any_of`` watchdog, a wait on another
process, an event failed on
purpose, a yield of an already-processed event (a ``completed_event``
carrying a value or an error), a raise, or a caught rejected yield.  Each
program runs on :class:`repro.simnet.core.Simulator` and on
:class:`tests.ref_kernel.RefSim` (no fast paths) under ``run()``,
``run(until=)`` segments and ``pump_samples``, and the two must give the
same ``(now, pid, step)`` trace — with what each op got and the event
count read mid-run — the same samples, event count, final clock and
process outcomes.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simnet.core import SimulationError, Simulator
from repro.simnet.resources import Resource, Store
from repro.simnet.trace import pump_samples
from tests.ref_kernel import RefSim


class Boom(Exception):
    pass


DELAYS = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5])
SLOTS = st.integers(0, 1)
OPS = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("claim"), SLOTS, DELAYS),
    st.tuples(st.just("mutex"), DELAYS, st.booleans()),
    st.tuples(st.just("put"), SLOTS),
    st.tuples(st.just("get"), SLOTS),
    st.tuples(st.just("any"), SLOTS, DELAYS),
    st.tuples(st.just("wait"), st.integers(0, 5)),
    st.tuples(st.just("fail"), DELAYS),
    st.tuples(st.just("done"), st.booleans()),
    st.tuples(st.just("reject"), st.sampled_from([-1.0, math.nan, 1, True])),
    st.tuples(st.just("raise")),
)
PROGRAMS = st.lists(st.lists(OPS, max_size=10), min_size=1, max_size=6)
BOUNDS = st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.75, 1.0, 2.0]),
                  max_size=4).map(sorted)
INTERVALS = st.sampled_from([0.05, 0.1, 0.25])


def _seen(value):
    """What a trace records of a value: exceptions by type alone (their
    messages name kernel-specific process names)."""
    if isinstance(value, BaseException):
        return type(value).__name__
    return value


def _load(sim, program):
    """Start ``program`` (one op list per process) on ``sim``; returns
    the trace, filled as it runs, and the processes."""
    resources = [Resource(sim, capacity=1), Resource(sim, capacity=2)]
    mutex, holders = Resource(sim, capacity=1), []
    stores = [Store(sim), Store(sim)]
    trace, procs = [], []

    def body(pid, ops):
        for step, op in enumerate(ops):
            kind, got = op[0], None
            if kind == "sleep":
                got = yield op[1]
            elif kind == "timeout":
                got = yield sim.timeout(op[1], value=step)
            elif kind == "claim":
                res = resources[op[1]]
                yield res.claim()
                try:
                    yield op[2]
                finally:
                    res.release_slot()
            elif kind == "mutex":
                if not (op[2] and mutex.try_acquire()):
                    yield mutex.claim()
                holders.append(pid)
                got = ("holders", len(holders))
                try:
                    yield op[1]
                finally:
                    holders.remove(pid)
                    mutex.release_slot()
            elif kind == "put":
                stores[op[1]].try_put((pid, step))
                yield sim.event().succeed(None)
            elif kind == "get":
                got = yield stores[op[1]].get()
            elif kind == "any":
                got = yield sim.any_of([stores[op[1]].get(),
                                        sim.timeout(op[2], value="late")])
            elif kind == "wait":
                other = procs[op[1] % len(procs)]
                if other is procs[pid]:
                    continue
                try:
                    got = yield other
                except Boom as err:
                    got = err
            elif kind == "fail":
                try:
                    yield sim.event().fail(Boom("event"), delay=op[1])
                except Boom as err:
                    got = err
            elif kind == "done":
                try:
                    got = yield (sim.completed_event(step) if op[1] else
                                 sim.completed_event(Boom("done"), ok=False))
                except Boom:
                    got = "thrown"  # not sent: a sent Boom reads "Boom"
            elif kind == "reject":
                try:
                    yield op[1]
                except SimulationError as err:
                    got = err
            else:
                raise Boom(pid)
            trace.append((sim.now, pid, step, _seen(got),
                          sim.events_processed))
        return pid

    procs += [sim.process(body(pid, ops)) for pid, ops in enumerate(program)]
    return trace, procs


def _drive(kernel, program, runner, bounds, interval):
    sim = kernel()
    trace, procs = _load(sim, program)
    samples = []
    if runner == "run":
        sim.run()
    elif runner == "segments":
        for bound in bounds:
            sim.run(until=bound)
            samples.append((bound, sim.now, sim.events_processed, len(trace)))
        sim.run()
    else:
        due = [k * interval for k in range(1, 40)]

        def fire():
            samples.append((due.pop(0), sim.now, sim.events_processed,
                            len(trace)))

        pump_samples(sim, None, lambda: due[0] if due else None, fire)
    outcomes = [(p.triggered, p.ok, _seen(p.value)) if p.triggered else None
                for p in procs]
    return trace, samples, outcomes, sim.events_processed, sim.now


@given(PROGRAMS, BOUNDS, INTERVALS)
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_kernel_matches_the_reference_kernel(program, bounds, interval):
    for runner in ("run", "segments", "pump"):
        ran = _drive(Simulator, program, runner, bounds, interval)
        assert ran == _drive(RefSim, program, runner, bounds, interval)
        trace = ran[0]
        assert ("holders", 2) not in [got for _t, _p, _s, got, _n in trace]
