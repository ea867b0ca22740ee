"""A reference event kernel: the simulator's semantics with no fast paths.

:mod:`repro.simnet.core` is built for throughput: one inlined drain loop
with per-class dispatch, a one-slot waiter per event, and processes that
sleep as their own heap entries.  :class:`RefSim` states the same rules
the obvious way, so a test can run one program on both and compare:

* a sorted list of ``(t, seq, entry)``, each entry a plain callable,
  popped from the front; every schedule draws the next ``seq``;
* a callbacks list per event, run in registration order when it retires;
* one generic resume, :meth:`RefProcess._resume`.

A process starts as an entry at its creation instant, sleeps on a
yielded ``float >= 0`` as one entry at ``now + d``, resumes on an
already-processed event through a zero-delay entry, and has any other
yield thrown back into it as :class:`SimulationError`.  ``RefSim`` has
``completed_event`` and the part of ``Simulator``'s API that
``Resource``, ``Store`` and ``pump_samples`` use, so those run on it
unchanged.
"""

from __future__ import annotations

import bisect

from repro.simnet.core import SimulationError

PENDING, TRIGGERED, PROCESSED = 0, 1, 2


class RefEvent:
    def __init__(self, sim):
        self.sim = sim
        self.callbacks = []
        self.state = PENDING
        self.ok = True
        self.value = None

    @property
    def triggered(self):
        return self.state >= TRIGGERED

    def _trigger(self, ok, value, delay):
        if self.state != PENDING:
            raise SimulationError("event already triggered")
        self.ok, self.value, self.state = ok, value, TRIGGERED
        self.sim._schedule(delay, self._retire)
        return self

    def succeed(self, value=None, delay=0.0):
        return self._trigger(True, value, delay)

    def fail(self, exc, delay=0.0):
        return self._trigger(False, exc, delay)

    def _retire(self):
        self.state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb):
        if self.state == PROCESSED:
            cb(self)
        else:
            self.callbacks.append(cb)


class RefProcess(RefEvent):
    def __init__(self, sim, gen):
        super().__init__(sim)
        self.gen = gen
        sim._schedule(0.0, lambda: self._resume(True, None))

    def _resume(self, ok, value):
        try:
            target = self.gen.send(value) if ok else self.gen.throw(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:
            self.fail(err)
            return
        if isinstance(target, RefEvent):
            if target.state == PROCESSED:
                self.sim._schedule(
                    0.0, lambda: self._resume(target.ok, target.value))
            else:
                target.callbacks.append(
                    lambda ev: self._resume(ev.ok, ev.value))
        elif isinstance(target, float) and target >= 0.0:
            self.sim._schedule(target, lambda: self._resume(True, None))
        else:
            self._resume(False, SimulationError(f"yielded {target!r}"))


class RefSim:
    def __init__(self):
        self.queue = []
        self.seq = 0
        self.now = 0.0
        self.events_processed = 0

    def _schedule(self, delay, entry):
        self.seq += 1
        bisect.insort(self.queue, (self.now + delay, self.seq, entry))

    def event(self):
        return RefEvent(self)

    def completed_event(self, value=None, ok=True):
        ev = RefEvent(self)
        ev.ok, ev.value, ev.state = ok, value, PROCESSED
        return ev

    def timeout(self, delay, value=None):
        return RefEvent(self).succeed(value, delay)

    def process(self, gen):
        return RefProcess(self, gen)

    def any_of(self, events):
        done = RefEvent(self)

        def on_child(i, ev):
            if done.state == PENDING:
                done._trigger(ev.ok, (i, ev.value) if ev.ok else ev.value, 0.0)

        for i, ev in enumerate(events):
            if done.state == PENDING:
                ev.add_callback(lambda ev, i=i: on_child(i, ev))
        return done

    def peek(self):
        return self.queue[0][0] if self.queue else float("inf")

    def _drain(self, until):
        while self.queue and self.queue[0][0] <= until:
            self.now, _seq, entry = self.queue.pop(0)
            self.events_processed += 1
            entry()

    def run(self, until=None):
        self._drain(float("inf") if until is None else until)
        if until is not None and self.now < until:
            self.now = until
