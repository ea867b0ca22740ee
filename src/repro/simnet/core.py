"""Event kernel for the discrete-event simulator: queues, events, pooling.

The kernel keeps the classic event-list semantics — a total order over
``(time, priority, seq)`` entries, each carrying an :class:`Event` whose
callbacks run when the entry is popped — but the implementation is built
for throughput, because every figure in the reproduction is bounded by how
many simulated events the kernel can retire per wall-clock second:

* **One binary heap.**  Every scheduled entry is a ``(time, priority,
  seq, event)`` tuple in one ``heapq`` list; ``seq`` is unique, so ties
  never reach the event object and the retire order is the exact total
  order above.  Each push site is a single C call (a
  ``functools.partial`` of ``heapq.heappush`` bound to the list) and the
  drain loop pops with ``heappop``.  The tier-1 suite replays retire-order
  traces recorded from the original heap kernel and checks that random
  schedules retire in ``(time, priority, seq)`` order, in one ``run()``
  or in ``run(until=)`` segments.
* **An inlined waiter slot.**  The overwhelmingly common wait shape is one
  process blocked on one event.  That single waiter lives in the event's
  ``_wait`` slot instead of the callbacks list, and the drain loop resumes
  it in place — no callback-list append/iterate/clear and no ``_resume``
  frame per retired event.  Multiple waiters overflow to ``callbacks`` in
  registration order, so firing order is unchanged.
* **Event pooling.**  ``Timeout`` and plain ``Event`` objects are recycled
  through per-simulator free lists once processed, *iff* the kernel can
  prove nothing else references them (a CPython refcount check) — so hot
  loops stop paying an allocation per simulated charge while user-held
  events keep working like one-shot latches.
* **A callback fast path.**  :meth:`Simulator.schedule_callback` schedules
  a bare ``fn()`` at a future time with no Event allocation at all; the
  wrapper objects are kernel-owned and recycled unconditionally.

Time is a ``float`` in **seconds**.  All substrates (fabric, memory, rpc)
charge costs in seconds so that benchmark output is directly comparable
with the numbers reported in the paper.
"""

from __future__ import annotations

import heapq
import sys
from functools import partial
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. yielding a non-event)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    ``cause`` carries an arbitrary payload supplied by the interrupter.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event states
_PENDING = 0
_TRIGGERED = 1  # scheduled on the queue, value decided
_PROCESSED = 2  # callbacks have run

# Free-list bound: big enough that steady-state hot loops never miss, small
# enough that a burst of recycled events cannot pin unbounded memory.
_POOL_CAP = 4096

_INF = float("inf")

# Recycling needs to prove an event is unreachable from user code; CPython's
# refcount makes that exact and cheap.  On runtimes without refcounts the
# kernel simply never recycles (functionally identical, just slower).
_getrefcount = getattr(sys, "getrefcount", None)


class Event:
    """A one-shot occurrence in simulated time.

    Processes wait on events by ``yield``-ing them.  An event is *triggered*
    with either a value (:meth:`succeed`) or an exception (:meth:`fail`);
    once the simulator processes it, all registered callbacks run in
    registration order.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "_wait")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state = _PENDING
        # Fast-path waiter slot: the first Process to wait on this event
        # parks here instead of in ``callbacks`` (see module docstring).
        self._wait = None

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state >= _PROCESSED

    @property
    def ok(self) -> bool:
        """Whether the event carries a value (True) or an exception (False)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("value of a pending event is undefined")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event with ``value`` after ``delay`` sim-seconds."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        # Inlined Simulator._push — succeed() is on the hot path of stores,
        # locks, and resource grants.
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._heappush((sim.now + delay, 0, seq, self))
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception after ``delay`` sim-seconds."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exc
        self._ok = False
        self._state = _TRIGGERED
        self.sim._push(self, delay)
        return self

    # -- kernel hooks ---------------------------------------------------------
    def _process(self) -> None:
        self._state = _PROCESSED
        w = self._wait
        if w is not None:
            # The slot waiter registered before any callback, so it fires
            # first — identical to the list order it replaces.
            self._wait = None
            w._resume(self)
        if self.callbacks:
            callbacks, self.callbacks = self.callbacks, []
            for cb in callbacks:
                cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb`` to run when this event is processed.

        If the event has already been processed the callback runs
        immediately (same semantics as adding a done-callback to a finished
        future).
        """
        if self._state == _PROCESSED:
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {0: "pending", 1: "triggered", 2: "processed"}[self._state]
        return f"<{type(self).__name__} {state} at t={self.sim.now:.9f}>"


class Timeout(Event):
    """An event that fires after a fixed delay.  Created via ``sim.timeout``.

    Timeouts the kernel can prove unreferenced are recycled through
    ``Simulator._timeout_pool`` after processing — see ``Simulator.run``.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        sim._push(self, delay)

    def _process(self) -> None:
        # A timeout is born triggered, so add_callback() never appends once
        # we are _PROCESSED — iterating without swapping the list is safe
        # and lets a recycled timeout reuse its callbacks list allocation.
        self._state = _PROCESSED
        w = self._wait
        if w is not None:
            self._wait = None
            w._resume(self)
        callbacks = self.callbacks
        if callbacks:
            for cb in callbacks:
                cb(self)
            callbacks.clear()


class _ScheduledCallback:
    """Kernel-owned heap entry that runs ``fn()`` with no Event machinery.

    Never handed to user code, so instances are recycled unconditionally.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Optional[Callable[[], None]] = None):
        self.fn = fn

    def _process(self) -> None:
        self.fn()


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values.

    If any child fails, this fails with the first failure and *detaches*
    its callback from the still-pending children so long-running sims do
    not accumulate dead callbacks.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._children:
            if self._state != _PENDING:
                break  # settled early (an already-failed child); stop attaching
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self._state != _PENDING:
            return
        if not ev.ok:
            self.fail(ev.value)
            self._detach()
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])

    def _detach(self) -> None:
        cb = self._on_child
        for child in self._children:
            if child._state != _PROCESSED:
                try:
                    child.callbacks.remove(cb)
                except ValueError:
                    pass


class AnyOf(Event):
    """Fires when the first child event fires; value is ``(index, value)``.

    On settling (first success or failure) the losers' callbacks are
    detached, so waiting on a fast event plus a long watchdog timeout does
    not leak a callback per wait.
    """

    __slots__ = ("_children", "_cbs")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._children = list(events)
        if not self._children:
            raise ValueError("AnyOf requires at least one event")
        self._cbs: list[Callable[[Event], None]] = []
        for i, ev in enumerate(self._children):
            if self._state != _PENDING:
                break  # settled during attach (already-processed child)
            cb = (lambda e, i=i: self._on_child(i, e))
            self._cbs.append(cb)
            ev.add_callback(cb)

    def _on_child(self, index: int, ev: Event) -> None:
        if self._state != _PENDING:
            return
        if not ev.ok:
            self.fail(ev.value)
        else:
            self.succeed((index, ev.value))
        self._detach()

    def _detach(self) -> None:
        for child, cb in zip(self._children, self._cbs):
            if child._state != _PROCESSED:
                try:
                    child.callbacks.remove(cb)
                except ValueError:
                    pass


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.process(my_generator(sim))
        sim.run()

    ``run`` executes events until the queue is empty or ``until`` is
    reached.  Processed events are recycled whenever the platform can
    prove them unreferenced (``sys.getrefcount``); there is nothing to
    configure.
    """

    def __init__(self):
        # The event queue: a binary heap of (time, priority, seq, entry).
        self._queue: list[tuple[float, int, int, Any]] = []
        # Bound push: every scheduling site is one C call.
        self._heappush = partial(heapq.heappush, self._queue)
        self._seq = 0
        self.now: float = 0.0
        self._event_count = 0
        self._pooling = _getrefcount is not None
        self._timeout_pool: list[Timeout] = []
        self._event_pool: list[Event] = []
        self._cb_pool: list[_ScheduledCallback] = []
        self._recycled = 0

    # -- event creation helpers ----------------------------------------------
    def event(self) -> Event:
        pool = self._event_pool
        if pool:
            return pool.pop()
        return Event(self)

    def completed_event(self, value: Any = None, ok: bool = True) -> Event:
        """An event that is already processed, carrying ``value``.

        Yielding it resumes the process immediately (the kernel's
        already-fired kick path) and ``add_callback`` runs synchronously —
        without ever touching the event queue.  Lets consumers attach
        to results that settled in an earlier kernel iteration, or after
        the run has drained, with no extra queue traffic.
        """
        if not ok and not isinstance(value, BaseException):
            raise TypeError("completed_event(ok=False) requires an exception")
        ev = Event(self)
        ev._value = value
        ev._ok = ok
        ev._state = _PROCESSED
        return ev

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        pool = self._timeout_pool
        if pool:
            to = pool.pop()
            to._value = value
            to._state = _TRIGGERED
        else:
            to = Timeout.__new__(Timeout)
            to.sim = self
            to.callbacks = []
            to._value = value
            to._ok = True
            to._state = _TRIGGERED
            to._wait = None
        # Inlined _push (hot path).
        self._seq = seq = self._seq + 1
        self._heappush((self.now + delay, 0, seq, to))
        return to

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Timeout firing at *absolute* sim time ``when``.

        Exists so a closed-form charge can reproduce the exact
        floating-point timestamps of the sequential charges it replaces
        (``(now + a) + b`` is not ``now + (a + b)`` in floats): the caller
        does the additions in the original order and schedules the result
        directly.
        """
        if when < self.now:
            raise ValueError(f"timeout_at {when} is in the past (now={self.now})")
        pool = self._timeout_pool
        if pool:
            to = pool.pop()
            to._value = value
            to._state = _TRIGGERED
        else:
            to = Timeout.__new__(Timeout)
            to.sim = self
            to.callbacks = []
            to._value = value
            to._ok = True
            to._state = _TRIGGERED
            to._wait = None
        self._seq = seq = self._seq + 1
        self._heappush((when, 0, seq, to))
        return to

    def schedule_callback(self, fn: Callable[[], None], delay: float = 0.0,
                          priority: int = 0) -> None:
        """Run bare ``fn()`` after ``delay`` sim-seconds (fire-and-forget).

        Skips Event allocation entirely; counts as one processed event.
        Use for cost charges and kernel plumbing that nothing waits on.
        """
        if delay < 0:
            raise ValueError(f"negative callback delay: {delay}")
        pool = self._cb_pool
        if pool:
            entry = pool.pop()
            entry.fn = fn
        else:
            entry = _ScheduledCallback(fn)
        self._seq = seq = self._seq + 1
        self._heappush((self.now + delay, priority, seq, entry))

    def schedule_callback_at(self, fn: Callable[[], None], when: float,
                             priority: int = 0) -> None:
        """Run bare ``fn()`` at *absolute* sim time ``when``.

        The ``timeout_at`` of callbacks: schedules e.g. a resource release
        at exactly the floating-point timestamp a sequence of relative
        charges would have produced.
        """
        if when < self.now:
            raise ValueError(
                f"schedule_callback_at {when} is in the past (now={self.now})")
        pool = self._cb_pool
        if pool:
            entry = pool.pop()
            entry.fn = fn
        else:
            entry = _ScheduledCallback(fn)
        self._seq = seq = self._seq + 1
        self._heappush((when, priority, seq, entry))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def process(self, generator, name: Optional[str] = None) -> "Process":
        from repro.simnet.process import Process

        return Process(self, generator, name=name)

    # -- scheduling -----------------------------------------------------------
    def _push(self, event: Any, delay: float, priority: int = 0) -> None:
        """Schedule ``event`` (anything with ``_process``) after ``delay``."""
        self._seq = seq = self._seq + 1
        self._heappush((self.now + delay, priority, seq, event))

    # -- execution ------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event."""
        q = self._queue
        if not q:
            raise SimulationError("step() on an empty event queue")
        if q[0][0] < self.now:  # pragma: no cover - defensive
            raise SimulationError("time went backwards")
        t, _prio, _seq, event = heapq.heappop(q)
        self.now = t
        self._event_count += 1
        event._process()
        if self._pooling:
            self._recycle(event)

    def _recycle(self, event: Any) -> None:
        """Return ``event`` to its free list if provably unreferenced.

        Caller must hold exactly one reference (its local variable); the
        refcount of 3 seen here is that local + our parameter binding +
        getrefcount's argument.
        """
        cls = event.__class__
        if cls is _ScheduledCallback:
            event.fn = None
            if len(self._cb_pool) < _POOL_CAP:
                self._cb_pool.append(event)
        elif cls is Timeout:
            if (not event.callbacks and event._wait is None
                    and _getrefcount(event) == 3
                    and len(self._timeout_pool) < _POOL_CAP):
                event._state = _PENDING
                event._value = None
                event._ok = True
                self._timeout_pool.append(event)
                self._recycled += 1
        elif cls is Event:
            if (not event.callbacks and event._wait is None
                    and _getrefcount(event) == 3
                    and len(self._event_pool) < _POOL_CAP):
                event._state = _PENDING
                event._value = None
                event._ok = True
                self._event_pool.append(event)
                self._recycled += 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        q = self._queue
        return q[0][0] if q else _INF

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or sim-time passes ``until``."""
        if until is None:
            self._drain(_INF)
        else:
            self._drain(until)
            if self.now < until:
                self.now = until

    # The drain loop below is fully inlined, with per-class dispatch for
    # the dominant entry kinds: at paper scale it retires millions of
    # events, and every avoided frame counts.
    #
    # Timeout dispatch also inlines the single-waiter resume: the waiting
    # process parked in ``event._wait`` is stepped right here (generator
    # send + re-registration) instead of through Process._resume — saving a
    # callback-list append/iterate/clear and one frame per retired event.
    # Semantics are identical: the slot waiter is always the earliest
    # registrant, the ``_waiting_on is event`` tombstone guard still drops
    # interrupted waits, and a StopIteration/exception settles the process
    # exactly as Process._resume would.

    def _drain(self, until: float) -> None:
        """Retire events in ``(time, priority, seq)`` order up to ``until``."""
        q = self._queue
        heappop = heapq.heappop
        pooling = self._pooling
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        cb_pool = self._cb_pool
        getrefcount = _getrefcount
        timeout_cls = Timeout
        cb_cls = _ScheduledCallback
        event_cls = Event
        processed = _PROCESSED
        # Event-count is accumulated locally and flushed on exit (including
        # re-entrant runs: each loop flushes only the events it popped).
        count = 0
        try:
            # ``while True``, not ``while q``: CPython 3.11 counts only
            # unconditional back-edges toward a code object's warm-up, so a
            # conditional one leaves this loop unspecialized (~40 % slower)
            # until run() has been called eight times.
            while True:
                # Peek before popping: an entry past the bound stays queued.
                if not q or q[0][0] > until:
                    break
                t, _prio, _seq, event = heappop(q)
                self.now = t
                count += 1
                cls = event.__class__
                if cls is timeout_cls:
                    # Inlined Timeout._process.
                    event._state = processed
                    w = event._wait
                    if w is not None:
                        event._wait = None
                        if w._waiting_on is event:
                            w._waiting_on = None
                            try:
                                target = w._send(event._value)
                            except StopIteration as stop:
                                w.succeed(stop.value)
                            except BaseException as err:
                                w.fail(err)
                            else:
                                if isinstance(target, event_cls):
                                    if target._state != processed:
                                        w._waiting_on = target
                                        if (target._wait is None
                                                and not target.callbacks):
                                            target._wait = w
                                        else:
                                            target.callbacks.append(
                                                w._resume_cb)
                                    else:
                                        w._kick(target)
                                else:
                                    w._reject_yield(target)
                                # Drop our ref so the pooling refcount
                                # proof holds when `target` is popped.
                                target = None
                    callbacks = event.callbacks
                    if callbacks:
                        for cb in callbacks:
                            cb(event)
                        callbacks.clear()
                    # refcount 2 == our local + getrefcount's argument:
                    # nothing else can observe this event again.
                    if (pooling and not callbacks and event._wait is None
                            and getrefcount(event) == 2
                            and len(timeout_pool) < _POOL_CAP):
                        event._state = 0
                        event._value = None
                        event._ok = True
                        timeout_pool.append(event)
                        self._recycled += 1
                elif cls is cb_cls:
                    # Inlined _ScheduledCallback._process + recycle.
                    event.fn()
                    if pooling and len(cb_pool) < _POOL_CAP:
                        event.fn = None
                        cb_pool.append(event)
                else:
                    event._process()
                    if (pooling and cls is event_cls and not event.callbacks
                            and event._wait is None
                            and getrefcount(event) == 2
                            and len(event_pool) < _POOL_CAP):
                        event._state = 0
                        event._value = None
                        event._ok = True
                        event_pool.append(event)
                        self._recycled += 1
        finally:
            self._event_count += count

    def run_process(self, generator, name: Optional[str] = None) -> Any:
        """Convenience: spawn ``generator`` and run the sim to completion.

        Returns the process's return value; re-raises its exception.
        """
        proc = self.process(generator, name=name)
        self.run()
        if not proc.done:
            raise SimulationError(
                f"process {proc.name!r} did not finish (deadlock or starvation)"
            )
        return proc.result

    @property
    def events_processed(self) -> int:
        return self._event_count

    def kernel_stats(self) -> dict:
        """Observability snapshot of the kernel fast paths."""
        return {
            "events_processed": self._event_count,
            "events_recycled": self._recycled,
            "timeout_pool": len(self._timeout_pool),
            "event_pool": len(self._event_pool),
            "callback_pool": len(self._cb_pool),
            "queue_depth": len(self._queue),
            "pooling": self._pooling,
        }
