"""Event kernel for the discrete-event simulator: one queue, one order.

The kernel keeps the classic event-list semantics — a total order over
``(time, seq)`` entries, each carrying an :class:`Event` whose callbacks
run when the entry is popped — and that order is its one invariant.  The
implementation is built for throughput, because every figure in the
reproduction is bounded by how many simulated events the kernel can
retire per wall-clock second:

* **One binary heap.**  Every scheduled entry is a ``(time, seq, event)``
  tuple in one ``heapq`` list; ``seq`` is unique, so ties never reach the
  event object and the retire order is the exact total order above.  Each
  push site is a single C call (a ``functools.partial`` of
  ``heapq.heappush`` bound to the list) and the drain loop pops with
  ``heappop``.  The tier-1 suite replays retire-order traces recorded from
  the original heap kernel and checks that random schedules retire in
  ``(time, seq)`` order, in one ``run()`` or in ``run(until=)`` segments.
* **An inlined waiter slot.**  The overwhelmingly common wait shape is one
  process blocked on one event.  That single waiter lives in the event's
  ``_wait`` slot instead of the callbacks list, and the drain loop resumes
  it in place — no callback-list append/iterate and no ``_resume`` frame
  per retired event.  Multiple waiters overflow to ``callbacks`` in
  registration order, so firing order is unchanged.  A timeout is a
  plain :class:`Event`, triggered when ``sim.timeout`` builds it.
* **A waking process is its own entry.**  A process that yields a
  ``float`` ``d >= 0`` sleeps for ``d`` sim-seconds: the kernel pushes
  ``(now + d, seq, process)`` — the key ``sim.timeout(d)`` would have
  taken — and resumes it with ``None`` when the entry pops: one retired
  event and no Event object.  A process starts the same way, as an entry
  at its creation instant, and so does a process that yields an
  already-processed event (a *kick*): the event waits in the process's
  ``_pending`` slot and the entry, at the current instant, resumes the
  process with its outcome.  Anything else that is not an Event (a
  negative or NaN delay, an ``int``, a ``bool``) is thrown back into the
  generator as :class:`SimulationError`, and whatever it yields next is
  handled like any other yield.
* **One drive loop, one wake block.**  :meth:`Simulator._drain` is the
  only code that pops an entry; ``run()``, ``run(until=)`` and the sample
  pump (:func:`repro.simnet.trace.pump_samples`) all ride it.  Every push
  draws one ``seq``, so ``events_processed`` is ``seq`` minus the queue
  depth, exact at any instant.  The yield rule above lives in exactly two
  places: ``_drain``'s one wake block, which steps the slot waiter of a
  plain Event entry and a waking Process entry alike (heap wakes), and
  :meth:`Process._resume` (callback wakes: overflow waiters, waiters on
  an ``AnyOf``/process, rejected yields).

Time is a ``float`` in **seconds**.  All substrates (fabric, memory, rpc)
charge costs in seconds so that benchmark output is directly comparable
with the numbers reported in the paper.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "AnyOf",
    "Process",
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. yielding a non-event)."""


# Event states
_PENDING = 0
_TRIGGERED = 1  # scheduled on the queue, value decided
_PROCESSED = 2  # callbacks have run

_INF = float("inf")


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
        sim._heappush((sim.now + delay, seq, self))
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


class AnyOf(Event):
    """Fires when the first child event fires; value is ``(index, value)``.

    On settling (first success or failure) the losers' callbacks are
    detached and the child and callback lists dropped, so waiting on a
    fast event plus a long watchdog timeout neither leaks a callback per
    wait nor leaves the AnyOf to the cycle collector.
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
        # Each callback names this AnyOf: dropping them once settled breaks
        # the cycle, so a settled AnyOf is freed by reference counting.
        self._children = self._cbs = ()


class Process(Event):
    """A running coroutine inside the simulator.

    A process wraps a Python generator.  The generator ``yield``-s an
    :class:`Event` to wait for it — the process is resumed with the
    event's value, or the event's exception is thrown into the generator —
    or a ``float`` number of sim-seconds ``>= 0`` to sleep (see the module
    docstring).  Sub-generators compose with ``yield from``.  A process is
    itself an :class:`Event` that fires when the generator returns,
    carrying its return value, so processes can wait on each other.

    The resume path is the single hottest code in the simulator (one
    resume per retired event in process-driven workloads), so it is
    flattened: ``gen.send``/``gen.throw`` are cached as bound methods, and
    ``_resume`` inlines the wait/registration logic instead of delegating.
    A process is resumed only by the one event it waits on, or by its own
    entry (a start, a sleep or a kick), so a resume needs no guard.  A
    process keeps no bound method of itself (an overflow waiter registers
    a fresh bound ``_resume``), so a finished one is freed by reference
    counting instead of waiting for the cycle collector.
    """

    __slots__ = ("_gen", "_send", "_throw", "name", "_pending")

    _counter = 0

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: Optional[str] = None):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        super().__init__(sim)
        Process._counter += 1
        self._gen = generator
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or f"proc-{Process._counter}"
        self._pending: Optional[Event] = None  # a kick's event, until it wakes
        # Start at the current instant as the process's own entry: its
        # first wake is the generator's first step.
        sim._push(self, 0.0)

    # -- lifecycle -------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.triggered

    @property
    def result(self) -> Any:
        """Return value of the generator; raises its exception if it failed."""
        if not self.triggered:
            raise SimulationError(f"process {self.name!r} still running")
        if not self.ok:
            raise self.value
        return self.value

    # -- kernel plumbing ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                target = self._throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:
            self.fail(err)
            return

        if isinstance(target, Event):
            if target._state != _PROCESSED:
                # First waiter rides the event's fast slot; later waiters
                # overflow to the callbacks list (registration order kept).
                if target._wait is None and not target.callbacks:
                    target._wait = self
                else:
                    target.callbacks.append(self._resume)
            else:
                self._kick(target)
        elif isinstance(target, float) and target >= 0.0:
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            sim._heappush((sim.now + target, seq, self))
        else:
            self._reject_yield(target)

    def _kick(self, target: Event) -> None:
        # Already-processed event: wake as the process's own entry at the
        # current instant, ``target`` parked in ``_pending`` — cooperative
        # fairness, and no recursion on hot loops.
        self._pending = target
        self.sim._push(self, 0.0)

    def _reject_yield(self, target: Any) -> None:
        # Resume with a failed, already-processed event: the error is
        # thrown in and the next yield takes the path of any other.
        error = SimulationError(
            f"process {self.name!r} yielded {type(target).__name__} "
            f"{target!r:.40}, expected an Event or a delay (a float >= 0)"
        )
        self._resume(self.sim.completed_event(error, ok=False))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "running"
        return f"<Process {self.name} {state}>"


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.process(my_generator(sim))
        sim.run()

    ``run`` executes events until the queue is empty or ``until`` is
    reached.  There is nothing to configure.
    """

    def __init__(self):
        # The event queue: a binary heap of (time, seq, entry).
        self._queue: list[tuple[float, int, Any]] = []
        # Bound push: every scheduling site is one C call.
        self._heappush = partial(heapq.heappush, self._queue)
        self._seq = 0  # one per push; only _drain pops (events_processed)
        self.now: float = 0.0

    # -- event creation helpers ----------------------------------------------
    def event(self) -> Event:
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

    def timeout(self, delay: float, value: Any = None) -> Event:
        """A plain Event, triggered with ``value``, firing after ``delay``."""
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ and _push (hot path).
        to = Event.__new__(Event)
        to.sim = self
        to.callbacks = []
        to._value = value
        to._ok = True
        to._state = _TRIGGERED
        to._wait = None
        self._seq = seq = self._seq + 1
        self._heappush((self.now + delay, seq, to))
        return to

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """A timeout firing at *absolute* sim time ``when``.

        Exists so a closed-form charge can reproduce the exact
        floating-point timestamps of the sequential charges it replaces
        (``(now + a) + b`` is not ``now + (a + b)`` in floats): the caller
        does the additions in the original order and schedules the result
        directly.
        """
        if when < self.now:
            raise ValueError(f"timeout_at {when} is in the past (now={self.now})")
        to = Event(self)
        to._value = value
        to._state = _TRIGGERED
        self._seq = seq = self._seq + 1
        self._heappush((when, seq, to))
        return to

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def process(self, generator, name: Optional[str] = None) -> Process:
        return Process(self, generator, name=name)

    # -- scheduling -----------------------------------------------------------
    def _push(self, event: Any, delay: float) -> None:
        """Schedule ``event`` (an Event or a waking Process) after ``delay``."""
        self._seq = seq = self._seq + 1
        self._heappush((self.now + delay, seq, event))

    # -- execution ------------------------------------------------------------
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

    # The drain loop below, the only code that pops an entry, is fully
    # inlined with per-class dispatch for the dominant entry kinds: at paper
    # scale it retires millions of events, and every avoided frame counts.
    #
    # Two entry kinds wake a process, and both end in the one wake block at
    # the bottom of the loop: a plain Event (a timeout, a grant, a store
    # item) whose ``_wait`` slot holds a process, which is sent the event's
    # value or thrown its error, and a pending Process entry — a start, a
    # sleep (sent ``None``) or a kick (sent its ``_pending`` event's
    # outcome).  The block steps the generator and applies the yield rule,
    # as Process._resume does for callback wakes: the slot waiter is always
    # the earliest registrant, so it steps before the overflow callbacks,
    # and a StopIteration/exception settles the process the same way.  A
    # finished Process retires its completion through Event._process.

    def _drain(self, until: float) -> None:
        """Retire events in ``(time, seq)`` order up to ``until``."""
        q = self._queue
        heappop = heapq.heappop
        heappush = self._heappush
        event_cls = Event
        process_cls = Process
        event_process = Event._process
        processed = _PROCESSED
        float_cls = float
        # ``while True``, not ``while q``: CPython 3.11 counts only
        # unconditional back-edges toward a code object's warm-up, so a
        # conditional one leaves this loop unspecialized (~40 % slower)
        # until run() has been called eight times.
        while True:
            # Peek before popping: an entry past the bound stays queued.
            if not q or q[0][0] > until:
                break
            t, _seq, entry = heappop(q)
            self.now = t
            cls = entry.__class__
            if cls is event_cls:
                # Inlined Event._process; the slot waiter steps below.
                entry._state = processed
                callbacks = entry.callbacks
                w = entry._wait
                if w is None:
                    if callbacks:
                        for cb in callbacks:
                            cb(entry)
                        callbacks.clear()
                    continue
                entry._wait = None
                ok = entry._ok
                value = entry._value
            elif cls is process_cls:
                if entry._state:
                    event_process(entry)
                    continue
                w = entry
                callbacks = None
                kicked = entry._pending
                if kicked is None:
                    ok = True
                    value = None
                else:
                    entry._pending = None
                    ok = kicked._ok
                    value = kicked._value
            else:
                entry._process()
                continue
            # The wake block: step ``w`` and apply the yield rule.
            try:
                if ok:
                    target = w._send(value)
                else:
                    target = w._throw(value)
            except StopIteration as stop:
                w.succeed(stop.value)
            except BaseException as err:
                w.fail(err)
            else:
                if isinstance(target, event_cls):
                    if target._state != processed:
                        if target._wait is None and not target.callbacks:
                            target._wait = w
                        else:
                            target.callbacks.append(w._resume)
                    else:
                        w._kick(target)
                elif isinstance(target, float_cls) and target >= 0.0:
                    self._seq = seq = self._seq + 1
                    heappush((t + target, seq, w))
                else:
                    w._reject_yield(target)
            if callbacks:
                for cb in callbacks:
                    cb(entry)
                callbacks.clear()

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
        """Entries retired so far, exact at any instant (mid-run too):
        every push draws one ``seq`` and only :meth:`_drain` pops."""
        return self._seq - len(self._queue)

    def kernel_stats(self) -> dict:
        """Observability snapshot: events retired and entries queued."""
        return {
            "events_processed": self.events_processed,
            "queue_depth": len(self._queue),
        }
