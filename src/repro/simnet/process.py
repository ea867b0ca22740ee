"""Coroutine processes for the simulation kernel.

A process wraps a Python generator.  The generator ``yield``-s
:class:`~repro.simnet.core.Event` objects; the process registers itself as a
callback and is resumed with the event's value (or the event's exception is
thrown into the generator).  Sub-generators compose with ``yield from``.

A :class:`Process` is itself an :class:`Event` that fires when the generator
returns, carrying the generator's return value — so processes can wait on
each other by yielding them.

The resume path is the single hottest code in the simulator (one resume per
retired event in process-driven workloads), so it is aggressively flattened:
``gen.send``/``gen.throw`` are cached as bound methods, and the per-event
``_resume`` inlines the wait/registration logic instead of delegating.  A
process is resumed only by the one event it waits on, so a resume needs no
guard.  A process keeps no bound method of itself (an overflow waiter
registers a fresh bound ``_resume``), so a finished one is freed by
reference counting instead of waiting for the cycle collector.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.simnet.core import _PROCESSED, Event, SimulationError, Simulator

__all__ = ["Process"]

#: the first resume's event: ``_ok`` with a ``None`` value, so resuming with
#: it is the generator's ``send(None)`` start
_START = Event(None)


class Process(Event):
    """A running coroutine inside the simulator."""

    __slots__ = ("_gen", "_send", "_throw", "name")

    _counter = 0

    def __init__(self, sim: Simulator, generator: Generator, name: Optional[str] = None):
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
        # Kick off at current sim time via a scheduled callback so that
        # process startup stays ordered with other scheduled work (one seq
        # slot, exactly like the kick-off Event it replaces — but with no
        # Event allocation).
        sim.schedule_callback(self._start)

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
        else:
            self._reject_yield(target)

    def _start(self) -> None:
        self._resume(_START)

    def _kick(self, target: Event) -> None:
        # Already-fired event: reschedule resume immediately to preserve
        # cooperative fairness (avoid deep recursion on hot loops).
        self.sim.schedule_callback(lambda: self._resume(target))

    def _reject_yield(self, target: Any) -> None:
        error = SimulationError(
            f"process {self.name!r} yielded {type(target).__name__}, "
            "expected an Event"
        )
        try:
            self._throw(error)
        except StopIteration as stop:
            self.succeed(stop.value)
        except BaseException as err:
            self.fail(err)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "running"
        return f"<Process {self.name} {state}>"
