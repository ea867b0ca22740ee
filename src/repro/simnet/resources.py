"""Counted resources, stores and barriers.

These model contention points and coordination in the simulated cluster:

* :class:`Resource` — ``capacity`` identical servers with a FIFO queue.  NIC
  cores, link channels, the switch backplane and the memory bus are
  Resources, and so is every mutex: a region's RDMA-atomic lock, a
  ``concurrency="mutex"`` partition lock, Fig 1's bucket line — each a
  ``Resource(sim, 1)``.
* :class:`Store` — an unbounded FIFO of Python objects with blocking
  ``get``.  The NIC receive work queue and completion queues are Stores.
* :class:`Barrier` — a reusable barrier for a fixed party count: the
  bulk-synchronous step the BCL baseline needs and HCL avoids.

Usage from a process — ``claim()`` returns ``0.0`` (a zero delay) when a
slot is free and a pending Event when the caller must queue, and either
is yielded the same way; a float yield sleeps that many sim-seconds::

    yield resource.claim()
    try:
        yield service_time
    finally:
        resource.release_slot()

or the one-liner ``yield from resource.use(service_time)``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Union

from repro.simnet.core import Event, SimulationError, Simulator

__all__ = ["Resource", "Store", "Barrier"]


class Resource:
    """``capacity`` interchangeable servers with FIFO admission."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._queue: Deque[Event] = deque()
        # Busy-time accounting for utilization meters, from creation on.
        self._busy_integral = 0.0
        self._last_change = sim.now

    # -- accounting -----------------------------------------------------------
    def _note_change(self) -> None:
        now = self.sim.now
        self._busy_integral += self.in_use * (now - self._last_change)
        self._last_change = now

    def busy_time(self) -> float:
        """Integral of in-use servers since creation (server-seconds)."""
        self._note_change()
        return self._busy_integral

    # -- the one acquire, the one release ---------------------------------------
    def claim(self) -> Union[float, Event]:
        """What to yield to hold a slot: ``0.0`` or a pending Event.

        A free slot is taken *now*, inline, and ``0.0`` is returned: the
        caller's own zero-delay wake is the grant.  A busy resource queues
        a plain event FIFO, which :meth:`release_slot` triggers when it
        hands a slot over.  Either way the grant is scheduled with the
        ``(time, seq)`` of the moment the slot changed hands — the one
        invariant every hop of the transport relies on: the claim costs
        exactly one kernel event, at the instant of the grant, whether or
        not the caller had to wait.  Yield the result at once: the free
        grant's ``seq`` is drawn at the yield.

        Pair every claim with one :meth:`release_slot` in a ``finally``
        *after* the yield.  A process queued on a claim can only be woken
        by its grant, so there is no cancellation path and no grant is
        ever stranded.
        """
        if self.in_use < self.capacity:
            now = self.sim.now  # _note_change, inlined (the transport's hot path)
            self._busy_integral += self.in_use * (now - self._last_change)
            self._last_change = now
            self.in_use += 1
            return 0.0
        ev = self.sim.event()
        self._queue.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Take a free slot with no event at all, or return False.

        For the one caller that fuses two grants into a single charge (the
        uncontended remote atomic, ``Nic.serve_atomic``, which takes a NIC
        core and the region's lock this way); everything else goes through
        :meth:`claim`.
        """
        if self.in_use < self.capacity:
            self._note_change()
            self.in_use += 1
            return True
        return False

    def release_slot(self) -> None:
        """Give a slot back: hand it to the oldest waiter, else free it.

        Raises :class:`SimulationError` if no slot is held: an unpaired
        release would otherwise drive ``in_use`` below zero and let two
        later claimers hold a capacity-1 resource at once.
        """
        now = self.sim.now
        self._busy_integral += self.in_use * (now - self._last_change)
        self._last_change = now
        if self._queue:
            # in_use unchanged: the slot changes hands without a dip.
            self._queue.popleft().succeed()
        elif self.in_use:
            self.in_use -= 1
        else:
            raise SimulationError(
                f"release of idle resource {self.name or id(self)!r}")

    def use(self, duration: float):
        """Generator helper: claim, hold for ``duration``, release."""
        yield self.claim()
        try:
            yield duration
        finally:
            self.release_slot()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Resource {self.name or id(self)} {self.in_use}/{self.capacity}"
            f" q={len(self._queue)}>"
        )


class Store:
    """Unbounded FIFO buffer of items with blocking ``get``."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def get(self) -> Event:
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_put(self, item: Any) -> None:
        """Hand ``item`` to the oldest waiting getter, else enqueue it.  Never fails — the
        store is unbounded; admission control lives above it
        (``RpcServer._admit``)."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking pop: returns ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def clear(self) -> int:
        """Discard every queued item; returns how many were dropped."""
        dropped = len(self._items)
        self._items.clear()
        return dropped

    def close(self) -> None:
        """Discard every queued item and waiting ``get``: a process parked
        in one is freed with its event (its generator closes as it goes)."""
        self._items.clear()
        self._getters.clear()

    def __len__(self) -> int:
        return len(self._items)


class Barrier:
    """Reusable barrier for a fixed party count.

    ``wait()`` returns an event that fires when all parties have arrived.
    The barrier resets automatically for the next round.
    """

    def __init__(self, sim: Simulator, parties: int, name: str = ""):
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self.sim = sim
        self.parties = parties
        self.name = name
        self._arrived: list[Event] = []
        self.generation = 0

    def wait(self) -> Event:
        ev = self.sim.event()
        self._arrived.append(ev)
        if len(self._arrived) == self.parties:
            batch, self._arrived = self._arrived, []
            self.generation += 1
            gen = self.generation
            for waiter in batch:
                waiter.succeed(gen)
        return ev
