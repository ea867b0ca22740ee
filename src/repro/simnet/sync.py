"""Synchronization primitives built on the event kernel.

These model coordination *inside the simulation* — e.g. the per-memory-region
serialization of RDMA atomic operations (a :class:`SimLock`), or the bulk-
synchronous barriers that the BCL baseline needs and HCL avoids.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.simnet.core import Event, SimulationError, Simulator

__all__ = ["SimLock", "Barrier"]


class SimLock:
    """A mutex for simulated processes.  FIFO fairness.

    ::

        yield lock.acquire()
        try:
            ...
        finally:
            lock.release()
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._locked = False
        self._waiters: Deque[Event] = deque()
        self.contended_acquires = 0
        self.total_acquires = 0

    def acquire(self) -> Event:
        ev = self.sim.event()
        self.total_acquires += 1
        if not self._locked:
            self._locked = True
            ev.succeed(None)
        else:
            self.contended_acquires += 1
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Take the lock immediately if free; no event allocation."""
        if self._locked:
            return False
        self._locked = True
        self.total_acquires += 1
        return True

    def release(self) -> None:
        if not self._locked:
            raise SimulationError(f"release of unlocked SimLock {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed(None)
        else:
            self._locked = False

    @property
    def locked(self) -> bool:
        return self._locked


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
