"""Tracing and time-series sampling.

Figure 4 of the paper plots NIC-core utilization, memory utilization and
packet rate *over time* (Intel PAT on the real cluster).  The pieces of
that live here: :class:`TimeSeries` holds the samples, :func:`pump_samples`
is the run loop that takes them without perturbing the simulation (its one
driver is :class:`repro.obs.FlightRecorder`), and :class:`EventLog` records
discrete events with timestamps for post-hoc analysis and debugging.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.simnet.core import Simulator

__all__ = ["TimeSeries", "EventLog", "pump_samples"]


def pump_samples(sim: Simulator, until: Optional[float],
                 next_due: Callable[[], Optional[float]],
                 fire: Callable[[], None]) -> float:
    """Run ``sim`` like ``sim.run(until)``, firing samples at exact times.

    ``next_due()`` returns the sim time of the next pending sample (or
    ``None`` when there is none) and ``fire()`` takes it.  Each sample is
    one bounded drain up to its time, then the firing: a sample due at
    ``t`` sees every entry at ``t``, including those pushed at ``t``
    during that drain.  The contract is **zero perturbation**: the clock
    only advances by processing real events, or by jumping across an idle
    gap the unsampled run would cross anyway (a later real event exists,
    or ``until`` pads the clock past it).  In drain mode a sample with no
    real event pending is left for a later call (multi-phase workloads)
    or lapses when the workload ends — it never keeps the simulation
    alive.
    """
    while True:
        nxt = next_due()
        if nxt is None or (until is not None and nxt > until):
            break
        sim._drain(nxt)
        if sim.now < nxt:
            if until is None and sim.peek() == float("inf"):
                break  # drain mode, nothing pending: never advance an idle clock
            sim.now = nxt  # idle gap: jump to the sample point
        fire()
    sim.run(until=until)
    return sim.now


class TimeSeries:
    """Ring buffer of ``(time, value)`` samples with simple reductions.

    Only the most recent ``maxlen`` samples are retained (older points
    fall off the front, counted in ``dropped``), so a long-running sampler
    holds bounded memory no matter how many ticks it takes.
    """

    def __init__(self, name: str, maxlen: int):
        if maxlen <= 0:
            raise ValueError("maxlen must be positive")
        self.name = name
        self.maxlen = maxlen
        self.dropped = 0
        self.times: Deque[float] = deque(maxlen=maxlen)
        self.values: Deque[float] = deque(maxlen=maxlen)

    def record(self, t: float, v: float) -> None:
        if len(self.times) == self.maxlen:
            self.dropped += 1
        self.times.append(t)
        self.values.append(v)


class EventLog:
    """A bounded structured log of simulation events."""

    def __init__(self, sim: Simulator, limit: Optional[int] = None):
        self.sim = sim
        self.limit = limit
        self.entries: List[Tuple[float, str, Any]] = []
        self.dropped = 0

    def log(self, kind: str, payload: Any = None) -> None:
        if self.limit is not None and len(self.entries) >= self.limit:
            self.dropped += 1
            return
        self.entries.append((self.sim.now, kind, payload))
