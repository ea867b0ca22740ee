"""Discrete-event simulation kernel used by every substrate in this repo.

``repro.simnet`` is a small, fast, SimPy-flavoured discrete-event simulator:
coroutine *processes* (Python generators) yield :class:`~repro.simnet.core.Event`
objects to the :class:`~repro.simnet.core.Simulator`, which resumes them when
the event fires, or yield a ``float`` delay ``>= 0`` to sleep that many
sim-seconds (the sleeping process is its own queue entry, no Event); a
timeout is a plain, already-triggered Event.  On top of the kernel sit
counted resources (a mutex is a capacity-1 ``Resource``), stores, barriers,
tracing and utilization statistics.

The simulator models *time*; the data manipulated by the higher layers (HCL
containers, BCL baseline, applications) is real.
"""

from repro.simnet.core import (
    Event,
    AnyOf,
    Process,
    Simulator,
    SimulationError,
)
from repro.simnet.resources import Barrier, Resource, Store
from repro.simnet.trace import TimeSeries, EventLog
from repro.simnet.stats import Counter, Gauge, Histogram

__all__ = [
    "Event",
    "AnyOf",
    "Simulator",
    "SimulationError",
    "Process",
    "Resource",
    "Store",
    "Barrier",
    "TimeSeries",
    "EventLog",
    "Counter",
    "Gauge",
    "Histogram",
]
