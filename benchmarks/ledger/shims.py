"""Benchmark-side shims: everything the ledger observes from outside.

Nothing under ``src/`` knows about these.  Each shim patches one public
method for a bounded time and restores it; none schedules events or
draws random numbers, so a shimmed run retires the same simulation.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from typing import Dict, List

from repro.simnet import Simulator
from repro.simnet.stats import Histogram

__all__ = ["RunClock", "capture_samples"]


class RunClock:
    """Times the event loop from outside, to split a row's host time.

    Host time before the first entry into ``Simulator.run`` /
    ``run_process`` is set-up, time inside is steady state, and the rest
    (phase glue, drains, checks) is verification.
    """

    def __init__(self):
        self._depth = 0
        self._entered_at = 0.0
        self.inside_s = 0.0  # process seconds spent inside the event loop
        self.first_entry = None  # process_time() of the first entry

    def reset(self) -> None:
        self.inside_s = 0.0
        self.first_entry = None

    def _wrap(self, method):
        clock = self

        def timed(sim, *args, **kwargs):
            if clock._depth == 0:
                clock._entered_at = time.process_time()
                if clock.first_entry is None:
                    clock.first_entry = clock._entered_at
            clock._depth += 1
            try:
                return method(sim, *args, **kwargs)
            finally:
                clock._depth -= 1
                if clock._depth == 0:
                    clock.inside_s += time.process_time() - clock._entered_at

        return timed

    @contextmanager
    def installed(self):
        originals = (Simulator.run, Simulator.run_process)
        Simulator.run = self._wrap(originals[0])
        Simulator.run_process = self._wrap(originals[1])
        try:
            yield self
        finally:
            Simulator.run, Simulator.run_process = originals


_LATENCY_NAMES = {
    "rpcc": re.compile(r"rpcc\d+/latency$"),
    "serving": re.compile(r"serving/latency$"),
}
_QUEUE_WAIT = re.compile(r"rpc\d+/queue_wait$")


@contextmanager
def capture_samples(latency_source: str, sink: Dict[str, List[float]]):
    """Keep the raw samples behind the latency and queue-wait histograms.

    ``Histogram.quantile`` returns a log2 bucket edge, so it moves only in
    2x steps; exact percentiles need the samples.  ``sink`` receives
    ``"latency"`` (histograms named by ``latency_source``) and
    ``"queue_wait"`` lists.
    """
    latency_name = _LATENCY_NAMES[latency_source]
    latency = sink.setdefault("latency", [])
    queue_wait = sink.setdefault("queue_wait", [])
    original = Histogram.observe

    def observe(hist, value):
        if latency_name.match(hist.name):
            latency.append(value)
        elif _QUEUE_WAIT.match(hist.name):
            queue_wait.append(value)
        original(hist, value)

    Histogram.observe = observe
    try:
        yield sink
    finally:
        Histogram.observe = original
