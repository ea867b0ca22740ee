"""Reference-box seconds: host time divided by a fixed calibration loop.

On a small shared box the CPU time of identical code differs by up to
20 % between back-to-back processes, which would drown every host metric.
The slowdown hits a pure-Python loop of the same instruction mix nearly as
hard, so each row of each repetition is bracketed by :func:`calibrate` and
reported as

    ref_s = process_time(row) / mean(calib_before, calib_after) * CALIB_REF_S

The loop and :data:`CALIB_REF_S` are pinned: changing either redefines the
unit of every host metric in the ledger, so a change here needs a fresh
baseline.  The loop imports nothing from ``repro`` -- an optimisation of
the simulator must not be able to move its own yardstick.
"""

from __future__ import annotations

import gc
import heapq
import time

__all__ = ["CALIB_REF_S", "calibrate", "to_ref_seconds", "ref_seconds_of"]

#: process seconds one :func:`calibrate` call took on the reference box
CALIB_REF_S = 0.080

# Many short-lived "processes", so the heap, the generators and their
# events form a working set of a few MB, like a simulation's: a loop that
# fits the L1 cache does not slow down when a neighbour thrashes the shared
# cache, the workloads do, and the ratio drifts (across ten processes the
# coalesced k-mer row spread 6.0 % against a 64-process loop, 3.4 % against
# this one).
_PROCS = 4096
_STEPS = 22


class _Event:
    __slots__ = ("when", "owner", "hits")

    def __init__(self, when: float, owner: int):
        self.when = when
        self.owner = owner
        self.hits = 0


def _ticker(period: float, steps: int):
    now = 0.0
    for _ in range(steps):
        now += period
        yield now


def calibrate() -> float:
    """Run the pinned loop once; return the process seconds it took.

    The mix mirrors what the simulator's hot paths do: resume a
    generator, push and pop a heap of tuples, bump a dict counter and
    touch a slotted object per event.  The collector is off inside the
    loop: the loop makes no cycles, so a collection triggered by its
    allocations would only time whatever garbage the caller left behind
    (it read 115 ms instead of 78 ms after a coalesced k-mer row).
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _timed_loop()
    finally:
        if collecting:
            gc.enable()


def _timed_loop() -> float:
    start = time.process_time()
    procs = [_ticker(1e-6 * (1 + i % 7), _STEPS) for i in range(_PROCS)]
    heap = []
    counts = {}
    for owner, proc in enumerate(procs):
        heapq.heappush(heap, (next(proc), owner, _Event(0.0, owner)))
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        when, owner, event = pop(heap)
        event.when = when
        event.hits += 1
        counts[owner] = counts.get(owner, 0) + 1
        try:
            push(heap, (next(procs[owner]), owner, event))
        except StopIteration:
            pass
    if sum(counts.values()) != _PROCS * _STEPS:
        raise AssertionError("calibration loop lost events")
    return time.process_time() - start


def to_ref_seconds(host_s: float, calib_before: float,
                   calib_after: float) -> float:
    """Convert process seconds into reference-box seconds."""
    scale = 0.5 * (calib_before + calib_after)
    if scale <= 0:
        raise ValueError("calibration time must be positive")
    return host_s / scale * CALIB_REF_S


def ref_seconds_of(fn) -> float:
    """Reference-box seconds of one call of ``fn``, bracketed by the loop."""
    before = calibrate()
    started = time.process_time()
    fn()
    spent = time.process_time() - started
    return to_ref_seconds(spent, before, calibrate())
