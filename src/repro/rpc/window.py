"""AIMD outstanding-op windows for pipelined RPC issue.

Mercury-style extreme-scale RPC stacks hide latency by keeping a *bounded*
number of operations in flight per destination: enough to pipeline the
wire, few enough not to overrun the server's bounded receive queue.  This
module provides that bound as a self-tuning congestion window, TCP-style:

* **Additive increase** — every completion that arrives under the latency
  target (a Vegas-style multiple of the smallest latency this window has
  observed) grows the window by ``additive / cwnd``, i.e. roughly one op
  per window's worth of completions.
* **Multiplicative decrease** — a :class:`~repro.rpc.future.ServerOverloaded`
  shed, a transport failure, or a completion far above the latency target
  halves the window (never below ``FLOOR``).  Decreases are guarded by a
  recovery epoch: at most one halving per in-flight window of launches, so
  a burst of sheds from the same overload event does not collapse the
  window to the floor in one step.

The window bounds and adapts; it never re-issues.  A shed surfaces to the
caller as :class:`~repro.rpc.future.ServerOverloaded` at once, so the
caller's own policy (serving's ``shed_retries``) is the only shed retry.

Windows are keyed per ``(dst_node, stream)``; containers pass the target
partition index as the stream so each partition's pipeline adapts
independently (the per-(node, partition) window of the paper's aggregation
discussion).  Every window exports an ``rpc/cwnd/...`` gauge, and stalls
(ops queued because the window was full) count into ``rpc/window_stalls``.

All state derives from simulated quantities only — latencies, sheds, and
kernel timestamps — so window trajectories are bit-deterministic for a
given seed regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional, Tuple

from repro.obs.registry import registry_of

__all__ = ["AIMDWindow", "WindowSet"]

#: sentinel latency before any completion has been observed
_INF = float("inf")

#: initial window (ops in flight before any adaptation)
INITIAL = 4
#: hard lower bound — 1 guarantees progress (never deadlocks)
FLOOR = 1
#: hard upper bound on the window
CAP = 256
#: additive-increase numerator (ops per window of good completions)
ADDITIVE = 1.0
#: halve when a completion exceeds ``LATENCY_FACTOR * base_latency``
LATENCY_FACTOR = 4.0


class AIMDWindow:
    """One congestion window: bounded launches + AIMD adaptation."""

    __slots__ = (
        "sim", "cwnd", "outstanding", "base_latency",
        "_queue", "_launch_seq", "_recover_until",
        "gauge", "stalls", "sheds",
    )

    def __init__(self, sim, gauge, stalls, sheds):
        self.sim = sim
        self.cwnd = float(INITIAL)
        self.outstanding = 0
        self.base_latency = _INF
        #: deferred launch closures, FIFO
        self._queue: deque = deque()
        self._launch_seq = 0
        self._recover_until = 0
        self.gauge = gauge
        self.stalls = stalls
        self.sheds = sheds
        gauge.set(self.cwnd)

    # -- launch side ---------------------------------------------------------
    def submit(self, launch: Callable[[int], None]) -> None:
        """Run ``launch(seq)`` now if the window has room, else queue it."""
        if self.outstanding < int(self.cwnd):
            self._launch(launch)
        else:
            self.stalls.add(1)
            self._queue.append(launch)

    def _launch(self, launch) -> None:
        self.outstanding += 1
        self._launch_seq += 1
        launch(self._launch_seq)

    def _pump(self) -> None:
        while self._queue and self.outstanding < int(self.cwnd):
            self._launch(self._queue.popleft())

    # -- feedback side -------------------------------------------------------
    def completed(self, seq: int, latency: float) -> None:
        """A launch finished successfully after ``latency`` sim-seconds."""
        self.outstanding -= 1
        if latency < self.base_latency:
            self.base_latency = latency
        if (self.base_latency is _INF
                or latency <= LATENCY_FACTOR * self.base_latency):
            if self.cwnd < CAP:
                self.cwnd = min(CAP, self.cwnd + ADDITIVE / max(1.0, self.cwnd))
        else:
            self._decrease(seq)
        self.gauge.set(self.cwnd)
        self._pump()

    def shed(self, seq: int) -> None:
        """The launch was shed by admission control."""
        self.outstanding -= 1
        self.sheds.add(1)
        self._decrease(seq)
        self.gauge.set(self.cwnd)
        self._pump()

    def failed(self, seq: int) -> None:
        """The launch failed for a non-shed reason (timeout, crash, ...)."""
        self.outstanding -= 1
        self._decrease(seq)
        self.gauge.set(self.cwnd)
        self._pump()

    def _decrease(self, seq: int) -> None:
        # Recovery-epoch guard: halve at most once per in-flight window —
        # losses from launches issued before the previous decrease carry no
        # new information about the post-decrease rate.
        if seq <= self._recover_until:
            return
        self._recover_until = self._launch_seq
        self.cwnd = max(float(FLOOR), self.cwnd / 2.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<AIMDWindow cwnd={self.cwnd:.2f} out={self.outstanding} "
                f"queued={len(self._queue)}>")


class WindowSet:
    """Per-client collection of windows keyed by ``(dst_node, stream)``."""

    __slots__ = ("sim", "src_node", "_windows", "stalls", "sheds", "_metrics")

    def __init__(self, sim, src_node: int):
        self.sim = sim
        self.src_node = src_node
        self._windows: Dict[Tuple[int, Optional[int]], AIMDWindow] = {}
        metrics = registry_of(sim)
        self._metrics = metrics
        # Cluster-wide adaptive-state counters (shared across clients).
        self.stalls = metrics.counter("rpc/window_stalls")
        self.sheds = metrics.counter("rpc/window_sheds")

    def window(self, dst_node: int, stream: Optional[int]) -> AIMDWindow:
        key = (dst_node, stream)
        win = self._windows.get(key)
        if win is None:
            label = "-" if stream is None else str(stream)
            gauge = self._metrics.gauge(
                f"rpc/cwnd/n{self.src_node}-n{dst_node}s{label}"
            )
            win = AIMDWindow(self.sim, gauge, self.stalls, self.sheds)
            self._windows[key] = win
        return win

    def snapshot(self) -> Dict[str, float]:
        """Current window sizes, keyed like the gauges."""
        out = {}
        for (dst, stream), win in sorted(
                self._windows.items(),
                key=lambda kv: (kv[0][0], -1 if kv[0][1] is None else kv[0][1])):
            label = "-" if stream is None else str(stream)
            out[f"n{self.src_node}-n{dst}s{label}"] = win.cwnd
        return out
