"""Span tracing across the RoR pipeline.

A traced RPC produces one **root span** (``rpc.<op>``) covering the
invocation's full simulated lifetime, plus child spans for each pipeline
stage.  The client-side stages are *contiguous* — each starts exactly
where the previous one ends — so their durations sum to the op's
end-to-end latency by construction:

    ``client.marshal`` -> ``client.send`` -> ``server.wait`` ->
    ``client.pull`` -> ``client.settle``

Under a fault plan ``client.send`` ends at the first send the fabric
delivered, ``server.wait`` also covers the retransmissions, timeouts and
backoff until the completion arrives, and ``client.pull`` the retried
reads.

Server-side detail spans (``server.queue``, the NIC work-queue wait, and
``server.execute``, the handler run) nest *inside* the ``server.wait``
interval; a coalesced flush additionally gets a ``coalesce.buffer``
parent covering first-append -> flush.  Exporters in
:mod:`repro.obs.exporters` turn the span list into a JSON-lines log or a
Chrome ``trace_event`` file loadable in Perfetto.

Tracing is **pure observation**: spans record ``sim.now`` at stage
boundaries and never schedule events, acquire resources, or consume RNG
draws — so a traced run retires the identical event sequence (and
therefore identical simulated results) as an untraced one, and an
untraced run pays only a ``None``-check per RPC.

The tracer's clock is pluggable (any zero-arg float callable);
:func:`install_tracer` binds it to the simulation clock.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

__all__ = ["Span", "Tracer", "STAGE_NAMES", "install_tracer", "tracer_of"]

#: attribute the tracer hangs off a Simulator when installed
_SIM_ATTR = "_obs_tracer"

#: the contiguous client-side stages that tile a root RPC span: the
#: client's own, and the interval it waits on the server
_CLIENT_STAGES = ("client.marshal", "client.send", "client.pull",
                  "client.settle")
_WAIT_STAGE = "server.wait"
STAGE_NAMES = frozenset(_CLIENT_STAGES + (_WAIT_STAGE,))


class Span:
    """One timed interval in a trace tree."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "node",
                 "start", "end", "attrs")

    def __init__(self, trace_id: int, span_id: int, parent_id: Optional[int],
                 name: str, node: Optional[int], start: float,
                 attrs: Optional[Dict] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def finished(self) -> bool:
        return self.end is not None

    def __repr__(self) -> str:  # pragma: no cover
        state = f"{self.duration:.3g}s" if self.finished else "open"
        return f"<Span {self.name} #{self.span_id} {state}>"


class Tracer:
    """Collects spans for one simulation (or one wall-clock harness).

    Span and trace ids are drawn from plain counters, so identical runs
    produce identical span logs — the determinism CI leg diffs them.
    """

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.spans: List[Span] = []
        self._next_span = 0
        self._next_trace = 0

    # -- creation -------------------------------------------------------------
    def begin(self, name: str, parent: Optional[Span] = None,
              node: Optional[int] = None,
              attrs: Optional[Dict] = None) -> Span:
        """Open a span starting now; finish it with :meth:`finish`.

        Without ``parent`` the span roots a new trace; with one it joins
        the parent's trace (this is how op ids thread through the RPC
        envelope: the request carries the root span, and every stage hangs
        off it).
        """
        self._next_span += 1
        if parent is None:
            self._next_trace += 1
            trace_id = self._next_trace
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(trace_id, self._next_span, parent_id, name, node,
                    self.clock(), attrs)
        self.spans.append(span)
        return span

    def finish(self, span: Span, end: Optional[float] = None) -> Span:
        if span.end is None:
            span.end = self.clock() if end is None else end
        return span

    def record(self, name: str, start: float, end: float,
               parent: Optional[Span] = None, node: Optional[int] = None,
               attrs: Optional[Dict] = None) -> Span:
        """Record an already-elapsed interval as a complete span.

        The RPC stage hooks use this: the stage boundary times are read
        off ``sim.now`` as the protocol runs, and the span is recorded in
        one shot when the stage closes.
        """
        self._next_span += 1
        if parent is None:
            self._next_trace += 1
            trace_id = self._next_trace
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(trace_id, self._next_span, parent_id, name, node,
                    start, attrs)
        span.end = end
        self.spans.append(span)
        return span

    # -- queries --------------------------------------------------------------
    def stage_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-stage totals across all finished spans: n / total / mean."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if not span.finished:
                continue
            row = out.setdefault(span.name, {"n": 0, "total": 0.0})
            row["n"] += 1
            row["total"] += span.duration
        for row in out.values():
            row["mean"] = row["total"] / row["n"] if row["n"] else 0.0
        return out

    def __len__(self) -> int:
        return len(self.spans)


def install_tracer(sim_or_cluster) -> Tracer:
    """Install (or return the already-installed) tracer for a simulation.

    Accepts a :class:`~repro.simnet.core.Simulator` or anything exposing
    ``.sim`` (Cluster, HCL).  The tracer's clock is the simulation clock.
    """
    sim = getattr(sim_or_cluster, "sim", sim_or_cluster)
    tracer = getattr(sim, _SIM_ATTR, None)
    if tracer is None:
        tracer = Tracer(clock=lambda: sim.now)
        setattr(sim, _SIM_ATTR, tracer)
    return tracer


def tracer_of(sim) -> Optional[Tracer]:
    """The simulation's tracer, or None when tracing is off (the default)."""
    return getattr(sim, _SIM_ATTR, None)
