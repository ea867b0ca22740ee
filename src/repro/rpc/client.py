"""The client stub (Fig 2, left side).

``invoke()`` marshals the call into a DataBox-sized SEND, fires it at the
target node's request buffer, and returns an :class:`RPCFuture`
immediately — asynchronous by default, per Section III-C4.  A detached
protocol process completes the future:

1. RDMA_SEND of the request (size = marshalled arguments),
2. wait for the server's completion notification (the ``ibv_get_cq_event``
   of the paper),
3. RDMA_READ of the response buffer slot (client-pull),
4. decode the :class:`~repro.rpc.server.RpcResponse` found there and
   settle the future: its value (with the callback results, when the
   request chained any), or a fresh :class:`~repro.rpc.future.RemoteError`
   / :class:`~repro.rpc.future.ServerOverloaded` raised at this pull.

``call()`` is the synchronous convenience: ``result = yield from
client.call(...)``.

**Reliability contract.**  There is one protocol.  Each attempt runs the
steps above; a failed attempt (wire drop, crash, completion timeout) is
retransmitted after exponential backoff up to the bounded retry budget of
:class:`~repro.config.RetryPolicy` (``cost.retry``), after which the caller
sees :class:`~repro.rpc.future.TargetUnavailable`.  Only a
:class:`~repro.fabric.faults.FaultInjector` drops traffic or takes a node
down, so the completion timer is armed only while one is installed;
without one the first attempt always succeeds and runs no timer.

Every request carries an idempotency token ``(src_node, seq)`` and the
client's watermark, the lowest seq it has not retired, both per
destination: a retransmit is answered from the server's completion record,
and a call pending at one server holds back no record at another.  An
invocation retires the token it drew, then releases its response slot
with the advanced watermark, when it settles.

The hybrid data access model lives one layer up (``repro.core.container``):
a container only builds an RpcClient invocation for *remote* partitions.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.fabric.faults import FabricDropped
from repro.obs.registry import registry_of
from repro.obs.span import tracer_of
from repro.rpc.future import (
    RemoteError,
    RPCFuture,
    ServerOverloaded,
    TargetUnavailable,
)
from repro.rpc.server import RpcRequest, RpcServer
from repro.rpc.window import WindowSet
from repro.serialization.databox import estimate_size

__all__ = ["RpcClient"]

_REQUEST_HEADER_BYTES = 48  # op name, slot, caller id, token, watermark, framing


class RpcClient:
    """Issues RoR invocations from one source node."""

    __slots__ = (
        "cluster", "sim", "cost", "src_node", "servers", "qp",
        "invocations", "latency", "retries", "timeouts", "exhausted",
        "shed_seen", "_seqs", "_held", "_watermarks", "windows",
    )

    def __init__(self, cluster, src_node: int, servers: Dict[int, RpcServer],
                 window: bool = False):
        self.cluster = cluster
        self.sim = cluster.sim
        self.cost = cluster.spec.cost
        self.src_node = src_node
        self.servers = servers
        self.qp = cluster.qp(src_node)
        metrics = registry_of(self.sim)
        self.invocations = metrics.counter(f"rpcc{src_node}/invocations")
        self.latency = metrics.histogram(f"rpcc{src_node}/latency")
        # -- reliability observability --------------------------------------
        self.retries = metrics.counter(f"rpcc{src_node}/retries")
        self.timeouts = metrics.counter(f"rpcc{src_node}/timeouts")
        self.exhausted = metrics.counter(f"rpcc{src_node}/exhausted")
        self.shed_seen = metrics.counter(f"rpcc{src_node}/shed_seen")
        #: per destination: last seq drawn, seqs held, lowest held (or next)
        self._seqs: Dict[int, int] = {}
        self._held: Dict[int, set] = defaultdict(set)
        self._watermarks: Dict[int, int] = {}
        #: AIMD congestion windows (None = unbounded issue, classic behavior)
        self.windows = WindowSet(self.sim, src_node) if window else None

    def next_token(self, dst: int) -> Tuple[int, int]:
        """A fresh token for a request to ``dst``, held (the watermark there
        stays at or below it, so ``dst`` keeps its record) until retired."""
        self._seqs[dst] = seq = self._seqs.get(dst, 0) + 1
        self._held[dst].add(seq)
        return (self.src_node, seq)

    def retire(self, dst: int, token: Tuple[int, int]) -> None:
        """Release a token drawn for ``dst``: its watermark may pass it."""
        held = self._held[dst]
        held.discard(token[1])
        watermark, top = self._watermarks.get(dst, 1), self._seqs[dst]
        while watermark <= top and watermark not in held:
            watermark += 1
        self._watermarks[dst] = watermark

    # -- core API -----------------------------------------------------------
    def invoke(
        self,
        dst_node: int,
        op: str,
        args: Sequence[Any] = (),
        payload_size: Optional[int] = None,
        callbacks: Sequence[Tuple[str, Sequence[Any]]] = (),
        token: Optional[Tuple[int, int]] = None,
        trace_parent=None,
        stream: Optional[int] = None,
    ) -> RPCFuture:
        """Fire-and-return: asynchronous invocation of ``op`` on ``dst_node``.

        ``payload_size`` overrides the marshalled-size estimate — containers
        pass the DataBox wire size of the actual entry so that simulated
        transfer cost tracks operation size, without re-encoding values.

        ``token`` pins the idempotency token; callers that may re-issue the
        same logical mutation through a *different* invocation (container
        write replay after a crash) pass the original token so the server
        dedups across both.  A pinned token is not retired by the
        invocation: whoever drew it retires it.  Without one, the
        invocation draws its own and retires it when it settles.

        ``trace_parent`` (a :class:`~repro.obs.span.Span`) makes the traced
        invocation a child of an enclosing span (e.g. the coalescer's
        buffer span); ignored when tracing is off.

        ``stream`` selects the congestion window when the client was built
        with one (containers pass the target partition index, giving the
        per-(node, partition) window); ignored when windows are off.  The
        caller's future then settles with the outcome of one direct
        invocation, launched when the window has room; a shed halves the
        window and surfaces :class:`ServerOverloaded` at once, so the
        caller's own policy is the only shed retry.
        """
        if self.windows is None:
            return self._invoke_direct(
                dst_node, op, args, payload_size, callbacks, token,
                trace_parent, stream,
            )
        outer = RPCFuture(self.sim, op)
        win = self.windows.window(dst_node, stream)

        def launch(seq):
            inner = self._invoke_direct(
                dst_node, op, args, payload_size, callbacks, token,
                trace_parent, stream,
            )
            issued = self.sim.now

            def settled(f):
                if f._ok:
                    win.completed(seq, self.sim.now - issued)
                    outer._complete(f._value)
                    return
                if isinstance(f._value, ServerOverloaded):
                    win.shed(seq)
                else:
                    win.failed(seq)
                outer._error(f._value)

            inner._on_settle(settled)

        win.submit(launch)
        return outer

    def _invoke_direct(self, dst_node, op, args, payload_size, callbacks,
                       token, trace_parent, stream) -> RPCFuture:
        """One unwindowed attempt (the classic invoke body)."""
        server = self.servers.get(dst_node)
        if server is None:
            raise KeyError(f"no RPC server on node {dst_node}")
        fut = RPCFuture(self.sim, op)
        owned = token is None
        if owned:
            token = self.next_token(dst_node)
        src = self.src_node
        req = RpcRequest(
            op, tuple(args), src, token,
            self._watermarks.get(dst_node, 1) if token[0] == src else 0,
            tuple(callbacks) if callbacks else (),
        )
        server.allocate_slot(req)
        size = payload_size if payload_size is not None else sum(
            estimate_size(a) for a in args
        )
        size += _REQUEST_HEADER_BYTES
        tracer = tracer_of(self.sim)
        if tracer is not None:
            attrs = {"dst": dst_node, "bytes": size}
            if stream is not None:
                attrs["stream"] = stream
            req.trace = tracer.begin(
                f"rpc.{op}", parent=trace_parent, node=self.src_node,
                attrs=attrs,
            )
        self.invocations.value += 1
        self.sim.process(
            self._protocol(dst_node, server, req, size, fut, owned),
            name=f"rpc-{op}-{self.src_node}->{dst_node}",
        )
        return fut

    def call(
        self,
        dst_node: int,
        op: str,
        args: Sequence[Any] = (),
        payload_size: Optional[int] = None,
        callbacks: Sequence[Tuple[str, Sequence[Any]]] = (),
        token: Optional[Tuple[int, int]] = None,
        trace_parent=None,
        stream: Optional[int] = None,
    ):
        """Generator: synchronous invoke — yields until the result arrives.

        No local holds the future: an error thrown in here carries this
        frame on its traceback, and a future held by the frame would hold
        the error back, a cycle per failed call.
        """
        return (yield self.invoke(dst_node, op, args, payload_size, callbacks,
                                  token, trace_parent, stream).wait())

    # -- the wire protocol ---------------------------------------------------
    def _protocol(self, dst_node, server, req, size, fut, owned):
        # Tracing is pure observation: ``mark`` captures ``sim.now`` at each
        # stage boundary and the spans are recorded after the fact, so the
        # yielded event sequence is identical with tracing on or off.
        trace = req.trace
        tracer = tracer_of(self.sim) if trace is not None else None
        node = self.src_node
        completion = req.completion
        mark = fut.issued_at
        error = None
        try:
            # Client stub bookkeeping (marshalling handled as size charge).
            yield (
                self.cost.rpc_client_overhead + self.cost.serialize(size)
            )
            if tracer is not None:
                mark = tracer.record("client.marshal", mark, self.sim.now,
                                     parent=trace, node=node).end
            faults = self.cluster.faults
            retry = self.cost.retry
            # 1-6. RDMA_SEND, then the server's completion (its CQE carries
            # the response size), shared by every attempt: the first
            # delivered copy to execute signals it, later ones dedup.
            for attempt in range(retry.max_retries + 1):
                if attempt:
                    self.retries.add(1)
                    yield retry.backoff(attempt)
                    if completion.triggered:
                        response_size = completion.value
                        break
                try:
                    yield from self.qp.send(dst_node, req, size)
                except FabricDropped:
                    continue  # transport-level NACK: retransmit
                if tracer is not None and "sent" not in trace.attrs:
                    # The client resumes before the server worker does, so
                    # ``sent`` lands on the span ahead of execution.
                    trace.attrs["sent"] = self.sim.now
                    mark = tracer.record("client.send", mark, self.sim.now,
                                         parent=trace, node=node).end
                if faults is None:
                    response_size = yield completion
                    break
                if completion.triggered:
                    response_size = completion.value
                    break
                index, response_size = yield self.sim.any_of(
                    [completion, self.sim.timeout(retry.timeout)]
                )
                if index == 0:
                    break
                self.timeouts.add(1)
            else:
                self.exhausted.add(1)
                raise TargetUnavailable(req.op, dst_node, attempt + 1,
                                        "request", req.token)
            if tracer is not None:
                mark = tracer.record("server.wait", mark, self.sim.now,
                                     parent=trace, node=node).end
            # 7. client pull: RDMA_READ from the response buffer.
            for attempt in range(retry.max_retries + 1):
                if attempt:
                    self.retries.add(1)
                    yield retry.backoff(attempt)
                try:
                    response = yield from self.qp.rdma_read(
                        dst_node, RpcServer.RESPONSE_REGION, req.slot,
                        response_size,
                    )
                    break
                except FabricDropped:
                    pass  # retransmit
            else:
                self.exhausted.add(1)
                raise TargetUnavailable(req.op, dst_node, attempt + 1,
                                        "response", req.token)
            if tracer is not None:
                mark = tracer.record("client.pull", mark, self.sim.now,
                                     parent=trace, node=node).end
            if response.error is not None:
                if response.shed is not None:
                    # Admission control rejected the op before execution:
                    # retriable, and distinct from a handler failure.
                    self.shed_seen.add(1)
                    raise ServerOverloaded(req.op, dst_node, *response.shed)
                raise RemoteError(req.op, response.error)
        except BaseException as err:  # noqa: BLE001 - settle the future
            error = err
            if isinstance(err, (RemoteError, TargetUnavailable)):
                # Its traceback would hold this frame, and so the future
                # that holds the error: a cycle per failed call.
                err.__traceback__ = None
        # Settled: retire the drawn token, then free the slot and hand the
        # server the watermark, before the future's callbacks can issue the
        # next invocation.
        if owned:
            self.retire(dst_node, req.token)
        server.release_slot(req, self._watermarks.get(dst_node, 1))
        if error is not None:
            fut._error(error)
            if tracer is not None:
                trace.attrs["error"] = f"{type(error).__name__}: {error}"
                tracer.finish(trace, self.sim.now)
            return
        self.latency.observe(self.sim.now - fut.issued_at)
        if response.callbacks:
            fut._complete((response.value, response.callbacks))
        else:
            fut._complete(response.value)
        if tracer is not None:
            tracer.record("client.settle", mark, self.sim.now,
                          parent=trace, node=node)
            tracer.finish(trace, self.sim.now)
