"""The server stub running on the NIC cores (Fig 2, right side).

Users ``bind()`` functions into the invocation registry.  Worker loops —
one per NIC core slot — pull requests off the receive work queue, acquire a
NIC core, de-marshal, execute, and deposit the result in the response
buffer.  The host CPU resource is *never* touched, which is the RoR design
point: data-structure ops are "lightweight" enough for NIC cores.

Request aggregation (Section III-B): a worker that pops a request also
drains up to ``batch_size - 1`` additional queued requests and processes
them under a single dispatch charge, amortizing de-marshal overhead; this is
the "opportunity to aggregate multiple instructions before execution".

Handlers can be plain callables or generators; generators may yield
simulation events or delays (e.g. ``ctx.charge_local(...)``) to model
their local memory cost, and receive an :class:`RpcContext` first argument.
"""

from __future__ import annotations

import inspect
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional

from repro.fabric.node import Node
from repro.obs.registry import registry_of
from repro.obs.span import tracer_of
from repro.serialization.databox import estimate_size
from repro.simnet.core import Event

__all__ = ["RpcServer", "RpcContext", "RpcRequest", "RpcResponse"]

#: sentinel parked in the dedup table while a tokened request executes, so
#: a duplicate arriving mid-execution is suppressed instead of re-run
_IN_FLIGHT = object()

#: bound on remembered idempotency tokens (oldest evicted first)
_DEDUP_CAPACITY = 8192


class RpcRequest:
    """In-flight request, carried as SEND payload through the fabric."""

    __slots__ = ("op", "args", "src_node", "slot", "callbacks", "token",
                 "trace", "arrived_at")

    def __init__(self, op, args, src_node, slot, callbacks=(), token=None,
                 trace=None):
        self.op = op
        self.args = args
        self.src_node = src_node
        self.slot = slot
        #: ``(op, args)`` follow-on ops the server runs after ``op``
        self.callbacks = callbacks
        #: idempotency token ``(src_node, seq)`` — set by the client while
        #: a fault plan is installed (or pinned by a replaying caller);
        #: ``None`` otherwise
        self.token = token
        #: root :class:`~repro.obs.span.Span` of the traced invocation, or
        #: ``None`` when tracing is off — this is how the op id rides the
        #: request so the server can hang its stage spans off the client's
        self.trace = trace
        #: sim time this request entered the target's receive queue (stamped
        #: by the server's admission hook); feeds the queue-wait histogram
        self.arrived_at: Optional[float] = None


class RpcResponse:
    """What the server deposits in a request's response slot (the response
    buffer of Fig 2) and the client pulls with one RDMA_READ.

    ``error`` is ``None`` on success.  A request shed at admission carries
    the receive-queue ``(depth, bound)`` it met in ``shed``.
    ``completion_size`` is the CQE size the server signalled, which a
    deduplicated replay signals again.
    """

    __slots__ = ("value", "callbacks", "error", "shed", "completion_size")

    def __init__(self, value, callbacks, error, completion_size, shed=None):
        self.value = value
        self.callbacks = callbacks
        self.error = error
        self.completion_size = completion_size
        self.shed = shed


class RpcContext:
    """Execution context handed to handlers (the 'caller identifier' plus
    the target memory environment of Section III)."""

    __slots__ = ("server", "node", "sim", "cost", "src_node", "op")

    def __init__(self, server: "RpcServer", src_node: int, op: str):
        self.server = server
        self.node = server.node
        self.sim = server.node.sim
        self.cost = server.node.cost
        self.src_node = src_node
        self.op = op

    # -- cost-charging helper for generator handlers -------------------------
    def charge_local(self, ops: int = 1) -> float:
        """Delay of ``ops`` local memory operations (the L of Table I):
        a handler sleeps it with ``yield ctx.charge_local(n)``."""
        return ops * self.cost.local_op


class RpcServer:
    """Per-node RoR server: registry + NIC-core worker loops + response buffer."""

    RESPONSE_REGION = "__rpc_responses__"
    RESPONSE_SLOTS = 1 << 16

    #: CQE size signalled for a shed (rejected) request's response
    SHED_COMPLETION_BYTES = 128

    def __init__(self, node: Node, batch_size: int = 1, workers: Optional[int] = None,
                 queue_bound: Optional[int] = None):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if queue_bound is not None and queue_bound < 1:
            raise ValueError("queue_bound must be >= 1 (or None for unbounded)")
        self.node = node
        self.sim = node.sim
        self.cost = node.cost
        self.batch_size = batch_size
        self.registry: Dict[str, Callable] = {}
        self.response_region = node.register_region(
            self.RESPONSE_REGION, self.RESPONSE_SLOTS
        )
        self._completions: Dict[int, Any] = {}  # slot -> completion Event
        self._next_slot = 0
        metrics = registry_of(self.sim)
        self.requests_served = metrics.counter(f"rpc{node.node_id}/served")
        self.batches = metrics.counter(f"rpc{node.node_id}/batches")
        self.exec_time = metrics.histogram(f"rpc{node.node_id}/exec")
        self.duplicates_suppressed = metrics.counter(
            f"rpc{node.node_id}/dups_suppressed")
        #: token -> _IN_FLIGHT | its RpcResponse; insertion-ordered so
        #: eviction drops the oldest settled tokens first
        self._dedup: "OrderedDict[Any, Any]" = OrderedDict()
        # -- admission control (backpressure knob) ---------------------------
        #: max requests waiting in the NIC receive queue; ``None`` = unbounded
        self.queue_bound = queue_bound
        self.shed = metrics.counter(f"rpc{node.node_id}/shed")
        #: cluster-wide rollup all servers of one sim share
        self.shed_total = metrics.counter("serving/shed")
        #: time from receive-queue arrival to execution start — the
        #: congestion signal the client-side AIMD windows react to
        self.queue_wait = metrics.histogram(f"rpc{node.node_id}/queue_wait")
        # The admission hook is always installed: it stamps arrival times
        # for the queue-wait histogram, and additionally sheds at the
        # receive-queue bound when one is configured.
        node.nic.admission = self._admit
        n_workers = workers if workers is not None else 2 * self.cost.nic_cores
        for i in range(n_workers):
            self.sim.process(self._worker_loop(), name=f"rpc-worker-{node.node_id}-{i}")

    # -- registry ---------------------------------------------------------------
    def bind(self, name: str, fn: Callable) -> None:
        """Map ``name`` to ``fn`` in the RPC invocation registry."""
        if name in self.registry:
            raise KeyError(f"RPC op {name!r} already bound on node {self.node.node_id}")
        self.registry[name] = fn

    # -- slots / completions ------------------------------------------------------
    def allocate_slot(self):
        """Reserve a response slot; returns ``(slot, completion_event)``.

        Slots whose completion is still pending are skipped, so a wrapped
        counter never overwrites an older caller's completion; it is an
        error only when every slot is pending.  (A client that gives up —
        ``TargetUnavailable`` — never returns its slot, so long chaos runs
        carry a few leaked pending slots; skipping absorbs them.)
        """
        slots = self.RESPONSE_SLOTS
        pending = self._completions
        if len(pending) >= slots:
            raise RuntimeError(
                f"RPC server on node {self.node.node_id}: all {slots} "
                f"response slots have a pending invocation"
            )
        slot = self._next_slot
        while slot in pending:
            slot = (slot + 1) % slots
        self._next_slot = (slot + 1) % slots
        ev = pending[slot] = Event(self.sim)
        return slot, ev

    # -- admission control ------------------------------------------------------
    def _admit(self, msg) -> bool:
        """Arrival stamping + bounded-receive-queue load shedding.

        Installed as ``nic.admission`` on every server.  Admitted RoR
        requests get their receive-queue arrival time stamped (the
        queue-wait histogram's start mark).  With ``queue_bound`` set,
        admit while fewer than ``queue_bound`` requests wait; once the queue
        is exactly full, shed: deposit a retriable shed response in the
        request's response slot and signal its completion immediately —
        without executing the handler, so a shed op has no side effects.
        The dedup table is deliberately untouched: a retry carrying the
        same idempotency token is a fresh request, not a replay, and
        executes normally once the queue has room.
        """
        req = msg.payload
        if not isinstance(req, RpcRequest):
            return True  # only RoR requests are governed by the bound
        if (self.queue_bound is None
                or len(self.node.nic.recv_queue) < self.queue_bound):
            req.arrived_at = self.sim.now
            return True
        completion = self._completions.pop(req.slot, None)
        if completion is None:
            # A duplicated delivery of an already-settled invocation (fault
            # plans may clone packets): nothing to answer, just drop it.
            return False
        self.shed.add(1)
        self.shed_total.add(1)
        self.response_region.put_object(req.slot, RpcResponse(
            None, (), "server overloaded", self.SHED_COMPLETION_BYTES,
            (len(self.node.nic.recv_queue), self.queue_bound),
        ))
        completion.succeed(self.SHED_COMPLETION_BYTES)
        return False

    # -- the NIC-core worker ---------------------------------------------------------
    def _worker_loop(self):
        nic = self.node.nic
        recv = nic.recv_queue
        cores = nic.cores
        dispatch = self.cost.nic_rpc_dispatch
        while True:
            msg = yield recv.get()
            # Drain the whole request queue per wake-up: after each batch,
            # pull the next queued request directly off the work queue
            # instead of re-arming a ``get`` Event on it.  A zero delay
            # stands in for the triggered get — it schedules with the
            # identical ``(time, seq)``, so
            # worker/verb interleaving under contention (and every simulated
            # result) is unchanged; only the per-request Event allocation
            # and Store bookkeeping go away.
            while True:
                batch = [msg]
                # Request aggregation: opportunistically drain more requests.
                while len(batch) < self.batch_size:
                    ok, extra = recv.try_get()
                    if not ok:
                        break
                    batch.append(extra)
                yield cores.claim()
                try:
                    # One de-marshal/dispatch charge per batch (aggregation win).
                    yield dispatch
                    self.batches.value += 1
                    for m in batch:
                        yield from self._execute(m.payload)
                finally:
                    cores.release_slot()
                ok, msg = recv.try_get()
                if not ok:
                    break
                yield 0.0

    def _execute(self, req: RpcRequest):
        t0 = self.sim.now
        if req.arrived_at is not None:
            self.queue_wait.observe(t0 - req.arrived_at)
            req.arrived_at = None  # duplicates re-stamp on their own arrival
        if req.token is not None:
            cached = self._dedup.get(req.token)
            if cached is _IN_FLIGHT:
                # Duplicate while the original executes: the original will
                # deposit the response and signal the (shared) completion.
                self.duplicates_suppressed.add(1)
                return
            if cached is not None:
                # Retransmit after execution: re-deposit the recorded
                # response and re-signal, without re-running the handler —
                # this is what makes retried mutations exactly-once.
                self.response_region.put_object(req.slot, cached)
                self.duplicates_suppressed.add(1)
                completion = self._completions.pop(req.slot, None)
                if completion is not None:
                    completion.succeed(cached.completion_size)
                return
            self._dedup[req.token] = _IN_FLIGHT
        fn = self.registry.get(req.op)
        ctx = RpcContext(self, req.src_node, req.op)
        result: Any
        failed: Optional[str] = None
        if fn is None:
            failed = f"no such op {req.op!r} on node {self.node.node_id}"
            result = None
        else:
            try:
                result = fn(ctx, *req.args)
                if inspect.isgenerator(result):
                    result = yield from result
            except Exception as err:  # noqa: BLE001 - shipped to caller
                failed = f"{type(err).__name__}: {err}"
                result = None
        # Callback chaining: run follow-on ops server-side, in order.
        cb_results = [] if req.callbacks else ()
        if failed is None:
            for cb_op, cb_args in req.callbacks:
                cb_fn = self.registry.get(cb_op)
                if cb_fn is None:
                    failed = f"no such callback op {cb_op!r}"
                    break
                try:
                    cb_res = cb_fn(ctx, *cb_args)
                    if inspect.isgenerator(cb_res):
                        cb_res = yield from cb_res
                    cb_results.append(cb_res)
                except Exception as err:  # noqa: BLE001
                    failed = f"callback {cb_op}: {type(err).__name__}: {err}"
                    break
        completion_size = max(
            64, estimate_size(result) + 32 if failed is None else 128
        )
        response = RpcResponse(result, cb_results, failed, completion_size)
        # Deposit the response where the client's RDMA_READ will find it.
        self.response_region.put_object(req.slot, response)
        self.requests_served.value += 1
        self.exec_time.observe(self.sim.now - t0)
        if req.trace is not None:
            tracer = tracer_of(self.sim)
            if tracer is not None:
                node_id = self.node.node_id
                sent = req.trace.attrs.get("sent", t0)
                tracer.record("server.queue", sent, t0,
                              parent=req.trace, node=node_id)
                tracer.record("server.execute", t0, self.sim.now,
                              parent=req.trace, node=node_id)
        if req.token is not None:
            self._dedup[req.token] = response
            while len(self._dedup) > _DEDUP_CAPACITY:
                self._dedup.popitem(last=False)
        completion = self._completions.pop(req.slot, None)
        if completion is not None:
            completion.succeed(completion_size)
