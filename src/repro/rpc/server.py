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

Exactly-once (RIFL, Lee et al., SOSP 2015; ``docs/RELIABILITY.md``): every
request carries a token ``(client node, seq)`` from its client's sequence
for this server, and that sequence's watermark (its lowest unretired seq).
The server keeps one record per token (``None`` while it executes, then
its :class:`RpcResponse`) and drops a client's records below the watermark.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.fabric.node import Node
from repro.obs.registry import registry_of
from repro.obs.span import tracer_of
from repro.serialization.databox import estimate_size
from repro.simnet.core import Event

__all__ = ["RpcServer", "RpcContext", "RpcRequest", "RpcResponse"]


class RpcRequest:
    """In-flight request, carried as SEND payload through the fabric; its
    retransmits and fabric duplicates are this same object."""

    __slots__ = ("op", "args", "src_node", "token", "watermark", "callbacks",
                 "slot", "completion", "trace", "arrived_at")

    def __init__(self, op, args, src_node, token, watermark=0, callbacks=(),
                 trace=None):
        self.op = op
        self.args = args
        self.src_node = src_node
        #: idempotency token ``(client node, seq)``, and that client's
        #: watermark (0 when another node sends the token, as a replay does)
        self.token = token
        self.watermark = watermark
        #: ``(op, args)`` follow-on ops the server runs after ``op``
        self.callbacks = callbacks
        #: set by :meth:`RpcServer.allocate_slot`
        self.slot: Optional[int] = None
        self.completion: Optional[Event] = None
        #: root :class:`~repro.obs.span.Span` of the traced invocation, or
        #: ``None`` when tracing is off — this is how the op id rides the
        #: request so the server can hang its stage spans off the client's
        self.trace = trace
        #: sim time this request entered the target's receive queue (stamped
        #: by the server's admission hook); feeds the queue-wait histogram
        self.arrived_at: Optional[float] = None


class RpcResponse:
    """What the server deposits in a request's response slot (the response
    buffer of Fig 2) and the client pulls with one RDMA_READ; also the
    server's completion record of that request.

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
        #: the response buffer itself: held slot -> the request awaiting
        #: its answer there, then its RpcResponse until the caller releases
        #: it (and pulls it with one RDMA_READ first); released slots
        self._slots: Dict[int, Any] = self.response_region.objects
        self._free: List[int] = []
        #: client node -> {seq: None while executing, else its RpcResponse},
        #: and client node -> the highest watermark it has sent
        self._records: Dict[int, Dict[int, Optional[RpcResponse]]] = (
            defaultdict(dict))
        self._floors: Dict[int, int] = defaultdict(int)
        metrics = registry_of(self.sim)
        self.requests_served = metrics.counter(f"rpc{node.node_id}/served")
        self.batches = metrics.counter(f"rpc{node.node_id}/batches")
        self.exec_time = metrics.histogram(f"rpc{node.node_id}/exec")
        self.duplicates_suppressed = metrics.counter(
            f"rpc{node.node_id}/dups_suppressed")
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

    # -- slots and completion records ---------------------------------------------
    def allocate_slot(self, req: RpcRequest) -> Event:
        """Give ``req`` a response slot and return its completion event.

        The slot is held until the caller settles ``req``
        (:meth:`release_slot`): a held slot is never handed out, and only a
        server with every slot held refuses.
        """
        slots = self._slots
        if self._free:
            slot = self._free.pop()
        elif len(slots) < self.RESPONSE_SLOTS:
            slot = len(slots)  # nothing released: every lower slot is held
        else:
            raise RuntimeError(
                f"RPC server on node {self.node.node_id}: all "
                f"{self.RESPONSE_SLOTS} response slots are held"
            )
        req.slot = slot
        slots[slot] = req
        req.completion = completion = Event(self.sim)
        return completion

    def release_slot(self, req: RpcRequest, watermark: int) -> None:
        """The caller pulled ``req``'s response or gave up: free the slot,
        and retire the caller's records below its ``watermark``."""
        del self._slots[req.slot]
        self._free.append(req.slot)
        self._retire(req.src_node, watermark)

    def _answer(self, req: RpcRequest, response: RpcResponse) -> None:
        """Deposit ``response`` in ``req``'s slot and signal its completion,
        if ``req`` awaits it: nothing else writes into a slot."""
        slots = self._slots
        if slots.get(req.slot) is req:
            slots[req.slot] = response
            req.completion.succeed(response.completion_size)

    def _runs(self, req: RpcRequest) -> Optional[Dict]:
        """The record table of ``req``'s client if ``req`` may run; None,
        counted as a duplicate, if its client settled it (it is below the
        watermark) or its token has a record.

        A replay awaiting its answer in its own slot gets an executed
        record's response.  Under a shed record a same-token retry
        (awaiting in a slot of its own) runs; a copy of the shed SEND does
        not.
        """
        owner, seq = req.token
        records = self._records[owner]
        floor = self._retire(owner, req.watermark)
        record = None
        if seq >= floor:
            if seq not in records:
                return records
            record = records[seq]
            if (record is not None and record.shed is not None
                    and self._slots.get(req.slot) is req):
                return records
        self.duplicates_suppressed.add(1)
        if record is not None and record.shed is None:
            self._answer(req, record)
        return None

    def _retire(self, owner: int, watermark: int) -> int:
        """Raise ``owner``'s floor to ``watermark`` and drop its records
        below it; the floor."""
        floor = self._floors[owner]
        if watermark > floor:
            self._floors[owner] = floor = watermark
            records = self._records[owner]
            # Retire oldest first, each record once: amortised O(1).  A
            # record that arrived after a higher seq waits for that one.
            while records:
                oldest = next(iter(records))
                if oldest >= floor:
                    break
                del records[oldest]
        return floor

    def idle(self) -> bool:
        """No slot is held and no request is executing."""
        return not self._slots and all(
            None not in records.values() for records in self._records.values()
        )

    def close(self) -> None:
        """Drop the records, whose clients send no more requests to retire
        them, and end the worker loops.  An idle worker waits in a receive
        queue ``get`` that nothing will fire; the queue lives inside the
        cluster's reference cycles, so without this every worker's process
        and generator would wait for the cycle collector too."""
        self._records.clear()
        self._floors.clear()
        self.node.nic.recv_queue.close()

    # -- admission control ------------------------------------------------------
    def _admit(self, msg) -> bool:
        """Arrival stamping + bounded-receive-queue load shedding.

        Installed as ``nic.admission`` on every server.  Admitted RoR
        requests get their receive-queue arrival time stamped (the
        queue-wait histogram's start mark).  With ``queue_bound`` set,
        admit while fewer than ``queue_bound`` requests wait; once the queue
        is exactly full, shed: answer with a retriable shed response at
        once, without executing the handler, so a shed op has no side
        effects.  The shed response is the token's record, so a fabric
        duplicate of the shed SEND (which skips admission) never runs.
        """
        req = msg.payload
        if not isinstance(req, RpcRequest):
            return True  # only RoR requests are governed by the bound
        if (self.queue_bound is None
                or len(self.node.nic.recv_queue) < self.queue_bound):
            req.arrived_at = self.sim.now
            return True
        records = self._runs(req) if self._slots.get(req.slot) is req else None
        if records is None:
            return False  # answered, or its token is known: never shed it
        self.shed.add(1)
        self.shed_total.add(1)
        response = RpcResponse(
            None, (), "server overloaded", self.SHED_COMPLETION_BYTES,
            (len(self.node.nic.recv_queue), self.queue_bound),
        )
        records[req.token[1]] = response
        self._answer(req, response)
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
        records = self._runs(req)
        if records is None:
            return
        seq = req.token[1]
        records[seq] = None
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
        if seq in records:  # not retired while it ran (its client gave up)
            records[seq] = response
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
        self._answer(req, response)
