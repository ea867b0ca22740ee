"""Futures for asynchronous RPC (Section III-C4).

"Each function invocation creates a future object (much like C++ future and
wait operations) ... providing synchronous and asynchronous models is a
matter of timing when the caller waits for the future object."

An :class:`RPCFuture` settles when the response has been pulled.  ``yield
fut.wait()`` blocks the calling process; ``fut.done`` polls; ``fut.result``
returns the value or re-raises the error.  The paper's callback chaining is
server-side — the ``callbacks=`` of ``RpcClient.invoke`` — so a future has
no client-side ``then``.

The kernel :class:`Event` backing ``wait()`` is materialized lazily: a
fire-and-forget pipelined op that nobody waits on never allocates an Event
or pushes a settle entry through the event queue.  Waiters and ``_event``
consumers see the exact semantics the eager event gave them — a pending
wait parks on a real pending Event that the settle path triggers through
the kernel, and a wait attached after settling gets a
``sim.completed_event`` (immediate resume, synchronous ``add_callback``).

The window layer and the per-op batch distribution hook the settle itself
through ``_on_settle``: those callbacks run synchronously at settle time
(or immediately on an already-settled future).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.fabric.node import NodeDownError
from repro.simnet.core import Event, Simulator

__all__ = ["RPCFuture", "RemoteError", "ServerOverloaded", "TargetUnavailable"]


class RemoteError(RuntimeError):
    """An exception raised inside a remote handler, re-raised at the caller."""

    def __init__(self, op: str, original: str):
        super().__init__(f"remote handler {op!r} failed: {original}")
        self.op = op
        self.original = original


class ServerOverloaded(RemoteError):
    """The target's bounded RPC receive queue was full; the op was shed.

    Admission control (``RpcServer(queue_bound=...)``) rejected the request
    at the receive queue, *before* execution, and no layer re-issues it
    under its token: a caller that retries sends a fresh op.  The op is
    never applied: the shed is recorded under the request's token, so a
    fault-plan duplicate of the shed SEND, which skips admission, is
    dropped (pinned by ``test_rpc_window.py::test_dup_of_shed_send_applies_once``).
    Deliberately NOT a :class:`~repro.fabric.node.NodeDownError`: the
    target is alive and answering, just saturated, so container failover
    must not kick in.
    """

    def __init__(self, op: str, dst_node: int, depth: int, bound: int):
        RuntimeError.__init__(
            self,
            f"rpc {op!r} shed by node {dst_node}: receive queue full "
            f"({depth}/{bound})"
        )
        self.op = op
        self.original = "server overloaded"
        self.dst_node = dst_node
        self.depth = depth
        self.bound = bound


class TargetUnavailable(NodeDownError):
    """The retry budget for an invocation is exhausted.

    Surfaced to callers after ``1 + RetryPolicy.max_retries`` attempts all
    failed (dropped on the wire, target crashed, or completion timed out).
    Subclasses :class:`~repro.fabric.node.NodeDownError` (a
    ``ConnectionError``) so container-level failover catches it.  ``token``
    is the idempotency token every attempt carried.  A container that may
    replay the write onto the restarted target pins that token itself and
    holds it until the replay settles, so a late execution of the original
    request and the replay dedup against each other.
    """

    def __init__(self, op: str, dst_node: int, attempts: int, phase: str,
                 token: Optional[Tuple[int, int]]):
        super().__init__(
            f"rpc {op!r} to node {dst_node}: target unavailable after "
            f"{attempts} attempts ({phase})"
        )
        self.op = op
        self.dst_node = dst_node
        self.attempts = attempts
        self.phase = phase
        self.token = token


class RPCFuture:
    """Handle to an in-flight invocation."""

    __slots__ = ("sim", "op", "issued_at", "completed_at",
                 "_value", "_ok", "_settled", "_callbacks", "_ev")

    def __init__(self, sim: Simulator, op: str):
        self.sim = sim
        self.op = op
        self.issued_at = sim.now
        self.completed_at: Optional[float] = None
        self._value: Any = None
        self._ok = True
        self._settled = False
        self._callbacks: Optional[list] = None
        self._ev: Optional[Event] = None

    # -- producer side ----------------------------------------------------------
    def _complete(self, value: Any) -> None:
        self._settle(value, True)

    def _error(self, exc: BaseException) -> None:
        self._settle(exc, False)

    def _settle(self, value: Any, ok: bool) -> None:
        if self._settled:
            raise RuntimeError(f"RPC future {self.op!r} already settled")
        self.completed_at = self.sim.now
        self._value = value
        self._ok = ok
        self._settled = True
        ev = self._ev
        if ev is not None:
            # Someone is waiting on the kernel event: route the settle
            # through the scheduler exactly as the eager design did.
            if ok:
                ev.succeed(value)
            else:
                ev.fail(value)
        cbs = self._callbacks
        if cbs:
            self._callbacks = None
            for cb in cbs:
                cb(self)

    def _on_settle(self, cb: Callable[["RPCFuture"], None]) -> None:
        """Run ``cb(self)`` when settled — immediately if already settled.

        Runs synchronously inside the producer's settle (no kernel event),
        so it observes the exact completion instant.  This is the hook the
        window layer and per-op batch distribution ride.
        """
        if self._settled:
            cb(self)
        elif self._callbacks is None:
            self._callbacks = [cb]
        else:
            self._callbacks.append(cb)

    # -- consumer side -------------------------------------------------------------
    @property
    def _event(self) -> Event:
        """The kernel event backing ``wait()``, materialized on demand."""
        ev = self._ev
        if ev is None:
            if self._settled:
                ev = self.sim.completed_event(self._value, ok=self._ok)
            else:
                ev = Event(self.sim)
            self._ev = ev
        return ev

    @property
    def done(self) -> bool:
        return self._settled

    @property
    def ok(self) -> bool:
        """Whether the settled future holds a value (vs an error)."""
        if not self._settled:
            raise RuntimeError(f"RPC {self.op!r} not complete; yield wait() first")
        return self._ok

    def wait(self) -> Event:
        """The event to ``yield`` on; its value is the RPC result."""
        return self._event

    @property
    def result(self) -> Any:
        if not self._settled:
            raise RuntimeError(f"RPC {self.op!r} not complete; yield wait() first")
        if not self._ok:
            raise self._value
        return self._value

    @property
    def latency(self) -> float:
        if self.completed_at is None:
            raise RuntimeError("future not complete")
        return self.completed_at - self.issued_at

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.done else "pending"
        return f"<RPCFuture {self.op} {state}>"
