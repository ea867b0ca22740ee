"""The verbs API: queue pairs over the simulated fabric.

This is the narrow waist both libraries sit on:

* ``repro.bcl`` issues :meth:`QueuePair.cas`, :meth:`QueuePair.rdma_write`,
  :meth:`QueuePair.rdma_read` directly (client-side programming).
* ``repro.rpc`` issues one :meth:`QueuePair.send` per operation and one
  :meth:`QueuePair.rdma_read` to pull the response (Fig 2 of the paper).

All operations are generators to be driven inside a simulated process; each
returns the semantically-correct result (read payload, old CAS word, ...).

Atomic-size messages (CAS/FAA) carry ~28 bytes on the wire.
"""

from __future__ import annotations

from typing import Any

from repro.fabric.link import transfer
from repro.fabric.packet import Message, Verb

__all__ = ["QueuePair", "ATOMIC_WIRE_BYTES", "ACK_WIRE_BYTES"]

ATOMIC_WIRE_BYTES = 28
ACK_WIRE_BYTES = 16


class QueuePair:
    """A (simulated) reliable-connected queue pair from one node to the fabric.

    A single QP object is reusable toward any destination node; connection
    setup cost is not modelled (it is identical for both libraries and
    amortized away in every experiment of the paper).
    """

    def __init__(self, cluster, src_node: int):
        self.cluster = cluster
        self.src_node = src_node
        self.sim = cluster.sim
        self.cost = cluster.spec.cost

    # -- internal helpers ------------------------------------------------------
    def _nodes(self, dst: int):
        return self.cluster.node(self.src_node), self.cluster.node(dst)

    def _wire(self, dst: int, msg: Message):
        """Move a message src -> dst, or charge loopback for intra-node."""
        src_node, dst_node = self._nodes(dst)
        if dst == self.src_node:
            # NIC loopback: no switch traversal, but the transfer still
            # crosses the NIC's internal path at link-class bandwidth.
            yield from src_node.nic_loopback.use(
                self.cost.transfer_time(msg.wire_size)
            )
            src_node.egress.account(msg)
            src_node.ingress.account(msg)
        else:
            faults = self.cluster.faults
            if faults is not None:
                # May delay, schedule a duplicate, or raise FabricDropped.
                yield from faults.outbound(msg)
            yield from transfer(src_node.egress, dst_node.ingress, msg,
                                switch=self.cluster.switch)

    def _doorbell(self):
        yield self.sim.timeout(self.cost.nic_doorbell)

    # -- two-sided -----------------------------------------------------------
    def send(self, dst: int, payload: Any, size: int):
        """RDMA_SEND ``payload`` into the destination NIC's recv work queue.

        Returns after the message is enqueued remotely (reliable delivery);
        matching of sends to receivers is the upper layer's business.
        """
        src_node, dst_node = self._nodes(dst)
        msg = Message(Verb.SEND, self.src_node, dst, size, payload=payload)
        yield from self._doorbell()
        yield from src_node.nic.serve_verb()
        yield from self._wire(dst, msg)
        # Admission control: a bounded-RPC-queue target may shed the message
        # here instead of accepting it (the hook deposits the rejection).
        if dst_node.nic.admit(msg):
            # Unbounded (or non-full) work queues accept the message without
            # a scheduler round-trip; only a *full* bounded queue blocks the QP.
            if not dst_node.nic.recv_queue.try_put(msg):
                yield dst_node.nic.recv_queue.put(msg)
        return msg.msg_id

    # -- one-sided data -----------------------------------------------------------
    def rdma_write(self, dst: int, region: str, offset: int, payload: Any, size: int):
        """One-sided write of ``payload`` into ``region`` at ``offset``."""
        src_node, dst_node = self._nodes(dst)
        target = dst_node.nic.region(region)
        if offset < 0 or offset >= target.size:
            raise IndexError(
                f"rdma_write offset {offset} outside region {region!r} "
                f"(size {target.size})"
            )
        msg = Message(Verb.WRITE, self.src_node, dst, size,
                      payload=payload, region=region, offset=offset)
        yield from self._doorbell()
        yield from src_node.nic.serve_verb()
        yield from self._wire(dst, msg)
        yield from dst_node.nic.serve_verb()
        target.put_object(offset, payload)
        return True

    def rdma_read(self, dst: int, region: str, offset: int, size: int):
        """One-sided read; returns the payload stored at ``offset``."""
        src_node, dst_node = self._nodes(dst)
        target = dst_node.nic.region(region)
        if offset < 0 or offset >= target.size:
            raise IndexError(
                f"rdma_read offset {offset} outside region {region!r} "
                f"(size {target.size})"
            )
        # Request goes out small; the data comes back at ``size``.
        req = Message(Verb.READ, self.src_node, dst, ACK_WIRE_BYTES,
                      region=region, offset=offset)
        yield from self._doorbell()
        yield from src_node.nic.serve_verb()
        yield from self._wire(dst, req)
        yield from dst_node.nic.serve_verb()
        payload = target.get_object(offset)
        resp = Message(Verb.READ, dst, self.src_node, size, payload=payload)
        yield from self._wire_back(dst, resp)
        return payload

    def _wire_back(self, dst: int, msg: Message):
        src_node, dst_node = self._nodes(dst)
        if dst == self.src_node:
            yield from src_node.nic_loopback.use(
                self.cost.transfer_time(msg.wire_size)
            )
            src_node.egress.account(msg)
            src_node.ingress.account(msg)
        else:
            faults = self.cluster.faults
            if faults is not None:
                yield from faults.outbound(msg)
            yield from transfer(dst_node.egress, src_node.ingress, msg,
                                switch=self.cluster.switch)

    # -- atomics -------------------------------------------------------------------
    def cas(self, dst: int, region: str, offset: int, expected: int, desired: int):
        """Remote compare-and-swap.  Returns the old word value.

        The atomic executes on the target NIC under the region's atomic
        lock — concurrent CASes to one region serialize, the effect the
        paper's motivating test (Fig 1) measures.
        """
        src_node, dst_node = self._nodes(dst)
        target = dst_node.nic.region(region)
        msg = Message(Verb.CAS, self.src_node, dst, ATOMIC_WIRE_BYTES,
                      region=region, offset=offset)
        yield from self._doorbell()
        yield from src_node.nic.serve_verb()
        yield from self._wire(dst, msg)
        yield from dst_node.nic.serve_atomic(target)
        old = target.compare_and_swap(offset, expected, desired)
        ack = Message(Verb.CAS, dst, self.src_node, ATOMIC_WIRE_BYTES)
        yield from self._wire_back(dst, ack)
        return old

    def fetch_add(self, dst: int, region: str, offset: int, delta: int):
        """Remote fetch-and-add.  Returns the pre-add value."""
        src_node, dst_node = self._nodes(dst)
        target = dst_node.nic.region(region)
        msg = Message(Verb.FETCH_ADD, self.src_node, dst, ATOMIC_WIRE_BYTES,
                      region=region, offset=offset)
        yield from self._doorbell()
        yield from src_node.nic.serve_verb()
        yield from self._wire(dst, msg)
        yield from dst_node.nic.serve_atomic(target)
        old = target.fetch_add(offset, delta)
        ack = Message(Verb.FETCH_ADD, dst, self.src_node, ATOMIC_WIRE_BYTES)
        yield from self._wire_back(dst, ack)
        return old
