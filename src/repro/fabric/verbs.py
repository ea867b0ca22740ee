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

from repro.fabric.nic import MemoryRegion
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
        self.src = cluster.node(src_node)
        self.sim = cluster.sim
        self.cost = cluster.spec.cost

    # -- the traversal, written once ------------------------------------------
    def _post(self, dst_node, verb: Verb, size: int, **fields):
        """Post one work request and carry it to ``dst_node``: build the
        message, ring the doorbell, occupy a source NIC core, cross the wire."""
        msg = Message(verb, self.src_node, dst_node.node_id, size, **fields)
        yield self.sim.timeout(self.cost.nic_doorbell)
        yield from self.src.nic.serve_verb()
        yield from self._wire(self.src, dst_node, msg)
        return msg

    def _wire(self, src, dst, msg: Message):
        """Move ``msg`` from node ``src`` to node ``dst`` (either direction).

        Off-node, the source egress and the destination ingress channels
        are held for the *serialization* (wire) time only — that is what
        bounds throughput and produces incast contention at a hot
        destination.  Propagation and switch latency are added afterwards,
        outside the hold, so back-to-back messages pipeline as on real
        links.  An oversubscribed switch additionally bounds how many
        transfers can stream through the backplane at once.

        The hops are claimed *in sequence* (egress, then ingress, then
        backplane), one kernel event apart — each
        :meth:`~repro.simnet.resources.Resource.claim` costs exactly one
        event whether the hop was free or busy, so contention windows do
        not depend on which branch a claim took.
        """
        cost = self.cost
        if src is dst:
            # NIC loopback: no switch traversal, but the transfer still
            # crosses the NIC's internal path at link-class bandwidth.
            yield from src.nic_loopback.use(cost.transfer_time(msg.wire_size))
            src.egress.account(msg)
            src.ingress.account(msg)
            return
        cluster = self.cluster
        faults = cluster.faults
        if faults is not None:
            # May delay, schedule a duplicate, or raise FabricDropped.
            yield from faults.outbound(msg)
        switch = cluster.switch
        egress = src.egress
        ingress = dst.ingress
        e_ch = egress.channel
        i_ch = ingress.channel
        yield e_ch.claim()
        try:
            yield i_ch.claim()
            try:
                wire = cost.transfer_time(msg.wire_size)
                if switch.is_full_bisection:
                    yield self.sim.timeout(wire)
                    switch.transits.add(1)
                else:
                    # Oversubscribed backplane: the serialization time is
                    # spent holding one of the limited switch channels.
                    yield from switch.traverse(wire)
                egress.account(msg)
                ingress.account(msg)
            finally:
                i_ch.release_slot()
        finally:
            e_ch.release_slot()
        yield self.sim.timeout(2 * cost.link_latency + cost.switch_latency)

    def _region(self, dst: int, name: str, offset: int):
        """The target node and its registered region, ``offset`` in bounds."""
        dst_node = self.cluster.node(dst)
        region = dst_node.nic.region(name)
        if offset < 0 or offset >= region.size:
            raise IndexError(
                f"offset {offset} outside region {name!r} (size {region.size})"
            )
        return dst_node, region

    def _atomic(self, verb: Verb, dst: int, name: str, offset: int, op, *args):
        """Remote atomic: request out, ``op(region, offset, *args)`` under
        the region's atomic lock on the target NIC, acknowledgement back."""
        dst_node, region = self._region(dst, name, offset)
        yield from self._post(dst_node, verb, ATOMIC_WIRE_BYTES,
                              region=name, offset=offset)
        yield from dst_node.nic.serve_atomic(region)
        old = op(region, offset, *args)
        ack = Message(verb, dst, self.src_node, ATOMIC_WIRE_BYTES)
        yield from self._wire(dst_node, self.src, ack)
        return old

    # -- two-sided -----------------------------------------------------------
    def send(self, dst: int, payload: Any, size: int):
        """RDMA_SEND ``payload`` into the destination NIC's recv work queue.

        Returns after the message is enqueued remotely (reliable delivery);
        matching of sends to receivers is the upper layer's business.
        """
        dst_node = self.cluster.node(dst)
        msg = yield from self._post(dst_node, Verb.SEND, size, payload=payload)
        # Admission control: a bounded-RPC-queue target may shed the message
        # here instead of accepting it (the hook deposits the rejection).
        if dst_node.nic.admit(msg):
            dst_node.nic.recv_queue.try_put(msg)
        return msg.msg_id

    # -- one-sided data -----------------------------------------------------------
    def rdma_write(self, dst: int, region: str, offset: int, payload: Any, size: int):
        """One-sided write of ``payload`` into ``region`` at ``offset``."""
        dst_node, target = self._region(dst, region, offset)
        yield from self._post(dst_node, Verb.WRITE, size,
                              payload=payload, region=region, offset=offset)
        yield from dst_node.nic.serve_verb()
        target.put_object(offset, payload)
        return True

    def rdma_read(self, dst: int, region: str, offset: int, size: int):
        """One-sided read; returns the payload stored at ``offset``."""
        dst_node, target = self._region(dst, region, offset)
        # Request goes out small; the data comes back at ``size``.
        yield from self._post(dst_node, Verb.READ, ACK_WIRE_BYTES,
                              region=region, offset=offset)
        yield from dst_node.nic.serve_verb()
        payload = target.get_object(offset)
        resp = Message(Verb.READ, dst, self.src_node, size, payload=payload)
        yield from self._wire(dst_node, self.src, resp)
        return payload

    # -- atomics -------------------------------------------------------------------
    def cas(self, dst: int, region: str, offset: int, expected: int, desired: int):
        """Remote compare-and-swap.  Returns the old word value.

        The atomic executes on the target NIC under the region's atomic
        lock — concurrent CASes to one region serialize, the effect the
        paper's motivating test (Fig 1) measures.
        """
        return self._atomic(Verb.CAS, dst, region, offset,
                            MemoryRegion.compare_and_swap, expected, desired)

    def fetch_add(self, dst: int, region: str, offset: int, delta: int):
        """Remote fetch-and-add.  Returns the pre-add value."""
        return self._atomic(Verb.FETCH_ADD, dst, region, offset,
                            MemoryRegion.fetch_add, delta)
