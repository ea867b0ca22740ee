"""The verbs API: queue pairs over the simulated fabric.

This is the narrow waist both libraries sit on:

* ``repro.bcl`` issues :meth:`QueuePair.cas`, :meth:`QueuePair.rdma_write`,
  :meth:`QueuePair.rdma_read` directly (client-side programming).
* ``repro.rpc`` issues one :meth:`QueuePair.send` per operation and one
  :meth:`QueuePair.rdma_read` to pull the response (Fig 2 of the paper).

All operations are generators to be driven inside a simulated process; each
returns the semantically-correct result (read payload, old CAS word, ...).
Each message, request or response, crosses in one generator frame
(:meth:`QueuePair._hop`), which also posts a request on the source NIC.

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
        cost = self.cost = cluster.spec.cost
        #: propagation + switch latency of an off-node crossing
        self.latency = 2 * cost.link_latency + cost.switch_latency

    # -- the traversal, written once ------------------------------------------
    def _hop(self, src, dst, msg: Message, post: bool = False):
        """Carry ``msg`` from node ``src`` to node ``dst`` in one frame.

        A ``post``-ed work request first rings the doorbell and holds a
        source NIC core for the verb's service time; a response or an ack
        going back skips both.  Off-node, the egress and then the ingress
        channel are claimed — one kernel event each, free or busy — and
        held for the serialization time only (through ``Switch.traverse``
        when the backplane is oversubscribed): that bounds throughput and
        makes incast contend at a hot destination.  Propagation and switch
        latency follow outside the hold, so back-to-back messages pipeline.
        """
        cost = self.cost
        if post:
            yield cost.nic_doorbell
            nic = src.nic
            yield nic.cores.claim()
            try:
                yield cost.nic_verb_service
            finally:
                nic.cores.release_slot()
            nic.verbs_processed.value += 1
        wire = cost.transfer_time(msg.wire_size)
        if src is dst:
            # NIC loopback: no switch traversal, but the transfer still
            # crosses the NIC's internal path at link-class bandwidth.
            yield from src.nic_loopback.use(wire)
            src.egress.account(msg)
            src.ingress.account(msg)
            return
        faults = self.cluster.faults
        if faults is not None:
            # May delay, schedule a duplicate, or raise FabricDropped.
            yield from faults.outbound(msg)
        switch = self.cluster.switch
        egress, ingress = src.egress, dst.ingress
        e_ch, i_ch = egress.channel, ingress.channel
        yield e_ch.claim()
        yield i_ch.claim()
        try:
            if switch.is_full_bisection:
                yield wire
                switch.transits.value += 1
            else:
                # Oversubscribed backplane: the serialization time is
                # spent holding one of the limited switch channels.
                yield from switch.traverse(wire)
            egress.account(msg)
            ingress.account(msg)
        finally:
            i_ch.release_slot()
            e_ch.release_slot()
        yield self.latency

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
        msg = Message(verb, self.src_node, dst_node.node_id, ATOMIC_WIRE_BYTES, None, name, offset)
        yield from self._hop(self.src, dst_node, msg, True)
        yield from dst_node.nic.serve_atomic(region)
        old = op(region, offset, *args)
        ack = Message(verb, dst, self.src_node, ATOMIC_WIRE_BYTES)
        yield from self._hop(dst_node, self.src, ack)
        return old

    # -- two-sided -----------------------------------------------------------
    def send(self, dst: int, payload: Any, size: int):
        """RDMA_SEND ``payload`` into the destination NIC's recv work queue.

        Returns after the message is enqueued remotely (reliable delivery);
        matching of sends to receivers is the upper layer's business.
        """
        dst_node = self.cluster.node(dst)
        msg = Message(Verb.SEND, self.src_node, dst_node.node_id, size, payload)
        yield from self._hop(self.src, dst_node, msg, True)
        # Admission control: a bounded-RPC-queue target may shed the message
        # here instead of accepting it (the hook deposits the rejection).
        if dst_node.nic.admit(msg):
            dst_node.nic.recv_queue.try_put(msg)
        return msg.msg_id

    # -- one-sided data -----------------------------------------------------------
    def rdma_write(self, dst: int, region: str, offset: int, payload: Any, size: int):
        """One-sided write of ``payload`` into ``region`` at ``offset``."""
        dst_node, target = self._region(dst, region, offset)
        msg = Message(Verb.WRITE, self.src_node, dst_node.node_id, size, payload, region, offset)
        yield from self._hop(self.src, dst_node, msg, True)
        yield from dst_node.nic.serve_verb()
        target.put_object(offset, payload)
        return True

    def rdma_read(self, dst: int, region: str, offset: int, size: int):
        """One-sided read; returns the payload stored at ``offset``."""
        dst_node, target = self._region(dst, region, offset)
        # Request goes out small; the data comes back at ``size``.
        msg = Message(Verb.READ, self.src_node, dst_node.node_id, ACK_WIRE_BYTES,
                      None, region, offset)
        yield from self._hop(self.src, dst_node, msg, True)
        yield from dst_node.nic.serve_verb()
        payload = target.get_object(offset)
        resp = Message(Verb.READ, dst, self.src_node, size, payload)
        yield from self._hop(dst_node, self.src, resp)
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
