"""Simulated RDMA NIC: cores, work queues, registered memory regions.

The NIC is where the paper's two designs differ:

* **BCL** drives every data-structure mutation with one-sided verbs; remote
  atomics (CAS) execute on the *target* NIC and serialize per memory region
  (``MemoryRegion.atomic_lock``, a capacity-1 ``Resource``), which is
  limitation (c)/(d) in Section I.
* **HCL** posts a single SEND carrying an RPC DataBox; the request lands in
  the NIC's receive work queue (``recv_queue``) and is executed by one of the
  ``nic_cores`` NIC cores (Fig 2) without involving the host CPU.

Memory regions store *real* Python payloads (``objects``) plus an 8-byte
word table (``words``) that remote CAS operates on, so the BCL baseline is
functionally correct, not just timed.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.config import CostModel
from repro.obs.registry import registry_of
from repro.simnet.core import Simulator
from repro.simnet.resources import Resource, Store

__all__ = ["MemoryRegion", "Nic"]


class MemoryRegion:
    """A registered, remotely-accessible slab of node memory.

    ``objects`` maps offset -> arbitrary payload (the data plane);
    ``words`` maps offset -> int (the 8-byte atomics plane used by CAS).
    """

    def __init__(self, sim: Simulator, name: str, size: int):
        if size <= 0:
            raise ValueError("region size must be positive")
        self.sim = sim
        self.name = name
        self.size = size
        self.objects: Dict[int, Any] = {}
        self.words: Dict[int, int] = {}
        # Remote atomics to the same region serialize here (paper Sec. I(c)).
        self.atomic_lock = Resource(sim, 1, name=f"{name}/atomics")
        metrics = registry_of(sim)
        self.cas_attempts = metrics.counter(f"{name}/cas_attempts")
        self.cas_failures = metrics.counter(f"{name}/cas_failures")

    def read_word(self, offset: int) -> int:
        return self.words.get(offset, 0)

    def compare_and_swap(self, offset: int, expected: int, desired: int) -> int:
        """Atomically CAS the word at ``offset``; returns the *old* value."""
        self.cas_attempts.add(1)
        old = self.words.get(offset, 0)
        if old == expected:
            self.words[offset] = int(desired)
        else:
            self.cas_failures.add(1)
        return old

    def fetch_add(self, offset: int, delta: int) -> int:
        old = self.words.get(offset, 0)
        self.words[offset] = old + int(delta)
        return old

    def put_object(self, offset: int, payload: Any) -> None:
        self.objects[offset] = payload

    def get_object(self, offset: int) -> Any:
        return self.objects.get(offset)


class Nic:
    """NIC of one node: processing cores, work queues, regions, counters."""

    def __init__(self, sim: Simulator, node_id: int, cost: CostModel):
        self.sim = sim
        self.node_id = node_id
        self.cost = cost
        # Multi-core NIC (BlueField-class); serves verbs *and* RoR RPCs.
        self.cores = Resource(sim, capacity=cost.nic_cores, name=f"nic{node_id}/cores")
        # Receive work queue for two-sided SENDs (the RoR request buffer feed).
        self.recv_queue = Store(sim, name=f"nic{node_id}/recv")
        #: admission-control hook for inbound SENDs: ``hook(msg) -> bool``.
        #: Every ``RpcServer`` installs one (it stamps arrival times and,
        #: with ``queue_bound``, sheds); ``None`` — a node with no server,
        #: as under BCL alone — admits everything.  When a hook returns
        #: False the message must NOT be enqueued — the hook has already
        #: disposed of it (e.g. deposited a load-shed rejection envelope).
        self.admission = None
        self.regions: Dict[str, MemoryRegion] = {}
        metrics = registry_of(sim)
        self.verbs_processed = metrics.counter(f"nic{node_id}/verbs")

    # -- memory registration ------------------------------------------------
    def register_region(self, name: str, size: int) -> MemoryRegion:
        if name in self.regions:
            raise KeyError(f"region {name!r} already registered on node {self.node_id}")
        region = MemoryRegion(self.sim, f"n{self.node_id}/{name}", size)
        self.regions[name] = region
        return region

    def deregister_region(self, name: str) -> None:
        self.regions.pop(name, None)

    def region(self, name: str) -> MemoryRegion:
        try:
            return self.regions[name]
        except KeyError:
            raise KeyError(f"no region {name!r} on node {self.node_id}") from None

    def admit(self, msg) -> bool:
        """Consult the admission hook for a delivered SEND.

        Callers enqueue onto :attr:`recv_queue` only when this returns
        True; a False means the hook shed the message (and has already
        produced whatever rejection response the protocol requires).
        """
        gate = self.admission
        return True if gate is None else gate(msg)

    def drop_pending(self) -> int:
        """Discard queued-but-unserved receive work (crash injection).

        Requests already being executed by a worker complete (they finished
        "just before" the crash in the warm-memory fail-stop model); only
        work still sitting in the receive queue is lost.  Clients retry.
        """
        return self.recv_queue.clear()

    # -- service-time helpers (generators run by verbs layer) -----------------
    def serve_verb(self):
        """Occupy one NIC core for a verb's processing time (target side)."""
        cores = self.cores
        yield cores.claim()
        try:
            yield self.cost.nic_verb_service
        finally:
            cores.release_slot()
        self.verbs_processed.value += 1

    def serve_atomic(self, region: MemoryRegion):
        """Occupy a NIC core *and* the region's atomic lock for a CAS/FAA.

        Holding the region lock while the atomic executes is the
        serialization effect the paper's motivating test quantifies.

        The general sequence is core claim, lock claim, service time:
        three kernel events.  The one fused exception in the transport:
        when the code observes *both* free at entry it takes them inline
        (``try_acquire``: no event) and the whole atomic rides the service
        timeout alone.  That is a selection from observed state, not a
        second algorithm — the grants land at the same instant either way —
        and the ``bcl_umap`` ledger row pins the event count it produces.
        """
        cores = self.cores
        lock = region.atomic_lock
        fused = (not lock.in_use and cores.try_acquire()
                 and lock.try_acquire())
        if not fused:
            yield cores.claim()
        try:
            if not fused:
                yield lock.claim()
            try:
                yield self.cost.nic_atomic_service
            finally:
                lock.release_slot()
        finally:
            cores.release_slot()
        self.verbs_processed.value += 1

    # -- observability ----------------------------------------------------------
    def utilization_probe(self):
        """Probe closure: windowed NIC-core utilization in %."""
        state = {"busy": 0.0, "t": self.sim.now}

        def probe() -> float:
            now = self.sim.now
            busy = self.cores.busy_time()
            span = now - state["t"]
            util = 0.0
            if span > 0:
                util = 100.0 * (busy - state["busy"]) / (span * self.cores.capacity)
            state["busy"] = busy
            state["t"] = now
            return util

        return probe
