"""Cluster and cost-model configuration.

All timing constants of the simulated testbed live here, calibrated to the
Ares cluster figures quoted in the paper (Section IV-A and IV-B):

* inter-node bandwidth ~= 4.5 GB/s (OSU benchmark between two Ares nodes)
* node memory bandwidth ~= 65 GB/s (STREAM with 40 threads)
* 40 cores / node, ConnectX-4 Lx 40GbE RoCE, 96 GB RAM
* Fig 1: 40 clients x 8192 remote 4KB ops cost ~= 0.30 s per remote verb
  stage per client under contention => per-verb base latency and NIC service
  times below.

Every experiment accepts a :class:`ClusterSpec`; benchmarks default to
scaled-down process/op counts but keep the paper's structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = ["CostModel", "ClusterSpec", "RetryPolicy", "DEFAULT_COST_MODEL",
           "ares_like"]

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


@dataclass(frozen=True)
class RetryPolicy:
    """RPC timeout/retry contract (Mercury-style: part of the RPC layer,
    not an afterthought).  Governs every :class:`repro.rpc.client.RpcClient`
    attempt; the completion ``timeout`` is armed only while a fault plan
    is installed, since nothing else drops a message or takes a node down.

    ``max_retries`` counts *retransmissions*: a request is attempted at
    most ``1 + max_retries`` times before the client surfaces
    :class:`~repro.rpc.future.TargetUnavailable`.
    """

    timeout: float = 60e-6  # per-attempt completion timeout (seconds)
    max_retries: int = 6  # retransmissions after the first attempt
    backoff_base: float = 10e-6  # wait before the first retransmission
    backoff_factor: float = 2.0  # exponential growth per retry
    backoff_max: float = 400e-6  # backoff ceiling

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")

    def backoff(self, attempt: int) -> float:
        """Backoff before retransmission number ``attempt`` (1-based)."""
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )


@dataclass(frozen=True)
class CostModel:
    """Timing constants (seconds / bytes-per-second) for the simulated fabric.

    The symbols follow Table I of the paper:

    * ``F`` — cost of invoking a function on remote memory (RPC dispatch)
    * ``L`` — a local memory operation (pointer chase / compare)
    * ``R``/``W`` — local read / write, charged per byte against node
      memory bandwidth plus a base cost
    """

    # --- network ----------------------------------------------------------
    link_bandwidth: float = 4.5 * GB  # bytes/s, matches OSU number in paper
    link_latency: float = 3.0e-6  # one-way propagation, RoCE-class
    switch_latency: float = 0.5e-6  # per hop through the crossbar
    mtu: int = 4096  # packetization unit (RoCE jumbo-ish)
    per_packet_overhead: float = 0.15e-6  # serialization of headers etc.

    # --- NIC ----------------------------------------------------------------
    nic_cores: int = 4  # BlueField-class multi-core NIC
    nic_verb_service: float = 1.2e-6  # WQE processing per verb on NIC core
    nic_atomic_service: float = 1.6e-6  # CAS/FAA execution on NIC core
    nic_rpc_dispatch: float = 2.5e-6  # de-marshal + dispatch of an RPC
    nic_doorbell: float = 0.4e-6  # MMIO doorbell ring from host CPU
    # NIC cores (BlueField-class ARM) execute data-structure code several
    # times slower than host Xeons; RPC handler compute is scaled by this.
    # The hybrid access model's local bypass runs at factor 1.0 on the host.
    nic_compute_factor: float = 6.0

    # --- host memory ----------------------------------------------------------
    memory_bandwidth: float = 65.0 * GB  # STREAM, whole node
    local_op: float = 30.0e-9  # one ``L`` (pointer chase, compare)
    local_read_base: float = 60.0e-9  # base of one ``R``
    local_write_base: float = 80.0e-9  # base of one ``W``
    cas_local: float = 45.0e-9  # local CAS (cache-line locked op)

    # --- software ---------------------------------------------------------------
    serialize_per_byte: float = 0.08e-9  # DataBox marshal cost
    serialize_base: float = 0.5e-6
    rpc_client_overhead: float = 1.0e-6  # client stub bookkeeping
    persist_per_byte: float = 0.35e-9  # msync-to-NVMe amortized
    persist_base: float = 4.0e-6

    # --- BCL-specific ------------------------------------------------------------
    bcl_buffer_per_client: int = 64 * KB  # exclusive RDMA buffer floor
    bcl_init_bandwidth: float = 8.0 * GB  # rate of up-front segment alloc

    # --- RPC reliability ----------------------------------------------------------
    retry: "RetryPolicy" = field(default_factory=RetryPolicy)

    def transfer_time(self, nbytes: int) -> float:
        """Pure wire time for ``nbytes`` over one link (no queueing)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        packets = max(1, -(-nbytes // self.mtu))
        return nbytes / self.link_bandwidth + packets * self.per_packet_overhead

    def local_read(self, nbytes: int) -> float:
        return self.local_read_base + nbytes / self.memory_bandwidth

    def local_write(self, nbytes: int) -> float:
        return self.local_write_base + nbytes / self.memory_bandwidth

    def serialize(self, nbytes: int) -> float:
        return self.serialize_base + nbytes * self.serialize_per_byte

    def persist(self, nbytes: int) -> float:
        return self.persist_base + nbytes * self.persist_per_byte


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of the simulated cluster for one experiment."""

    nodes: int = 2
    procs_per_node: int = 40
    memory_per_node: int = 96 * GB
    cost: CostModel = field(default_factory=CostModel)
    seed: int = 0

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.procs_per_node < 1:
            raise ValueError("procs_per_node must be >= 1")

    @property
    def total_procs(self) -> int:
        return self.nodes * self.procs_per_node

    def scaled(self, **kwargs) -> "ClusterSpec":
        """Return a copy with overrides (dataclasses.replace sugar)."""
        return replace(self, **kwargs)


DEFAULT_COST_MODEL = CostModel()


def ares_like(nodes: int, procs_per_node: int = 40, seed: int = 0,
              cost: Optional[CostModel] = None) -> ClusterSpec:
    """The paper's testbed shape: 40-core nodes, RoCE 40GbE, 96 GB."""
    return ClusterSpec(
        nodes=nodes,
        procs_per_node=procs_per_node,
        memory_per_node=96 * GB,
        cost=cost or DEFAULT_COST_MODEL,
        seed=seed,
    )
