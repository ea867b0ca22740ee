"""OSU-style microbenchmarks of the simulated fabric.

The paper quotes two calibration numbers for its testbed: "the average
network performance between two nodes in Ares cluster is approximately
4.5 GB/s as measured by the OSU network benchmark" and "the memory
performance of an Ares node using Stream benchmark using 40 threads is
roughly 65 GB/sec".  This module measures the same quantities *from inside
the simulation* — latency, uni-directional bandwidth, message rate, atomic
rate, RPC null-latency, and STREAM-like memory bandwidth — so the cost
model's calibration is observable evidence, not configuration trivia.

Used by ``python -m repro.cli microbench`` and the calibration tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.config import ClusterSpec, MB, ares_like
from repro.fabric import Cluster
from repro.harness.driver import Harness, flag
from repro.harness.report import render_table

__all__ = ["MicrobenchReport", "run_microbench"]


@dataclass
class MicrobenchReport:
    """Measured fabric characteristics (simulated)."""

    verb_latency_us: float  # 8-byte RDMA write round-trip-ish one-way
    read_latency_us: float  # 8-byte RDMA read (full round trip)
    cas_latency_us: float  # remote atomic
    bandwidth_gbs: float  # 1 MB writes, streaming
    message_rate_mops: float  # 8-byte writes, pipelined
    atomic_rate_mops: float  # pipelined CAS to one region
    rpc_null_latency_us: float  # empty RPC invoke -> response
    stream_gbs: float  # node-local memory bandwidth

    def rows(self):
        return [
            ["one-way write latency (8 B)", f"{self.verb_latency_us:.2f} us"],
            ["read latency (8 B)", f"{self.read_latency_us:.2f} us"],
            ["atomic CAS latency", f"{self.cas_latency_us:.2f} us"],
            ["streaming bandwidth (1 MB)", f"{self.bandwidth_gbs:.2f} GB/s"],
            ["message rate (8 B)", f"{self.message_rate_mops:.2f} Mops/s"],
            ["atomic rate", f"{self.atomic_rate_mops:.2f} Mops/s"],
            ["RPC null latency", f"{self.rpc_null_latency_us:.2f} us"],
            ["STREAM memory bandwidth", f"{self.stream_gbs:.1f} GB/s"],
        ]


def _fresh(spec: ClusterSpec, provider: str) -> Cluster:
    cluster = Cluster(spec, provider=provider)
    cluster.node(1).register_region("mb", 16 * MB)
    return cluster


def run_microbench(spec: ClusterSpec = None,
                   provider: str = "roce") -> MicrobenchReport:
    """Measure the fabric; ~a dozen tiny simulations."""
    spec = spec or ares_like(nodes=2, procs_per_node=4)

    # -- point latencies (single op on an idle fabric) ---------------------
    def one(op_builder) -> float:
        cluster = _fresh(spec, provider)
        qp = cluster.qp(0)
        cluster.sim.run_process(op_builder(qp))
        return cluster.sim.now

    write_lat = one(lambda qp: qp.rdma_write(1, "mb", 0, None, 8))
    read_lat = one(lambda qp: qp.rdma_read(1, "mb", 0, 8))
    cas_lat = one(lambda qp: qp.cas(1, "mb", 0, 0, 1))

    # -- pipelined rates: post every op at once, wait for each in turn -------
    def pipelined(count: int, op_builder) -> float:
        cluster = _fresh(spec, provider)
        qp, sim = cluster.qp(0), cluster.sim

        def post_all():
            for op in [sim.process(op_builder(qp, i)) for i in range(count)]:
                yield op

        sim.run_process(post_all())
        return sim.now

    n, size = 64, 1 * MB
    bandwidth = n * size / pipelined(
        n, lambda qp, _i: qp.rdma_write(1, "mb", 0, None, size)) / (1 << 30)
    m = 512
    message_rate = m / pipelined(
        m, lambda qp, i: qp.rdma_write(1, "mb", i * 8, None, 8)) / 1e6
    # the atomic rate serializes on the region lock
    atomic_rate = m / pipelined(
        m, lambda qp, _i: qp.fetch_add(1, "mb", 0, 1)) / 1e6

    # -- RPC null latency -------------------------------------------------------------
    from repro.rpc import RpcClient, RpcServer

    cluster = Cluster(spec, provider=provider)
    servers = {i: RpcServer(cluster.node(i)) for i in range(2)}
    servers[1].bind("null", lambda ctx: None)
    client = RpcClient(cluster, 0, servers)

    def null_rpc():
        yield from client.call(1, "null")

    cluster.sim.run_process(null_rpc())
    rpc_lat = cluster.sim.now

    # -- STREAM (node-local copies through the memory bus) ------------------------------
    cluster = Cluster(spec, provider=provider)
    node = cluster.node(0)
    chunk = 4 * MB
    rounds = 32

    def stream_local():
        for _ in range(rounds):
            yield from node.local_copy(chunk)

    cluster.sim.run_process(stream_local())
    stream_bw = rounds * chunk / cluster.sim.now / (1 << 30)

    return MicrobenchReport(
        verb_latency_us=write_lat * 1e6,
        read_latency_us=read_lat * 1e6,
        cas_latency_us=cas_lat * 1e6,
        bandwidth_gbs=bandwidth,
        message_rate_mops=message_rate,
        atomic_rate_mops=atomic_rate,
        rpc_null_latency_us=rpc_lat * 1e6,
        stream_gbs=stream_bw,
    )


HARNESS = Harness(
    name="microbench",
    help="OSU-style fabric microbenchmarks",
    stem="microbench",
    shared=dict(emit="BENCH_microbench.json"),
    flags=(flag("--provider", default="roce",
                choices=["roce", "verbs", "tcp"]),),
    run=lambda a, _instrument: run_microbench(provider=a.provider),
    render=lambda report, a: render_table(
        f"Simulated fabric microbenchmarks (provider={a.provider}; "
        "paper calibration: OSU ~4.5 GB/s, STREAM ~65 GB/s)",
        ["metric", "value"], report.rows()),
    emit=lambda report: {"": asdict(report)},
    gate=(),
    instruments=(),
)
