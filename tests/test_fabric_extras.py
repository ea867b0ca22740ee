"""Tests for the shm provider."""

import pytest

from repro.config import ares_like
from repro.fabric import Cluster


class TestShmProvider:
    def test_shm_provider_for_single_node(self):
        """The shm provider: intra-node-class constants."""
        cluster = Cluster(ares_like(nodes=1, procs_per_node=4),
                          provider="shm")
        assert cluster.spec.cost.link_bandwidth == pytest.approx(
            cluster.spec.cost.memory_bandwidth
        )
        cluster.node(0).register_region("d", 1 << 20)

        def body():
            qp = cluster.qp(0)
            yield from qp.rdma_write(0, "d", 0, "x", 4096)
            out = yield from qp.rdma_read(0, "d", 0, 4096)
            return out

        assert cluster.sim.run_process(body()) == "x"

    def test_shm_faster_than_roce_loopback(self):
        def run(provider):
            cluster = Cluster(ares_like(nodes=1, procs_per_node=4),
                              provider=provider)
            cluster.node(0).register_region("d", 1 << 22)

            def body():
                qp = cluster.qp(0)
                for i in range(8):
                    yield from qp.rdma_write(0, "d", i, None, 1 << 20)

            cluster.sim.run_process(body())
            return cluster.sim.now

        assert run("shm") < run("roce")
