"""Tests for the shm provider and BCL queue flush."""

import pytest

from repro.bcl import BCL
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


class TestBclQueueFlush:
    def test_push_nb_flush_roundtrip(self, small_spec):
        bcl = BCL(small_spec)
        q = bcl.queue("q", capacity=128, entry_size=64, home_node=1)

        def body(rank):
            for i in range(8):
                q.push_nb(rank, (rank, i))
            yield from q.flush(rank)
            got = []
            for _ in range(8):
                value, ok = yield from q.pop(rank)
                assert ok
                got.append(tuple(value))
            # FIFO per producer even with non-blocking posts... the posts
            # overlap, so only set-equality is guaranteed.
            assert set(got) == {(rank, i) for i in range(8)}

        proc = bcl.cluster.spawn(body(0))
        bcl.cluster.run()
        proc.result

    def test_flush_reports_overflow(self, small_spec):
        bcl = BCL(small_spec)
        q = bcl.queue("q", capacity=2, entry_size=64)

        def body(rank):
            for i in range(6):
                q.push_nb(rank, i)
            yield from q.flush(rank)

        proc = bcl.cluster.spawn(body(0))
        bcl.cluster.run()
        with pytest.raises(RuntimeError, match="flush"):
            proc.result
