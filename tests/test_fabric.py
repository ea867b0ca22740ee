"""Tests for the fabric: links, NIC, verbs, topology, providers."""

import pytest

from repro.config import CostModel
from repro.fabric import Cluster, Message, Verb
from repro.fabric.node import OutOfMemoryError
from repro.fabric.packet import WIRE_HEADER_BYTES
from repro.fabric.provider import PROVIDERS, get_provider


class TestPacket:
    def test_wire_size_adds_header(self):
        msg = Message(Verb.SEND, 0, 1, 1000)
        assert msg.wire_size == 1000 + WIRE_HEADER_BYTES

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(Verb.SEND, 0, 1, -1)

    def test_msg_ids_unique(self):
        a = Message(Verb.SEND, 0, 1, 10)
        b = Message(Verb.SEND, 0, 1, 10)
        assert a.msg_id != b.msg_id


class TestCostModel:
    def test_transfer_time_scales_with_size(self):
        cost = CostModel()
        assert cost.transfer_time(1 << 20) > cost.transfer_time(4096)

    def test_transfer_time_packet_overhead(self):
        cost = CostModel()
        one = cost.transfer_time(cost.mtu)
        two = cost.transfer_time(cost.mtu * 2)
        # Second packet adds bandwidth time plus one packet overhead.
        assert two == pytest.approx(
            one + cost.mtu / cost.link_bandwidth + cost.per_packet_overhead
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostModel().transfer_time(-1)

    def test_local_read_write(self):
        cost = CostModel()
        assert cost.local_write(4096) > cost.local_read(0)
        assert cost.local_read(1 << 20) > cost.local_read(4096)


class TestLinkTransfer:
    def test_accounting(self, cluster):
        src, dst = cluster.node(0), cluster.node(1)
        msg = Message(Verb.WRITE, 0, 1, 10_000)

        def body():
            yield from cluster.qp(0)._hop(src, dst, msg)

        cluster.sim.run_process(body())
        assert src.egress.messages_total.value == 1
        assert dst.ingress.messages_total.value == 1
        assert src.egress.bytes_total.value == msg.wire_size
        # 10058 bytes over 4096-MTU = 3 packets
        assert src.egress.packets_total.value == 3

    def test_incast_serializes_on_ingress(self, cluster):
        """Two senders to one destination share its ingress bandwidth."""
        dst = cluster.node(1)
        size = 1 << 20

        def sender():
            msg = Message(Verb.WRITE, 0, 1, size)
            yield from cluster.qp(0)._hop(cluster.node(0), dst, msg)

        sim = cluster.sim
        sim.process(sender())
        sim.process(sender())
        sim.run()
        wire = cluster.spec.cost.transfer_time(size + WIRE_HEADER_BYTES)
        # Sequential on the shared egress/ingress: ~2x wire time plus latency.
        assert sim.now >= 2 * wire

    def test_propagation_pipelines(self, cluster):
        """Back-to-back small messages overlap their propagation delay."""
        cost = cluster.spec.cost
        n = 50

        def sender():
            for _ in range(n):
                msg = Message(Verb.SEND, 0, 1, 64)
                yield from cluster.qp(0)._hop(
                    cluster.node(0), cluster.node(1), msg
                )

        # Two concurrent senders: if propagation were inside the channel
        # hold, total time would include n*latency per sender serialized.
        sim = cluster.sim
        sim.process(sender())
        sim.process(sender())
        sim.run()
        serialized_latency = 2 * n * (2 * cost.link_latency + cost.switch_latency)
        assert sim.now < serialized_latency


class TestNic:
    def test_region_registration(self, cluster):
        node = cluster.node(0)
        region = node.register_region("r", 4096)
        assert node.nic.region("r") is region
        with pytest.raises(KeyError):
            node.register_region("r", 4096)
        with pytest.raises(KeyError):
            node.nic.region("missing")

    def test_region_cas_semantics(self, cluster):
        region = cluster.node(0).register_region("r", 4096)
        assert region.compare_and_swap(0, 0, 7) == 0
        assert region.read_word(0) == 7
        assert region.compare_and_swap(0, 0, 9) == 7  # fails
        assert region.read_word(0) == 7
        assert region.cas_failures.value == 1

    def test_region_fetch_add(self, cluster):
        region = cluster.node(0).register_region("r", 4096)
        assert region.fetch_add(8, 5) == 0
        assert region.fetch_add(8, 5) == 5
        assert region.read_word(8) == 10

    def test_memory_budget_oom(self, small_spec):
        cluster = Cluster(small_spec)
        node = cluster.node(0)
        with pytest.raises(OutOfMemoryError):
            node.allocate(node.memory_capacity + 1)

    def test_region_resize_accounting(self, cluster):
        node = cluster.node(0)
        node.register_region("r", 4096)
        used = node.memory_used.value
        node.resize_region("r", 8192)
        assert node.memory_used.value == used + 4096
        node.deregister_region("r")
        assert node.memory_used.value == used - 4096

    def test_atomics_serialize_per_region(self, cluster):
        """Concurrent remote CAS to one region take turns on its lock."""
        node1 = cluster.node(1)
        node1.register_region("hot", 4096)
        qp = cluster.qp(0)
        done_times = []

        def casser(i):
            yield from qp.cas(1, "hot", 0, i, i + 1)
            done_times.append(cluster.sim.now)

        for i in range(8):
            cluster.sim.process(casser(i))
        cluster.sim.run()
        # Serialization: completions are spread, not simultaneous.
        assert len(set(done_times)) == len(done_times)

    def test_utilization_probe(self, cluster):
        node = cluster.node(0)
        probe = node.nic.utilization_probe()
        assert probe() == 0.0

        def worker():
            yield from node.nic.serve_verb()

        cluster.sim.process(worker())
        cluster.sim.run()
        util = probe()
        assert 0.0 < util <= 100.0


class TestVerbs:
    def test_send_lands_in_recv_queue(self, cluster, drive):
        def body():
            yield from cluster.qp(0).send(1, {"op": "x"}, 128)

        drive(cluster, body())
        q = cluster.node(1).nic.recv_queue
        assert len(q) == 1

    def test_write_then_read_roundtrip(self, cluster, drive):
        cluster.node(1).register_region("data", 1 << 16)

        def body():
            qp = cluster.qp(0)
            yield from qp.rdma_write(1, "data", 64, ("k", "v"), 4096)
            out = yield from qp.rdma_read(1, "data", 64, 4096)
            return out

        assert drive(cluster, body()) == ("k", "v")

    def test_out_of_bounds_rejected(self, cluster, drive):
        cluster.node(1).register_region("data", 1024)

        def body():
            yield from cluster.qp(0).rdma_write(1, "data", 2048, "x", 10)

        with pytest.raises(IndexError):
            drive(cluster, body())

    def test_out_of_bounds_read_rejected(self, cluster, drive):
        cluster.node(1).register_region("data", 1024)

        def body():
            yield from cluster.qp(0).rdma_read(1, "data", 1024, 10)

        with pytest.raises(IndexError):
            drive(cluster, body())

    @pytest.mark.parametrize("offset", [1024, -1])
    def test_out_of_bounds_cas_rejected(self, cluster, drive, offset):
        """An atomic obeys the bounds a read of the same offset does — it
        must not mint a word outside the region."""
        region = cluster.node(1).register_region("data", 1024)

        def body():
            yield from cluster.qp(0).cas(1, "data", offset, 0, 1)

        with pytest.raises(IndexError):
            drive(cluster, body())
        assert region.words == {}

    @pytest.mark.parametrize("offset", [1024, -1])
    def test_out_of_bounds_fetch_add_rejected(self, cluster, drive, offset):
        region = cluster.node(1).register_region("data", 1024)

        def body():
            yield from cluster.qp(0).fetch_add(1, "data", offset, 1)

        with pytest.raises(IndexError):
            drive(cluster, body())
        assert region.words == {}

    def test_cas_returns_old_value(self, cluster, drive):
        cluster.node(1).register_region("data", 1024)

        def body():
            qp = cluster.qp(0)
            first = yield from qp.cas(1, "data", 0, 0, 5)
            second = yield from qp.cas(1, "data", 0, 0, 9)
            third = yield from qp.cas(1, "data", 0, 5, 9)
            return first, second, third

        assert drive(cluster, body()) == (0, 5, 5)

    def test_intra_node_loopback_cheaper(self, small_spec):
        """A local (same-node) write must be much faster than a remote one."""
        c1 = Cluster(small_spec)
        c1.node(0).register_region("data", 1 << 20)

        def local():
            yield from c1.qp(0).rdma_write(0, "data", 0, "x", 65536)

        c1.sim.run_process(local())
        local_t = c1.sim.now

        c2 = Cluster(small_spec)
        c2.node(1).register_region("data", 1 << 20)

        def remote():
            yield from c2.qp(0).rdma_write(1, "data", 0, "x", 65536)

        c2.sim.run_process(remote())
        remote_t = c2.sim.now
        assert local_t < remote_t

    def test_fetch_add_accumulates(self, cluster, drive):
        cluster.node(1).register_region("ctr", 1024)

        def body():
            qp = cluster.qp(0)
            a = yield from qp.fetch_add(1, "ctr", 0, 3)
            b = yield from qp.fetch_add(1, "ctr", 0, 4)
            return a, b

        assert drive(cluster, body()) == (0, 3)

    def test_overlapped_posts_faster_than_serial(self, small_spec):
        def run(overlapped):
            cluster = Cluster(small_spec)
            cluster.node(1).register_region("r", 1 << 20)
            qp = cluster.qp(0)
            sim = cluster.sim

            def body():
                if overlapped:
                    for op in [
                        sim.process(qp.rdma_write(1, "r", i, None, 65536))
                        for i in range(8)
                    ]:
                        yield op
                else:
                    for i in range(8):
                        yield from qp.rdma_write(1, "r", i, None, 65536)

            sim.run_process(body())
            return sim.now

        assert run(True) < run(False)


class TestTopology:
    def test_rank_placement(self, cluster):
        assert cluster.node_of_rank(0) == 0
        assert cluster.node_of_rank(3) == 0
        assert cluster.node_of_rank(4) == 1
        with pytest.raises(IndexError):
            cluster.node_of_rank(100)

    def test_ranks_on_node(self, cluster):
        assert [r for r in range(cluster.total_procs)
                if cluster.node_of_rank(r) == 1] == [4, 5, 6, 7]

    def test_qp_cached(self, cluster):
        assert cluster.qp(0) is cluster.qp(0)

    def test_spawn_ranks_runs_all(self, cluster):
        seen = []

        def body(rank):
            yield cluster.sim.timeout(0.001 * rank)
            seen.append(rank)

        cluster.spawn_ranks(body)
        cluster.run()
        assert sorted(seen) == list(range(8))

    def test_run_ranks_returns_results_and_reraises(self, cluster):
        """The one body behind ``HCL.run_ranks`` / ``BCL.run_ranks``."""
        def body(rank):
            yield cluster.sim.timeout(0.001 * rank)
            return rank * 2

        procs = cluster.run_ranks(body, ranks=range(3))
        assert [p.result for p in procs] == [0, 2, 4]
        assert cluster.sim.now == pytest.approx(0.002)

        def failing(rank):
            yield cluster.sim.timeout(0.001)
            if rank == 1:
                raise ValueError("rank 1 broke")

        with pytest.raises(ValueError, match="rank 1 broke"):
            cluster.run_ranks(failing)

    def test_probes(self, cluster, drive):
        packets = cluster.packets_probe()
        assert packets() == 0.0


class TestProviders:
    def test_known_providers(self):
        assert set(PROVIDERS) == {"roce", "verbs", "tcp"}

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_provider("quantum")

    def test_tcp_slower_than_roce(self, small_spec):
        base = small_spec.cost
        tcp = get_provider("tcp").apply(base)
        assert tcp.link_bandwidth < base.link_bandwidth
        assert tcp.link_latency > base.link_latency
        assert not get_provider("tcp").supports_rdma_atomics

    def test_verbs_faster_than_roce(self, small_spec):
        verbs = get_provider("verbs").apply(small_spec.cost)
        assert verbs.link_bandwidth > small_spec.cost.link_bandwidth

    def test_cluster_applies_provider(self, small_spec):
        roce = Cluster(small_spec, provider="roce")
        tcp = Cluster(small_spec, provider="tcp")
        assert tcp.spec.cost.link_latency > roce.spec.cost.link_latency

    def test_same_workload_slower_on_tcp(self, small_spec):
        def run(provider):
            cluster = Cluster(small_spec, provider=provider)
            cluster.node(1).register_region("d", 1 << 20)

            def body():
                for i in range(10):
                    yield from cluster.qp(0).rdma_write(1, "d", 0, i, 4096)

            cluster.sim.run_process(body())
            return cluster.sim.now

        assert run("tcp") > run("roce")
