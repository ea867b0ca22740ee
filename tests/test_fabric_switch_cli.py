"""Tests for the oversubscribed switch model and the CLI."""

import pytest

from repro.config import ares_like
from repro.fabric import Cluster, Switch


class TestSwitch:
    def test_validation(self, sim):
        from repro.config import CostModel

        with pytest.raises(ValueError):
            Switch(sim, CostModel(), nodes=4, oversubscription=0.5)

    def test_channel_count(self, sim):
        from repro.config import CostModel

        sw = Switch(sim, CostModel(), nodes=8, oversubscription=4.0)
        assert sw.channels.capacity == 2
        assert not sw.is_full_bisection
        sw1 = Switch(sim, CostModel(), nodes=8)
        assert sw1.is_full_bisection

    def _all_to_all_time(self, oversub: float) -> float:
        cluster = Cluster(ares_like(nodes=4, procs_per_node=2),
                          oversubscription=oversub)
        for i in range(4):
            cluster.node(i).register_region("d", 1 << 22)

        def body(rank):
            qp = cluster.qp(cluster.node_of_rank(rank))
            me = cluster.node_of_rank(rank)
            for i in range(6):
                dst = (me + 1 + i % 3) % 4
                yield from qp.rdma_write(dst, "d", 0, None, 1 << 20)

        cluster.spawn_ranks(body)
        cluster.run()
        return cluster.sim.now

    def test_oversubscription_slows_all_to_all(self):
        t_full = self._all_to_all_time(1.0)
        t_over = self._all_to_all_time(4.0)
        assert t_over > 2.0 * t_full

    def test_full_bisection_is_free(self):
        """At 1:1 the switch adds no serialization beyond the links."""
        t_full = self._all_to_all_time(1.0)
        t_mild = self._all_to_all_time(1.0 + 1e-9)
        assert t_full == pytest.approx(t_mild, rel=0.01) or t_full <= t_mild

    def test_transits_counted(self):
        cluster = Cluster(ares_like(nodes=2, procs_per_node=1))
        cluster.node(1).register_region("d", 4096)

        def body():
            yield from cluster.qp(0).rdma_write(1, "d", 0, None, 64)

        cluster.sim.run_process(body())
        assert cluster.switch.transits.value >= 1

    def test_loopback_skips_switch(self):
        cluster = Cluster(ares_like(nodes=1, procs_per_node=1),
                          oversubscription=8.0)
        cluster.node(0).register_region("d", 4096)

        def body():
            yield from cluster.qp(0).rdma_write(0, "d", 0, None, 64)

        cluster.sim.run_process(body())
        assert cluster.switch.transits.value == 0


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "microbench" in out

    def test_microbench_provider_choice_enforced(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["microbench", "--provider", "carrier-pigeon"])

    def test_fig7_single_app(self, capsys):
        from repro.cli import main

        assert main(["fig7", "--apps", "isx", "--nodes", "2",
                     "--procs", "2", "--ops", "16"]) == 0
        out = capsys.readouterr().out
        assert "isx weak scaling" in out and "speedup" in out

    def test_requires_command(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([])


class TestCliFigures:
    def test_fig5_custom_sizes(self, capsys):
        from repro.cli import main

        assert main(["fig5", "--sizes", "4096", "65536"]) == 0
        out = capsys.readouterr().out
        assert "intra-node" in out and "inter-node" in out
        assert "4KB" in out and "64KB" in out

    def test_fig6_custom_partitions(self, capsys):
        from repro.cli import main

        assert main(["fig6", "--partitions", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "insert throughput" in out

    def test_microbench_command(self, capsys):
        from repro.cli import main

        assert main(["microbench"]) == 0
        out = capsys.readouterr().out
        assert "STREAM" in out and "GB/s" in out
