"""Tests for the Zipfian serving harness and admission-control shedding."""

from __future__ import annotations

import gc
import math
import types
from collections import Counter

import pytest

from repro.config import ares_like
from repro.fabric import Cluster
from repro.harness.serving import HARNESS as SERVING
from repro.harness.serving import (
    ZipfKeyGenerator,
    check_serving,
    render_serving,
    run_serving,
)
from repro.obs import FlightRecorder, write_json
from repro.rpc import RpcClient, RpcServer, ServerOverloaded
from repro.rpc.server import RpcRequest


class TestZipfKeyGenerator:
    def test_seeded_reproducibility(self):
        a = ZipfKeyGenerator(256, 0.99, seed=11, tenant=3)
        b = ZipfKeyGenerator(256, 0.99, seed=11, tenant=3)
        assert [a.sample() for _ in range(500)] == \
               [b.sample() for _ in range(500)]

    def test_seed_and_tenant_change_the_stream(self):
        base = ZipfKeyGenerator(256, 0.99, seed=11, tenant=0)
        other_seed = ZipfKeyGenerator(256, 0.99, seed=12, tenant=0)
        other_tenant = ZipfKeyGenerator(256, 0.99, seed=11, tenant=1)
        ranks = [base.sample_rank() for _ in range(200)]
        assert ranks != [other_seed.sample_rank() for _ in range(200)]
        # Tenant keys live in disjoint namespaces even for equal ranks.
        assert base.key_at(0).startswith("t0:k")
        assert other_tenant.key_at(0).startswith("t1:k")

    def test_rank_id_shuffle_is_a_permutation(self):
        gen = ZipfKeyGenerator(128, 0.5, seed=4, tenant=2)
        ids = {gen.key_at(r) for r in range(128)}
        assert len(ids) == 128

    def test_rank_frequency_slope_tracks_theta(self):
        """log(freq) vs log(rank) must fall with slope ~ -theta."""
        theta = 0.9
        gen = ZipfKeyGenerator(512, theta, seed=7)
        counts = [0] * 512
        for _ in range(60_000):
            counts[gen.sample_rank()] += 1
        xs, ys = [], []
        for rank in range(20):  # top ranks: thousands of hits each
            assert counts[rank] > 0
            xs.append(math.log(rank + 1))
            ys.append(math.log(counts[rank]))
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))
        assert slope == pytest.approx(-theta, abs=0.15)

    def test_theta_zero_is_uniform(self):
        gen = ZipfKeyGenerator(64, 0.0, seed=9)
        counts = [0] * 64
        for _ in range(32_000):
            counts[gen.sample_rank()] += 1
        assert min(counts) > 0
        assert max(counts) / min(counts) < 1.6

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfKeyGenerator(0, 0.99, seed=1)
        with pytest.raises(ValueError):
            ZipfKeyGenerator(8, -0.1, seed=1)


@pytest.fixture
def shed_rig(small_spec):
    """2-node cluster; node 1 serves with ONE worker and queue_bound=2.

    One worker makes the shed boundary exact: the first request is held in
    execution (off the queue), the next ``bound`` wait in the receive
    queue, and the request after that must be shed.
    """
    cluster = Cluster(small_spec)
    servers = {
        0: RpcServer(cluster.node(0)),
        1: RpcServer(cluster.node(1), workers=1, queue_bound=2),
    }
    client = RpcClient(cluster, 0, servers)

    def slow(ctx, duration):
        yield ctx.sim.timeout(duration)
        return "done"

    servers[1].bind("slow", slow)
    return cluster, servers, client


class TestLoadShedding:
    def test_queue_exactly_full_boundary(self, shed_rig):
        """bound+worker in-flight ops are admitted; exactly one more sheds."""
        cluster, servers, client = shed_rig
        futs = [client.invoke(1, "slow", (1e-3,)) for _ in range(4)]
        cluster.run()
        ok = [f for f in futs if f._event.ok]
        failed = [f for f in futs if not f._event.ok]
        assert len(ok) == 3 and len(failed) == 1
        err = failed[0]._event.value
        assert isinstance(err, ServerOverloaded)
        assert err.bound == 2
        assert err.depth == 2  # shed while the queue held exactly `bound`
        assert err.dst_node == 1
        assert servers[1].shed.value == 1
        assert client.shed_seen.value == 1

    def test_shed_is_retriable_not_node_down(self, shed_rig):
        from repro.fabric.node import NodeDownError

        cluster, _servers, client = shed_rig
        futs = [client.invoke(1, "slow", (1e-3,)) for _ in range(4)]
        cluster.run()
        err = next(f._event.value for f in futs if not f._event.ok)
        # ServerOverloaded must NOT trigger container failover paths.
        assert not isinstance(err, NodeDownError)

    def test_shed_then_retry_succeeds(self, shed_rig):
        cluster, servers, client = shed_rig
        futs = [client.invoke(1, "slow", (1e-3,)) for _ in range(4)]
        cluster.run()  # burst settles; queue drains fully
        assert sum(1 for f in futs if not f._event.ok) == 1
        retry = client.invoke(1, "slow", (1e-3,))
        cluster.run()
        assert retry.result == "done"
        assert servers[1].shed.value == 1  # the retry was not shed

    def test_idempotency_token_preserved_across_shed(self, shed_rig):
        """A shed op leaves only a shed record: the same-token retry
        executes fresh exactly once, and only then is the token
        replay-protected."""
        cluster, servers, client = shed_rig
        calls = []
        servers[1].bind("record", lambda ctx, x: calls.append(x) or len(calls))
        token = client.next_token(1)
        fill = [client.invoke(1, "slow", (1e-3,)) for _ in range(3)]
        box = {}

        def late_record():
            # Smaller requests marshal faster; delay so the record op
            # arrives after every fill (but well inside the 1ms handler).
            yield cluster.sim.timeout(5e-5)
            box["fut"] = client.invoke(1, "record", ("a",), token=token)

        cluster.spawn(late_record())
        cluster.run()
        shed_fut = box["fut"]
        assert all(f._event.ok for f in fill)
        assert isinstance(shed_fut._event.value, ServerOverloaded)
        owner, seq = token
        # the shed's record holds the shed response, not an executed one
        assert servers[1]._records[owner][seq].shed is not None
        assert calls == []  # handler never ran

        retry = client.invoke(1, "record", ("a",), token=token)
        cluster.run()
        assert retry.result == 1
        assert calls == ["a"]
        record = servers[1]._records[owner][seq]  # now replay-protected
        assert record.shed is None and record.value == 1

        dup = client.invoke(1, "record", ("a",), token=token)
        cluster.run()
        assert dup.result == 1  # replayed envelope, not a re-execution
        assert calls == ["a"]
        assert servers[1].duplicates_suppressed.value == 1

    def test_unbounded_server_hook_stamps_but_never_sheds(self, small_spec):
        # The admission hook is always installed now (it stamps arrival
        # times for the queue-wait histogram), but with no queue_bound it
        # must admit everything.
        cluster = Cluster(small_spec)
        server = RpcServer(cluster.node(0))
        assert server.queue_bound is None
        assert cluster.node(0).nic.admission is not None

        class _Msg:
            payload = RpcRequest("op", (), 0, (0, 1))

        assert cluster.node(0).nic.admit(_Msg()) is True
        assert _Msg.payload.arrived_at == cluster.sim.now
        assert server.shed.value == 0

    def test_queue_bound_validation(self, small_spec):
        cluster = Cluster(small_spec)
        with pytest.raises(ValueError):
            RpcServer(cluster.node(1), queue_bound=0)


TINY = dict(nodes=2, procs_per_node=2, clients=40, tenants=2, theta=0.9,
            keys=64, queue_frac=0.5, queue_home="packed", rate=50_000.0,
            ops_per_client=10.0, seed=5, bounds=(None, 2), shed_retries=1,
            retry_backoff=1e-3, rpc_batch_size=1)


@pytest.fixture(scope="module")
def tiny_report():
    return run_serving(**TINY)


class TestServingReport:
    def test_sanity_checks_pass(self, tiny_report):
        assert check_serving(tiny_report) == []

    def test_accounting_and_structure(self, tiny_report):
        assert tiny_report["clients"] == 40
        assert "cliff" in tiny_report
        for cfg in tiny_report["configs"]:
            assert cfg["issued"] == 400  # clients * ops_per_client
            assert (cfg["completed"] + cfg["shed_gaveup"] + cfg["errors"]
                    == cfg["issued"])
            for key in ("p50", "p95", "p99", "p99.9"):
                assert key in cfg["latency"]
            assert 0.0 < cfg["fairness_jain"] <= 1.0
            assert cfg["hot_key_amplification"] >= 1.0

    def test_bounded_config_sheds_and_unbounded_does_not(self, tiny_report):
        unbounded, bounded = tiny_report["configs"]
        assert unbounded["queue_bound"] is None and unbounded["shed"] == 0
        assert bounded["queue_bound"] == 2 and bounded["shed"] > 0
        assert bounded["shed_seen_by_clients"] == bounded["shed"]

    def test_per_tenant_sections(self, tiny_report):
        for cfg in tiny_report["configs"]:
            assert set(cfg["per_tenant"]) == {"t0", "t1"}
            assert all(s["completed"] > 0
                       for s in cfg["per_tenant"].values())

    def test_render_table(self, tiny_report):
        text = render_serving(tiny_report)
        assert "bound" in text and "p99.9us" in text
        assert "off" in text  # the unbounded row

    def test_same_seed_reports_are_byte_identical(self, tmp_path):
        params = dict(TINY, clients=20, ops_per_client=5.0)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_json(SERVING.emit(run_serving(**params))[""], str(p1))
        write_json(SERVING.emit(run_serving(**params))[""], str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_check_serving_flags_missing_cliff(self, tiny_report):
        failures = check_serving(tiny_report, require_cliff=True,
                                 cliff_factor=1e9)
        assert any("cliff" in f for f in failures)

    def test_validation(self):
        with pytest.raises(ValueError, match="mix"):
            run_serving(clients=4, mix=(0.9, 0.2, 0.1))
        with pytest.raises(ValueError, match="queue_frac"):
            run_serving(clients=4, queue_frac=1.5)
        with pytest.raises(ValueError, match="queue_home"):
            run_serving(clients=4, queue_home="stacked")
        with pytest.raises(ValueError, match="positive"):
            run_serving(clients=4, rate=0.0)


class TestServingGarbage:
    def test_settled_ops_are_not_cyclic_garbage(self):
        """A settled op, a shed retried or failed included, is freed by
        reference counting: its callback does not name itself, a failed
        RPC's error holds no traceback, and closing the runtime drops
        the servers' completion records."""
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            report = run_serving(**TINY)
            gc.collect()
            types_ = Counter(type(o).__name__ for o in gc.garbage)
            funcs = Counter(o.__name__ for o in gc.garbage
                            if isinstance(o, types.FunctionType))
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        ops = sum(cfg["issued"] for cfg in report["configs"])
        assert sum(cfg["shed"] for cfg in report["configs"]) > 0
        assert types_["ServerOverloaded"] == 0
        assert types_["traceback"] == 0
        assert types_["RpcResponse"] == 0
        assert types_["ServedOp"] == 0
        assert funcs["<lambda>"] < 0.05 * ops  # no per-op factory


class TestServingRuntimeWiring:
    def test_hcl_queue_bound_reaches_servers(self):
        from repro.core.runtime import HCL

        spec = ares_like(nodes=2, procs_per_node=2, seed=1)
        h = HCL(spec, rpc_queue_bound=7)
        try:
            assert all(s.queue_bound == 7 for s in h._servers.values())
            assert all(h.cluster.node(n).nic.admission is not None
                       for n in range(2))
        finally:
            h.close()


class TestServingMonitors:
    """Monitors-on runs must keep identical simulated results."""

    @staticmethod
    def _record():
        """Run TINY with the flight recorder on; (report, [(label, flight)])."""
        recorded = SERVING.attach(flight=True)
        report = run_serving(**TINY, instrument=recorded)
        return report, [(run.label, run.recorder.payload())
                        for run in recorded.runs]

    @pytest.fixture(scope="class")
    def monitored(self):
        return self._record()

    def test_report_identical_with_monitors_on(self, monitored):
        import json

        report, _sink = monitored
        plain = run_serving(**TINY)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            plain, sort_keys=True)

    def test_sink_holds_one_flight_per_bound(self, monitored):
        _report, sink = monitored
        assert [label for label, _flight in sink] == [
            "off" if b is None else f"b{b}" for b in TINY["bounds"]]
        for _label, flight in sink:
            assert flight["kind"] == "flight_recorder"
            assert flight["samples"] > 0
            assert flight["series"]
            assert "skew" in flight and "slo" in flight

    def test_skew_section_covers_all_partitions(self, monitored):
        _report, sink = monitored
        skew = sink[0][1]["skew"]
        assert skew["partitions"] > 0
        assert skew["total_ops"] > 0
        assert skew["keys_offered"] > 0
        assert skew["top_keys"], "Zipf workload must surface hot keys"
        assert skew["imbalance"] >= 1.0

    def test_hot_keys_match_workload_ground_truth(self, monitored):
        """The sketch's #1 key share equals the report's exact
        ``top_key_share`` (computed from full per-key counts)."""
        report, sink = monitored
        skew = sink[0][1]["skew"]
        top = skew["top_keys"][0]
        assert top["error"] == 0  # namespace fits: counts are exact
        assert top["count"] / skew["keys_offered"] == pytest.approx(
            report["configs"][0]["top_key_share"])

    def test_monitor_option_overrides(self):
        """Any instrument that installs a recorder gets the serving rules:
        cadence and ring bound are the recorder's own."""
        recorders = []

        def instrument(h):
            recorders.append(FlightRecorder(
                h.sim, interval=1e-3, maxlen=7,
                select=SERVING.flight_select).install(h.cluster))

        run_serving(**TINY, instrument=instrument)
        flight = recorders[0].payload()
        assert flight["interval"] == 1e-3
        assert flight["maxlen"] == 7
        assert all(len(s["times"]) <= 7
                   for s in flight["series"].values())
        assert "skew" in flight and "slo" in flight

    def test_flight_payload_deterministic(self):
        import json

        def one():
            _report, sink = self._record()
            return json.dumps(sink, sort_keys=True)

        assert one() == one()
