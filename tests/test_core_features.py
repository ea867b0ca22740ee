"""Tests for replication, persistence, cost ledger, and runtime plumbing."""

import pytest

from repro.core import HCL
from repro.core.costs import CostLedger
from repro.memory import PersistentLog
from repro.serialization import DataBox
from repro.structures.stats import OpStats


class TestReplication:
    def test_mutations_copied_to_replicas(self, hcl4):
        m = hcl4.unordered_map("m", partitions=4, replication=1)

        def body(rank):
            yield from m.insert(rank, f"key-{rank}", rank)

        hcl4.run_ranks(body)
        hcl4.cluster.run()  # drain async replication traffic
        for rank in range(hcl4.cluster.spec.total_procs):
            key = f"key-{rank}"
            primary = m.partition_for(key)
            replica = m.partitions[(primary.index + 1) % 4]
            assert primary.structure.find(key)[1], "primary missing"
            assert replica.structure.find(key)[1], "replica missing"

    def test_replication_is_asynchronous(self, hcl4):
        """The caller does not wait for replicas: time ~ non-replicated."""

        def run(replication):
            runtime = HCL(hcl4.cluster.spec)
            m = runtime.unordered_map("m", partitions=4,
                                      replication=replication)

            def body(rank):
                for i in range(16):
                    yield from m.insert(rank, (rank, i), i)
                return runtime.now  # time when the *caller* finished

            procs = runtime.run_ranks(body)
            return max(p.result for p in procs)

        t0, t1 = run(0), run(1)
        assert t1 < t0 * 1.6  # replication must not double caller latency

    def test_reads_not_replicated(self, hcl4):
        m = hcl4.unordered_map("m", partitions=4, replication=1)

        def body(rank):
            yield from m.find(rank, "nothing")

        hcl4.run_ranks(body)
        hcl4.cluster.run()
        assert all(len(p.structure) == 0 for p in m.partitions)


class TestPersistence:
    def test_operations_logged_and_recoverable(self, small_spec, tmp_path):
        hcl = HCL(small_spec, persist_dir=str(tmp_path))
        m = hcl.unordered_map("kv", partitions=2, persistence=True)

        def body(rank):
            yield from m.insert(rank, f"k{rank}", rank)

        hcl.run_ranks(body)
        m.close()

        # Replay the logs and rebuild the map contents.
        recovered = {}
        for index in range(2):
            path = tmp_path / f"kv.part{index}.hcl"
            assert path.exists()
            with PersistentLog(str(path)) as log:
                for record in log.records():
                    op, args = DataBox.decode(record.payload).value
                    if op == "insert":
                        key, value = args
                        recovered[key] = value
        assert recovered == {f"k{r}": r for r in range(8)}

    def test_relaxed_mode_skips_foreground_flush(self, small_spec, tmp_path):
        def run(relaxed):
            runtime = HCL(small_spec, persist_dir=str(tmp_path / str(relaxed)))
            m = runtime.unordered_map(
                "kv", partitions=1, nodes=[1],
                persistence=True, relaxed_persistence=relaxed,
            )

            def body(rank):
                for i in range(32):
                    yield from m.insert(rank, (rank, i), i)

            runtime.run_ranks(body, ranks=range(4))
            t = runtime.now
            m.close()
            return t

        assert run(relaxed=True) < run(relaxed=False)

    def test_queue_persistence(self, small_spec, tmp_path):
        hcl = HCL(small_spec, persist_dir=str(tmp_path))
        q = hcl.queue("wq", persistence=True)

        def body(rank):
            yield from q.push(rank, rank)

        hcl.run_ranks(body)
        q.close()
        with PersistentLog(str(tmp_path / "wq.part0.hcl")) as log:
            ops = [DataBox.decode(r.payload).value[0] for r in log.records()]
        assert ops == ["push"] * 8


class TestCostLedger:
    def test_record_and_average(self):
        ledger = CostLedger()
        ledger.record("insert", OpStats(local_ops=3, writes=1, cas_ops=1),
                      remote=True)
        ledger.record("insert", OpStats(local_ops=5, writes=1), remote=False)
        row = ledger.per_op("insert")
        assert row["count"] == 2
        assert row["F"] == 0.5
        assert row["L"] == 4.0
        assert row["W"] == 1.0

    def test_resize_counted_as_n_reads_writes(self):
        ledger = CostLedger()
        ledger.record("resize", OpStats(resized=True, resize_entries=10),
                      remote=True)
        row = ledger.per_op("resize")
        assert row["R"] == 10 and row["W"] == 10

    def test_unknown_op_empty(self):
        assert CostLedger().per_op("nope")["count"] == 0

    def test_table1_shape_unordered_map(self, hcl):
        """Table I: insert = F + L + W with O(1) L; find = F + L + R."""
        m = hcl.unordered_map("m", partitions=1, nodes=[1],
                              initial_buckets=4096)

        def body(rank):
            for i in range(50):
                yield from m.insert(rank, (rank, i), i)
            for i in range(50):
                yield from m.find(rank, (rank, i))

        hcl.run_ranks(body, ranks=range(4))
        ins = m.ledger.per_op("insert")
        fnd = m.ledger.per_op("find")
        assert ins["F"] == 1.0 and fnd["F"] == 1.0  # ONE remote invocation
        assert ins["W"] >= 1.0 and fnd["W"] == 0.0
        assert fnd["R"] >= 1.0
        assert ins["L"] <= 8  # constant-ish, not O(n)

    def test_table1_shape_ordered_map_log_growth(self, hcl):
        """Ordered map L grows ~log N (Table I row 2)."""
        m = hcl.map("om", partitions=1, nodes=[1],
                    partitioner=lambda k, n: 0)

        def burst(base, count):
            def body(rank):
                for i in range(count):
                    yield from m.insert(rank, base + rank * count + i, i)
            return body

        hcl.run_ranks(burst(0, 32), ranks=range(1))
        small = m.ledger.per_op("insert")["L"]
        hcl.run_ranks(burst(10_000, 512), ranks=range(1))
        big = m.ledger.per_op("insert")["L"]
        # L/op grows, but sublinearly (log 544/log 32 ~ 1.8, not 17x).
        assert small < big < small * 6


class TestRuntime:
    def test_client_cached(self, hcl):
        assert hcl.client(0) is hcl.client(0)

    def test_run_ranks_propagates_failures(self, hcl):
        def body(rank):
            yield hcl.sim.timeout(0.0)
            if rank == 3:
                raise RuntimeError("rank 3 died")

        with pytest.raises(RuntimeError, match="rank 3 died"):
            hcl.run_ranks(body)

    def test_partition_placement_round_robin(self, hcl4):
        m = hcl4.unordered_map("m", partitions=8)
        assert [p.node_id for p in m.partitions] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_explicit_placement(self, hcl4):
        m = hcl4.unordered_map("m", partitions=2, nodes=[2, 2])
        assert [p.node_id for p in m.partitions] == [2, 2]

    def test_placement_length_validated(self, hcl4):
        with pytest.raises(ValueError):
            hcl4.unordered_map("m", partitions=3, nodes=[0])

    def test_container_registry(self, hcl):
        m = hcl.unordered_map("kv")
        assert hcl.containers["kv"] is m

    def test_close_releases_segments(self, small_spec):
        runtime = HCL(small_spec)
        runtime.unordered_map("m", partitions=2)
        used_before = runtime.cluster.node(0).memory_used.value
        runtime.close()
        assert runtime.cluster.node(0).memory_used.value < used_before
