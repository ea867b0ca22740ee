"""Keyed ``batch()`` edge cases: empty op lists, mixed-partition ordering,
dead primaries under ``write_failover``, and replication + persistence.

The keyed batch is the workhorse under the op-coalescing buffers (every
flush is one ``batch`` invocation), so its corners — result ordering
across partitions, failover of a whole batch, and batched mutations
hitting the replication and persistence pipelines — get explicit
coverage here.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import RetryPolicy, ares_like
from repro.core import HCL
from repro.fabric import Cluster
from repro.fabric.faults import FaultPlan

from tests.conftest import run_rank0


def _retrying_hcl(nodes=2, procs=4, seed=7):
    """HCL over a fault-armed cluster with a small retry budget, so a dead
    primary exhausts retries quickly and exercises failover."""
    spec = ares_like(nodes=nodes, procs_per_node=procs, seed=seed)
    spec = spec.scaled(cost=replace(
        spec.cost,
        retry=RetryPolicy(timeout=20e-6, max_retries=2,
                          backoff_base=5e-6, backoff_max=20e-6),
    ))
    cluster = Cluster(spec)
    cluster.install_faults(FaultPlan())
    return HCL(cluster)


def _keys_on_partition(m, part, n, start=0):
    found = []
    for k in range(start, start + 100_000):
        if m.partition_for(k) is part:
            found.append(k)
            if len(found) == n:
                return found
    raise AssertionError("not enough keys routed to partition")


class TestBatchEdges:
    def test_empty_op_list(self, hcl):
        m = hcl.unordered_map("t", partitions=2)

        def body():
            results = yield from m.batch(0, [])
            assert results == []

        run_rank0(hcl, body())

    def test_mixed_partition_result_ordering(self, hcl):
        """Sub-ops scatter across partitions but results come back in the
        caller's original order, interleaved ops included."""
        m = hcl.unordered_map("t", partitions=2)
        keys0 = _keys_on_partition(m, m.partitions[0], 3)
        keys1 = _keys_on_partition(m, m.partitions[1], 3)
        # Interleave partitions and op kinds in one batch.
        mixed = [keys0[0], keys1[0], keys0[1], keys1[1], keys0[2], keys1[2]]

        def body():
            results = yield from m.batch(
                0, [("insert", k, f"v{k}") for k in mixed]
            )
            assert results == [True] * len(mixed)
            ops = []
            for i, k in enumerate(mixed):
                ops.append(("find", k) if i % 2 == 0 else ("erase", k))
            results = yield from m.batch(0, ops)
            for i, (k, result) in enumerate(zip(mixed, results)):
                if i % 2 == 0:
                    assert result == (f"v{k}", True)
                else:
                    assert result is True  # erase ack

        run_rank0(hcl, body())

    def test_batch_survives_dead_primary_with_failover(self):
        h = _retrying_hcl()
        m = h.unordered_map("t", partitions=2, replication=1,
                            write_failover=True)
        part1 = m.partitions[1]
        keys = _keys_on_partition(m, part1, 4)
        h.cluster.faults.crash(part1.node_id)

        def body():
            results = yield from m.batch(
                0, [("insert", k, k * 10) for k in keys]
            )
            assert results == [True] * len(keys)

        run_rank0(h, body())
        assert m.failover_writes.value >= 1
        assert not part1.structure  # primary was down for the whole batch
        h.cluster.faults.restart(part1.node_id)
        h.cluster.run()  # drain the replay

        def verify():
            results = yield from m.batch(0, [("find", k) for k in keys])
            assert results == [(k * 10, True) for k in keys]

        run_rank0(h, verify())
        h.close()

    def test_batch_replicates_mutations(self, hcl):
        m = hcl.unordered_map("t", partitions=2, replication=1)
        keys = _keys_on_partition(m, m.partitions[1], 3)

        def body():
            yield from m.batch(0, [("insert", k, k) for k in keys])

        run_rank0(hcl, body())
        hcl.cluster.run()  # let async replication drain
        replica = m.partitions[0]  # replication=1 -> next partition
        for k in keys:
            value, found, _stats = replica.structure.find(k)
            assert found and value == k

    def test_batch_persists_and_recovers(self, tmp_path, small_spec):
        h = HCL(small_spec, persist_dir=str(tmp_path))
        m = h.unordered_map("t", partitions=2, persistence=True,
                            replication=1)
        keys = _keys_on_partition(m, m.partitions[1], 3)

        def body():
            yield from m.batch(
                0,
                [("insert", k, k) for k in keys]
                + [("upsert", keys[0], 1)]
                + [("erase", keys[-1])],
            )

        run_rank0(h, body())
        h.cluster.run()
        m.close()

        h2 = HCL(small_spec, persist_dir=str(tmp_path))
        m2 = h2.unordered_map("t", partitions=2, persistence=True,
                              recover=True)

        def verify():
            value, found = yield from m2.find(0, keys[0])
            assert found and value == keys[0] + 1  # insert + upsert
            value, found = yield from m2.find(0, keys[1])
            assert found and value == keys[1]
            _value, found = yield from m2.find(0, keys[-1])
            assert not found  # the erase was logged and replayed too

        run_rank0(h2, verify())
        h2.close()
