#!/usr/bin/env python
"""A durable, replicated key-value store on HCL (Section III-C6 / III-A4).

Run:  python examples/persistent_kv_store.py

Demonstrates the DataBox persistency and replication features:

1. an ``unordered_map`` with ``persistence=True`` appends every mutation
   to a *real* mmap-backed log on "NVMe" (one file per partition);
2. replication=1 keeps an asynchronous second copy on the next partition;
3. the process "crashes" (we discard the runtime), and a fresh runtime
   *recovers the full store by replaying the logs* (``recover=True``);
4. a corrupted log tail is detected by CRC and cleanly ignored.
"""

import os
import tempfile

from repro.config import ares_like
from repro.core import HCL
from repro.memory import PersistentLog


def main():
    with tempfile.TemporaryDirectory() as persist_dir:
        spec = ares_like(nodes=2, procs_per_node=4, seed=3)
        hcl = HCL(spec, persist_dir=persist_dir)
        store = hcl.unordered_map(
            "store", partitions=2, persistence=True, replication=1,
        )

        def writer(rank):
            yield from store.insert(rank, f"config:{rank}", rank * 100)
            yield from store.upsert(rank, "writes", 1)
            if rank == 0:
                yield from store.insert(rank, "doomed", "bye")
                yield from store.erase(rank, "doomed")

        hcl.run_ranks(writer)
        hcl.cluster.run()  # drain async replication
        expected = {f"config:{r}": r * 100 for r in range(8)}
        expected["writes"] = 8

        # Replication check: every key exists on primary AND replica.
        replicated = 0
        for key in expected:
            primary = store.partition_for(key)
            replica = store.partitions[(primary.index + 1) % 2]
            if replica.structure.find(key)[1]:
                replicated += 1
        print(f"wrote {len(expected)} keys; {replicated} have live replicas")

        store.close()  # flush the logs; then 'crash' the runtime
        del hcl, store

        # ---- recovery -------------------------------------------------
        # A fresh runtime replays each partition's log into its table;
        # replica copies are not logged, so the tables hold the primaries.
        revived = HCL(spec, persist_dir=persist_dir).unordered_map(
            "store", partitions=2, persistence=True, recover=True,
        )
        recovered = {key: value for part in revived.partitions
                     for key, value in part.structure.items()}
        assert recovered == expected, (recovered, expected)
        print(f"recovered {len(recovered)} keys from the mmap logs "
              "after the crash — contents exact (erased key stayed gone)")
        revived.close()

        # ---- corruption ------------------------------------------------
        victim = os.path.join(persist_dir, "store.part0.hcl")
        size = os.path.getsize(victim)
        with open(victim, "r+b") as fh:
            fh.seek(200)
            fh.write(b"\xde\xad")
        with PersistentLog(victim) as log:
            intact = sum(1 for _ in log._iter_from(0, stop_on_corrupt=True))
        print(f"after corrupting 2 bytes: CRC scan keeps the {intact} "
              "records before the damage and discards the rest")


if __name__ == "__main__":
    main()
