"""HCL — the Hermes Container Library core (the paper's contribution).

Public API::

    from repro.core import HCL
    from repro.config import ares_like

    hcl = HCL(ares_like(nodes=4, procs_per_node=8))
    m = hcl.unordered_map("kv", partitions=4)

    def rank_body(rank):
        ok = yield from m.insert(rank, "key", "value")
        val = yield from m.find(rank, "key")
        ...

    hcl.run_ranks(rank_body)

Containers (Section III-D):

* :meth:`HCL.unordered_map` / :meth:`HCL.unordered_set` — lock-free cuckoo
  hash, multi-partition, two-level hashing;
* :meth:`HCL.map` / :meth:`HCL.set` — red-black tree per partition,
  ordered key-space partitioning;
* :meth:`HCL.queue` — single-partition lock-free FIFO;
* :meth:`HCL.priority_queue` — single-partition MDList.

All containers implement the DataBox abstraction: hybrid local/remote
access, asynchronous futures, callback chaining, and optional persistence
and replication.  :meth:`HCL.barrier` is the one rank synchronization: it
flushes every container's aggregation buffers, then waits for all ranks.
"""

from repro.core.runtime import HCL
from repro.core.container import DistributedContainer, Partition
from repro.core.costs import CostLedger
from repro.core.policy import ContainerPolicy
from repro.core.hash_container import HCLUnorderedMap, HCLUnorderedSet
from repro.core.ordered_container import HCLMap, HCLSet
from repro.core.queue import HCLQueue
from repro.core.priority_queue import HCLPriorityQueue

__all__ = [
    "HCL",
    "DistributedContainer",
    "Partition",
    "ContainerPolicy",
    "CostLedger",
    "HCLUnorderedMap",
    "HCLUnorderedSet",
    "HCLMap",
    "HCLSet",
    "HCLQueue",
    "HCLPriorityQueue",
]
