"""Reproduction of *HCL: Distributing Parallel Data Structures in Extreme
Scales* (Devarajan, Kougkas, Bateman, Sun - IEEE CLUSTER 2020).

Packages:

* :mod:`repro.simnet`  - discrete-event simulation kernel
* :mod:`repro.fabric`  - verbs-level RDMA cluster fabric (the testbed substitute)
* :mod:`repro.memory`  - partition segments (a region + a byte budget), mmap persistence
* :mod:`repro.serialization` - the DataBox abstraction and its msgpack backend
* :mod:`repro.rpc`     - the RPC-over-RDMA framework (contribution 1)
* :mod:`repro.structures` - lock-free-style local structures (cuckoo, RB-tree,
  optimistic FIFO, MDList)
* :mod:`repro.core`    - HCL distributed containers (contribution 2) with the
  hybrid data access model (contribution 3)
* :mod:`repro.bcl`     - the BCL client-side baseline
* :mod:`repro.apps`    - ISx and Meraculous kernels
* :mod:`repro.harness` - workload generators, sweeps, paper-style reports

Quickstart::

    from repro.config import ares_like
    from repro.core import HCL

    hcl = HCL(ares_like(nodes=4, procs_per_node=8))
    kv = hcl.unordered_map("kv")

    def body(rank):
        yield from kv.insert(rank, f"key-{rank}", rank)
        value, found = yield from kv.find(rank, f"key-{rank}")
        assert found and value == rank

    hcl.run_ranks(body)
    print(f"simulated time: {hcl.now * 1e6:.1f} us")
"""

from repro.config import ClusterSpec, CostModel, ares_like

__version__ = "1.0.0"

__all__ = ["ClusterSpec", "CostModel", "ares_like", "__version__"]
