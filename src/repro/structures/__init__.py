"""Local concurrent data structures — the building blocks of HCL containers.

HCL builds each distributed container on a published lock-free local
structure (Section III-D); we implement the same algorithms:

* :mod:`repro.structures.cuckoo` — lock-free cuckoo hashing
  (Nguyen & Tsigas, ICDCS'14 [30]): two tables, two hash functions,
  relocation chains, used by ``unordered_map`` / ``unordered_set``.
* :mod:`repro.structures.rbtree` — red-black tree with rotation accounting
  (after Natarajan, Savoie & Mittal's concurrent wait-free RBTs [31]),
  used by ``map`` / ``set``.
* :mod:`repro.structures.lfqueue` — optimistic doubly-linked FIFO with the
  fix-list repair pass (Ladan-Mozes & Shavit, DISC'04 [32]), used by
  ``queue``.
* :mod:`repro.structures.mdlist` — multi-dimensional linked-list priority
  queue with logically-deleted-node purging (Zhang & Dechev, TPDS'15 [33]),
  used by ``priority_queue``.

Every mutating operation returns an :class:`OpStats` describing the work it
did (probes, relocations, rotations, hops...).  The container layer converts
those counts into simulated time using the Table I cost symbols, so the
simulated performance tracks the *actual* algorithmic work performed on the
real data.

Their concurrency lives in simulated time — the charged ``cas_ops``, the
container layer's RoR path and the NIC's atomic lock — so each structure
runs on one host thread and has one code path (see DESIGN.md,
"Deviations").
"""

from repro.structures.stats import OpStats
from repro.structures.cuckoo import CuckooHash
from repro.structures.rbtree import RedBlackTree
from repro.structures.lfqueue import OptimisticQueue
from repro.structures.mdlist import MDListPriorityQueue

__all__ = [
    "OpStats",
    "CuckooHash",
    "RedBlackTree",
    "OptimisticQueue",
    "MDListPriorityQueue",
]
