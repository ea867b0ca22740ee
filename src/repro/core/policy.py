"""The container policy: every construction-time switch, stated once.

A :class:`ContainerPolicy` is what the ``HCL.*`` factories fold their
keyword arguments into.  The defaults and the rules about which switches
may be combined live here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = ["ContainerPolicy", "CONCURRENCY_LEVELS"]

#: concurrency-control levels (Section III-D: "HCL allows its users to tune
#: the level of atomicity by setting the appropriate concurrency control
#: parameter").  ``lockfree`` relies on the lock-free local structures;
#: ``mutex`` serializes every operation on a partition behind one lock —
#: stronger isolation, lower concurrency.
CONCURRENCY_LEVELS = ("lockfree", "mutex")


@dataclass(frozen=True)
class ContainerPolicy:
    """How one container replicates, persists and buffers."""

    #: asynchronous server-side copies on the next N partitions (III-A4)
    replication: int = 0
    #: append every mutation to the partition's mmap-backed log (III-C6)
    persistence: bool = False
    #: let the kernel flush the log in the background (no foreground cost)
    relaxed_persistence: bool = False
    concurrency: str = "lockfree"
    #: redirect acked writes to a replica while the primary is down, then
    #: replay them onto the primary when it restarts.  Off by default — the
    #: classic contract is that mutations to a dead primary fail loudly.
    write_failover: bool = False
    #: request aggregation (Section III-C3 / Table I amortization): N
    #: write-combines buffered ops into per-(node, partition) buffers of up
    #: to N ops or 32 KiB of payload, flushed as ONE ``batch`` invocation;
    #: ``"auto"`` starts small and self-tunes the threshold from observed
    #: flush efficiency against the Table-I cost model; 0 keeps one
    #: invocation per op.
    aggregation: Union[int, str] = 0
    #: epoch-validated read cache for read-mostly data; a cached read can
    #: never observe a stale value
    read_cache: bool = False

    def validate(self, single_partition: bool = False,
                 recover: bool = False) -> "ContainerPolicy":
        """Raise ``ValueError`` on any incompatible combination.

        ``single_partition`` marks the queue families, which have no next
        partition to replicate onto; ``recover`` is the factories' request
        to replay the persistence log at construction.
        """
        if self.concurrency not in CONCURRENCY_LEVELS:
            raise ValueError(
                f"concurrency must be one of {CONCURRENCY_LEVELS}"
            )
        if self.write_failover and self.replication <= 0:
            raise ValueError("write_failover requires replication >= 1")
        if single_partition and self.replication:
            raise ValueError(
                "single-partition containers take neither replication nor "
                "write_failover: there is no next partition to copy onto"
            )
        agg = self.aggregation
        if agg != "auto" and (not isinstance(agg, int) or agg < 0):
            raise ValueError(
                'aggregation must be >= 0 (0 disables buffering) or "auto"'
            )
        if recover and not self.persistence:
            raise ValueError("recover=True requires persistence=True")
        return self
