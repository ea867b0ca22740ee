"""Destination-coalescing op buffers and the locality-aware read cache.

This is the client-side aggregation subsystem of Section III-C3 made
transparent: instead of shipping one RoR invocation per container
operation, buffered operations are write-combined into per-(caller-node,
target-partition) buffers and flushed through the container's ``batch``
multi-op handler — one marshal/SEND/invocation charge per flush instead of
per op (the Table I amortization, and the destination-buffered aggregated
insert of Brock et al., BCL [11] / "RDMA vs. RPC" [1910.02158]).

Two pieces live here:

:class:`OpCoalescer`
    Per-container write combiner.  ``append`` adds a sub-operation to the
    destination buffer and fires an asynchronous flush when the op-count or
    byte threshold is crossed; ``drain`` is the mandatory-flush sync point
    (barriers, synchronous reads, explicit ``container.flush``, container
    destruction) — it flushes every pending buffer for the caller's node
    and waits for all in-flight flush batches to complete.  Only *remote*
    partitions buffer: the hybrid access model (Section III-C5) already
    makes same-node operations a shared-memory access, so coalescing them
    would only add latency.

:class:`ReadCache`
    Per-caller-node cache of keyed read results for read-mostly data (BFS
    adjacency lists, contig-traversal neighbor lookups).  Safety is
    epoch-based: every partition carries a ``write_epoch`` bumped by each
    mutation, a cached entry remembers the epoch of the state it read, and
    a hit is served **only while the partition epoch still equals the
    entry's epoch** — so a cached read can never observe a stale value.
    Writes issued or buffered by the local node invalidate the key at once
    (write-through on the local buffer); an entry other nodes' writes made
    stale is dropped by the lookup that finds it.

Both are observable: flush counts, coalesced ops, flushed bytes and cache
hit/miss/invalidation counters all land in the metrics snapshot
(``--metrics-out``); what coalescing buys in simulated time is the
op-coalescing ablation in ``benchmarks/test_ablations.py`` and the ledger's
``smallops_agg`` / ``isx_sort`` rows.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.registry import registry_of
from repro.obs.span import tracer_of
from repro.rpc.future import RPCFuture

__all__ = ["OpCoalescer", "ReadCache", "MISS"]

#: byte threshold per destination buffer (one flush's payload)
MAX_BYTES = 32 * 1024

# -- auto-tune constants (``aggregation="auto"``) ----------------------------
#: starting flush threshold before any efficiency feedback
AUTO_INITIAL = 8
#: lower bound the threshold can shrink to under sparse traffic
AUTO_FLOOR = 4
#: hard ceiling regardless of what the cost model would allow
AUTO_HARD_CAP = 4096
#: re-evaluate the threshold every this many flushes
AUTO_ADJUST_EVERY = 8
#: stop growing once the amortized fixed flush overhead (client stub +
#: marshal base + server dispatch, the per-invocation terms of Table I)
#: drops below this fraction of the per-op wire/serialize time
AUTO_OVERHEAD_FRACTION = 0.05


class _Buffer:
    """Pending sub-operations bound for one (caller-node, partition) pair."""

    __slots__ = ("rank", "part", "subops", "payload_bytes", "opened_at",
                 "futures")

    def __init__(self, rank: int, part, opened_at: float = 0.0):
        self.rank = rank
        self.part = part
        self.subops: List[Tuple[str, tuple]] = []
        self.payload_bytes = 0
        #: sim time the first sub-op landed — start of the buffer span
        self.opened_at = opened_at
        #: per-op result futures (pipelined async API); ``None`` until the
        #: first ``append`` with a future, so the classic path pays nothing
        #: for it
        self.futures: Optional[List] = None


class OpCoalescer:
    """Write-combines container ops into per-destination batch flushes."""

    __slots__ = (
        "container", "sim", "max_ops", "_buffers", "_inflight",
        "flushes", "flushed_ops", "flushed_bytes", "threshold_flushes",
        "sync_flushes", "auto", "_fixed_overhead", "_wire_cost",
        "_auto_flushes", "_auto_trips", "_auto_ops", "_auto_bytes",
        "auto_gauge", "_auto_gauge_shared",
    )

    def __init__(self, container, max_ops: int, auto: bool = False):
        if max_ops < 1:
            raise ValueError(f"aggregation buffer needs max_ops >= 1, got {max_ops}")
        self.container = container
        self.sim = container.runtime.sim
        self.max_ops = int(max_ops)
        #: (node_id, part_index) -> pending buffer
        self._buffers: Dict[Tuple[int, int], _Buffer] = {}
        #: (node_id, part_index) -> in-flight flush futures
        self._inflight: Dict[Tuple[int, int], List] = {}
        name = container.name
        metrics = registry_of(self.sim)
        self.flushes = metrics.counter(f"{name}/agg_flushes")
        self.flushed_ops = metrics.counter(f"{name}/agg_ops")
        self.flushed_bytes = metrics.counter(f"{name}/agg_bytes")
        self.threshold_flushes = metrics.counter(f"{name}/agg_threshold_flushes")
        self.sync_flushes = metrics.counter(f"{name}/agg_sync_flushes")
        # -- self-tuning threshold (aggregation="auto") ----------------------
        #: adapt ``max_ops`` from observed flush efficiency instead of
        #: honoring a hand-tuned static value
        self.auto = bool(auto)
        cost = container.runtime.cluster.spec.cost
        #: per-flush fixed overhead a bigger batch amortizes (Table I)
        self._fixed_overhead = (cost.rpc_client_overhead + cost.serialize_base
                                + cost.nic_rpc_dispatch)
        #: closure: bytes -> unavoidable per-op time (wire + marshal slope)
        self._wire_cost = (
            lambda b: b / cost.link_bandwidth + b * cost.serialize_per_byte
        )
        self._auto_flushes = 0   # flushes since the last adjustment
        self._auto_trips = 0     # of which hit a threshold (vs sync drains)
        self._auto_ops = 0
        self._auto_bytes = 0
        self.auto_gauge = None
        self._auto_gauge_shared = None
        if self.auto:
            self.auto_gauge = metrics.gauge(f"{name}/auto_threshold")
            #: cluster-wide alias surfaced in --metrics-out snapshots
            self._auto_gauge_shared = metrics.gauge("coalesce/auto_threshold")
            self.auto_gauge.set(self.max_ops)
            self._auto_gauge_shared.set(self.max_ops)

    # -- write combining ------------------------------------------------------
    def append(self, rank: int, node_id: int, part, op: str, args: tuple,
               payload_bytes: int, fut: Optional[RPCFuture] = None) -> None:
        """Buffer one sub-op; flush asynchronously when a threshold trips.

        ``fut`` is the op's own :class:`RPCFuture` on the pipelined API: it
        is settled from the op's slot of the batch result (a failed flush
        fails every rider).  Wait on it, or let a later ``flush``/``drain``
        sync point absorb it.  A buffer's rider list exists from its first
        such op on, and holds ``None`` for each plain op.
        """
        key = (node_id, part.index)
        buffers = self._buffers
        buf = buffers.get(key)
        if buf is None:
            buf = buffers[key] = _Buffer(rank, part, self.sim.now)
        buf.rank = rank  # flush on behalf of the most recent caller
        subops = buf.subops
        futures = buf.futures
        if fut is not None:
            if futures is None:
                futures = buf.futures = [None] * len(subops)
            futures.append(fut)
        elif futures is not None:
            futures.append(None)
        subops.append((op, args))
        total = buf.payload_bytes + payload_bytes
        buf.payload_bytes = total
        if len(subops) >= self.max_ops or total >= MAX_BYTES:
            self.threshold_flushes.add(1)
            self._flush_key(key)

    def _flush_key(self, key: Tuple[int, int]) -> None:
        """Ship one buffer as a single ``batch`` invocation (asynchronous)."""
        buf = self._buffers.pop(key)
        self.flushes.add(1)
        self.flushed_ops.add(len(buf.subops))
        self.flushed_bytes.add(buf.payload_bytes)
        if self.auto:
            self._auto_flushes += 1
            if (len(buf.subops) >= self.max_ops
                    or buf.payload_bytes >= MAX_BYTES):
                self._auto_trips += 1
            self._auto_ops += len(buf.subops)
            self._auto_bytes += buf.payload_bytes
            if self._auto_flushes >= AUTO_ADJUST_EVERY:
                self._auto_adjust()
        trace_parent = None
        tracer = tracer_of(self.sim)
        if tracer is not None:
            # The buffer span covers first-append -> flush; the batch RPC
            # it triggers becomes its child.
            trace_parent = tracer.record(
                "coalesce.buffer", buf.opened_at, self.sim.now, node=key[0],
                attrs={"ops": len(buf.subops), "bytes": buf.payload_bytes},
            )
        fut = self.container._spawn_batch(
            buf.rank, buf.part, buf.subops, buf.payload_bytes,
            trace_parent=trace_parent,
        )
        op_futs = buf.futures
        if op_futs is not None:

            def _distribute(bf, futs=op_futs):
                # Settle each rider from its slot of the batch result — at
                # the batch's settle instant, before the kernel pops the
                # flush future's own event.
                if bf._ok:
                    results = bf._value
                    for i, f in enumerate(futs):
                        if f is not None:
                            f._complete(results[i])
                else:
                    for f in futs:
                        if f is not None:
                            f._error(bf._value)

            fut._on_settle(_distribute)
        inflight = self._inflight.setdefault(key, [])
        inflight.append(fut)

        def _settled(event, key=key, fut=fut):
            # Successful flushes retire themselves; failed ones stay listed
            # so the next drain() surfaces the error to a caller.
            if event.ok:
                lst = self._inflight.get(key)
                if lst is not None and fut in lst:
                    lst.remove(fut)

        fut._event.add_callback(_settled)

    # -- self-tuning threshold -------------------------------------------------
    def _auto_adjust(self) -> None:
        """Re-derive ``max_ops`` from the last window of flush efficiency.

        Dense traffic (threshold-tripped flushes running at capacity) doubles
        the threshold so more ops amortize each SEND — until the Table-I
        model says the fixed per-flush overhead is already below
        ``AUTO_OVERHEAD_FRACTION`` of the payload's own wire/marshal time,
        at which point bigger batches only add latency.  Sparse traffic
        (drain-dominated flushes far below capacity) halves it back toward
        ``AUTO_FLOOR`` so ops stop waiting for company that never comes.
        """
        flushes = self._auto_flushes
        trips_frac = self._auto_trips / flushes
        mean_ops = self._auto_ops / flushes
        mean_op_bytes = (self._auto_bytes / self._auto_ops
                        if self._auto_ops else 0.0)
        self._auto_flushes = 0
        self._auto_trips = 0
        self._auto_ops = 0
        self._auto_bytes = 0
        new = self.max_ops
        if trips_frac >= 0.5 and mean_ops >= 0.5 * self.max_ops:
            # Batches are filling: grow while the fixed overhead still
            # dominates the per-op cost at the current threshold.
            per_op_floor = self._wire_cost(mean_op_bytes)
            if per_op_floor > 0:
                model_cap = self._fixed_overhead / (
                    AUTO_OVERHEAD_FRACTION * per_op_floor
                )
            else:
                model_cap = AUTO_HARD_CAP
            cap = min(AUTO_HARD_CAP, model_cap)
            if self.max_ops < cap:
                # Saturated windows (every flush threshold-tripped) grow
                # 4x so a dense storm converges in a few windows; mixed
                # windows step 2x.
                factor = 4 if trips_frac >= 0.9 else 2
                new = min(int(cap), self.max_ops * factor)
        elif trips_frac <= 0.25 and mean_ops <= max(2.0, self.max_ops / 4.0):
            new = max(AUTO_FLOOR, self.max_ops // 2)
        if new != self.max_ops:
            self.max_ops = new
            self.auto_gauge.set(new)
            self._auto_gauge_shared.set(new)

    # -- sync points ----------------------------------------------------------
    def busy(self, node_id: int, part_index: int) -> bool:
        """Whether the caller node has ops buffered or a flush in flight
        for the partition — a later op there must wait behind them."""
        key = (node_id, part_index)
        return key in self._buffers or bool(self._inflight.get(key))

    def pending_total(self) -> int:
        return sum(len(buf.subops) for buf in self._buffers.values())

    def drain(self, rank: int, part_index: Optional[int] = None):
        """Generator: mandatory flush for the caller's node.

        Ships every pending buffer (optionally only the one bound for
        ``part_index``) and waits until all matching in-flight flushes have
        completed, re-raising the first flush failure.  After ``yield from
        coalescer.drain(rank)`` returns, every previously buffered op from
        this node is durably applied at its target partition.
        """
        node_id = self.container.runtime.cluster.node_of_rank(rank)
        buffers = self._buffers
        if part_index is None:
            keys = [k for k in buffers if k[0] == node_id]
        else:
            keys = [(node_id, part_index)]
        for key in keys:
            if key in buffers:
                self.sync_flushes.add(1)
                self._flush_key(key)
        if part_index is None:
            waiting = [(key, fut) for key, futs in self._inflight.items()
                       if key[0] == node_id for fut in futs]
        else:
            key = keys[0]
            waiting = [(key, fut) for fut in self._inflight.get(key, ())]
        for key, fut in waiting:
            if not fut.done:
                yield fut.wait()
            # Retire before surfacing so a failed flush raises exactly once.
            futs = self._inflight[key]
            if fut in futs:
                futs.remove(fut)
            _ = fut.result  # re-raises a failed flush at the sync point

    # -- observability --------------------------------------------------------
    def report(self) -> Dict[str, float]:
        flushes = self.flushes.value
        ops = self.flushed_ops.value
        out = {
            "flushes": int(flushes),
            "flushed_ops": int(ops),
            "flushed_bytes": int(self.flushed_bytes.value),
            "threshold_flushes": int(self.threshold_flushes.value),
            "sync_flushes": int(self.sync_flushes.value),
            "ops_per_flush": (ops / flushes) if flushes else 0.0,
            "pending_ops": self.pending_total(),
        }
        if self.auto:
            out["auto"] = True
            out["auto_threshold"] = self.max_ops
        return out


class _Miss:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<cache miss>"


#: sentinel distinguishing "not cached" from a cached None result
MISS = _Miss()


class ReadCache:
    """Epoch-validated per-caller-node cache for keyed read results."""

    __slots__ = ("_entries", "hits", "misses", "invalidations",
                 "stale_drops")

    def __init__(self, sim, name: str):
        #: (node_id, part_index) -> {key: (result, epoch)}
        self._entries: Dict[Tuple[int, int], Dict[Any, Tuple[Any, int]]] = {}
        metrics = registry_of(sim)
        self.hits = metrics.counter(f"{name}/cache_hits")
        self.misses = metrics.counter(f"{name}/cache_misses")
        self.invalidations = metrics.counter(f"{name}/cache_invalidations")
        self.stale_drops = metrics.counter(f"{name}/cache_stale_drops")

    def lookup(self, node_id: int, part, key):
        """Return the cached read result, or :data:`MISS`.

        A hit requires the partition's current ``write_epoch`` to equal the
        epoch the entry was read at — entries outlived by any mutation are
        dropped, never served.
        """
        bucket = self._entries.get((node_id, part.index))
        if bucket is None:
            self.misses.add(1)
            return MISS
        entry = bucket.get(key)
        if entry is None:
            self.misses.add(1)
            return MISS
        result, epoch = entry
        if epoch != part.write_epoch:
            del bucket[key]
            self.stale_drops.add(1)
            self.misses.add(1)
            return MISS
        self.hits.add(1)
        return result

    def fill(self, node_id: int, part, key, result, epoch_before: int) -> None:
        """Cache a completed read, unless a write raced the read window."""
        if part.write_epoch != epoch_before:
            return  # value may predate the racing mutation; don't cache
        self._entries.setdefault((node_id, part.index), {})[key] = (
            result, epoch_before
        )

    def invalidate_key(self, node_id: int, part_index: int, key) -> None:
        """Write-through invalidation for a locally issued/buffered write."""
        bucket = self._entries.get((node_id, part_index))
        if bucket is not None and bucket.pop(key, None) is not None:
            self.invalidations.add(1)

    def clear(self) -> None:
        """Drop everything — used when partition membership changes."""
        self._entries.clear()

    def entries(self) -> int:
        return sum(len(b) for b in self._entries.values())

    def report(self) -> Dict[str, float]:
        hits = self.hits.value
        misses = self.misses.value
        total = hits + misses
        return {
            "hits": int(hits),
            "misses": int(misses),
            "hit_rate": (hits / total) if total else 0.0,
            "invalidations": int(self.invalidations.value),
            "stale_drops": int(self.stale_drops.value),
            "entries": self.entries(),
        }
