"""Deterministic fabric fault injection: lossy links, partitions, crashes.

The simulated fabric is, by default, fair weather: every message arrives,
every node stays up.  Reproducing RoR faithfully at extreme scale means the
procedural model must survive a lossy fabric — Mercury-style RPC treats
timeout/retry semantics as part of the RPC contract, not an afterthought.
This module supplies the weather:

* :class:`LinkFaults` — per-link message fault probabilities (drop,
  duplicate, delay).  Faults are applied at *message* granularity (a
  message is a packet train; the probability is per train, drawn from
  the injector's own generator, seeded from the cluster seed, so runs are
  bit-reproducible).
* :class:`FaultPlan` — a declarative schedule: a default/per-link fault
  spec with an active window, node crash/restart windows, and switch
  partition windows.  Installed via :meth:`Cluster.install_faults`.
* :class:`FaultInjector` — the runtime: intercepts every inter-node
  message (:meth:`outbound`), schedules crashes/restarts/partition
  toggles on the simulator timeline, and counts everything it does in
  the metrics registry (``faults/*`` counters).

Fault semantics:

* **drop** — the message burns its wire time at the sender and vanishes;
  the issuing verb raises :class:`FabricDropped` (the transport-level NACK
  a reliable-connection QP surfaces after retry exhaustion).  The RPC
  client layer converts this into retransmission with backoff.
* **duplicate** — applies to two-sided SENDs only (the verbs where a
  replayed delivery re-executes server logic); the original is delivered
  normally and a copy is re-enqueued at the destination after a short
  deterministic delay, skipping admission control.  The RPC server's
  completion records make the duplicate apply-once: a copy of an
  executed request is suppressed (or, if it arrives after its client's
  watermark passed it, dropped as stale), and a copy of a shed request
  is dropped, so a shed op is never applied.
* **delay** — the message is held for a sampled extra latency before
  entering the wire.
* **crash** — fail-stop of the node's *network presence*: in-flight
  requests queued at its NIC are dropped, all traffic to/from it is
  dropped while down, and ``Node.alive`` goes False.  Memory stays warm
  across the restart (a hung process / dead link, not a cold reboot —
  cold-start recovery is the existing ``recover=True`` persistence path).
  On restart the node's ``on_recover`` hooks fire, which is how containers
  replay queued writes.
* **partition** — during the window, messages between nodes in different
  groups are dropped (the switch splits); nodes not named in any group
  stay reachable from everyone.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fabric.packet import Message, Verb
from repro.obs.registry import registry_of
from repro.simnet.stats import Counter

__all__ = [
    "FabricDropped",
    "LinkFaults",
    "FaultPlan",
    "FaultInjector",
    "make_plan",
    "PLAN_NAMES",
]


class FabricDropped(ConnectionError):
    """A message was dropped by the fault injector (transport-level NACK)."""

    def __init__(self, msg: Message, why: str):
        super().__init__(
            f"{msg.verb.value} {msg.src_node}->{msg.dst_node} dropped ({why})"
        )
        self.src_node = msg.src_node
        self.dst_node = msg.dst_node
        self.why = why


@dataclass(frozen=True)
class LinkFaults:
    """Per-link message fault probabilities (each in [0, 1])."""

    drop: float = 0.0
    dup: float = 0.0
    delay: float = 0.0
    #: extra latency range (seconds) sampled uniformly for delayed messages
    delay_range: Tuple[float, float] = (5e-6, 50e-6)
    #: extra latency before a duplicated copy is re-delivered
    dup_delay: float = 20e-6

    def __post_init__(self):
        for name in ("drop", "dup", "delay"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1], got {p}")
        if self.drop + self.dup + self.delay > 1.0:
            raise ValueError("drop + dup + delay must not exceed 1.0")

    @property
    def is_noop(self) -> bool:
        return self.drop == 0.0 and self.dup == 0.0 and self.delay == 0.0


@dataclass
class FaultPlan:
    """A seeded, declarative chaos schedule for one simulation run."""

    name: str = "custom"
    #: fault spec applied to links without an explicit entry
    default: LinkFaults = field(default_factory=LinkFaults)
    #: per-link overrides, keyed by (src_node, dst_node)
    links: Dict[Tuple[int, int], LinkFaults] = field(default_factory=dict)
    #: active window for probabilistic link faults; None = whole run
    window: Optional[Tuple[float, float]] = None
    #: fail-stop windows: (node_id, t_down, t_up); t_up may be None (never)
    crashes: List[Tuple[int, float, Optional[float]]] = field(
        default_factory=list
    )
    #: switch partitions: (t_start, t_end, groups) — groups is a list of
    #: node-id lists; cross-group messages drop during the window
    partitions: List[Tuple[float, float, Sequence[Sequence[int]]]] = field(
        default_factory=list
    )

    def spec_for(self, src: int, dst: int) -> LinkFaults:
        return self.links.get((src, dst), self.default)


class FaultInjector:
    """Runtime that applies a :class:`FaultPlan` to a cluster's fabric."""

    def __init__(self, cluster, plan: FaultPlan):
        self.cluster = cluster
        self.sim = cluster.sim
        self.plan = plan
        self.rng = np.random.default_rng(np.random.SeedSequence(
            [cluster.spec.seed, zlib.crc32(b"fabric/faults")]))
        self.active = True
        metrics = registry_of(self.sim)
        self.drops = metrics.counter("faults/drops")
        self.dups = metrics.counter("faults/dups")
        self.delays = metrics.counter("faults/delays")
        self.crashes = metrics.counter("faults/crashes")
        self.restarts = metrics.counter("faults/restarts")
        self.partition_drops = metrics.counter("faults/partition_drops")
        #: node_id -> partition group index while a partition window is live
        self._group: Dict[int, int] = {}
        self._schedule_plan()

    # -- schedule installation ------------------------------------------------
    def _schedule_plan(self) -> None:
        sim = self.sim

        def at(when, fn, arg) -> None:
            sim.timeout(max(0.0, when - sim.now)).add_callback(
                lambda _ev: fn(arg))

        for node_id, t_down, t_up in self.plan.crashes:
            if t_up is not None and t_up <= t_down:
                raise ValueError(
                    f"crash window for node {node_id}: restart {t_up} must "
                    f"be after crash {t_down}"
                )
            at(t_down, self.crash, node_id)
            if t_up is not None:
                at(t_up, self.restart, node_id)
        for t0, t1, groups in self.plan.partitions:
            if t1 <= t0:
                raise ValueError("partition window must have t_end > t_start")
            at(t0, self._partition_start, groups)
            at(t1, self._partition_end, groups)

    def crash(self, node_id: int) -> None:
        """Fail-stop ``node_id`` now (what a plan's crash window does)."""
        if not self.active:
            return
        node = self.cluster.node(node_id)
        if not node.alive:
            return
        node.alive = False
        lost = node.nic.drop_pending()
        self.crashes.add(1)
        self.drops.add(lost)

    def restart(self, node_id: int) -> None:
        """Bring a crashed ``node_id`` back now, firing its recovery hooks."""
        node = self.cluster.node(node_id)
        if node.alive:
            return
        self.restarts.add(1)
        node.recover()

    def _partition_start(self, groups) -> None:
        if not self.active:
            return
        for gi, members in enumerate(groups):
            for node_id in members:
                self._group[node_id] = gi

    def _partition_end(self, groups) -> None:
        for members in groups:
            for node_id in members:
                self._group.pop(node_id, None)

    # -- the per-message hook --------------------------------------------------
    def _window_open(self) -> bool:
        window = self.plan.window
        if window is None:
            return True
        return window[0] <= self.sim.now < window[1]

    def outbound(self, msg: Message):
        """Generator hook run by the verbs layer before each inter-node wire
        transfer.  May delay (yield), schedule a duplicate delivery, or
        raise :class:`FabricDropped`."""
        if not self.active:
            return
        src, dst = msg.src_node, msg.dst_node
        nodes = self.cluster.nodes
        if not nodes[src].alive or not nodes[dst].alive:
            yield from self._burn_and_drop(msg, "node down", self.drops)
        gmap = self._group
        if gmap:
            gs, gd = gmap.get(src), gmap.get(dst)
            if gs is not None and gd is not None and gs != gd:
                yield from self._burn_and_drop(
                    msg, "switch partition", self.partition_drops
                )
        spec = self.plan.spec_for(src, dst)
        if spec.is_noop or not self._window_open():
            return
        r = float(self.rng.random())
        if r < spec.drop:
            yield from self._burn_and_drop(msg, "packet loss", self.drops)
        elif r < spec.drop + spec.dup:
            if msg.verb is Verb.SEND:
                self.dups.add(1)
                self.sim.process(
                    self._deliver_duplicate(msg, spec.dup_delay),
                    name=f"fault-dup-{msg.msg_id}",
                )
            # non-SEND verbs: duplicate delivery of one-sided ops is
            # absorbed by the NIC (idempotent reads / redundant writes)
        elif r < spec.drop + spec.dup + spec.delay:
            lo, hi = spec.delay_range
            extra = float(self.rng.uniform(lo, hi))
            self.delays.add(1)
            yield extra

    def _burn_and_drop(self, msg: Message, why: str, counter: Counter):
        """Charge the wire time the doomed message spent, then drop it."""
        counter.add(1)
        cost = self.cluster.spec.cost
        yield (
            cost.transfer_time(msg.wire_size) + cost.link_latency
        )
        raise FabricDropped(msg, why)

    def _deliver_duplicate(self, msg: Message, delay: float):
        """Detached process: re-enqueue a SEND copy at the destination."""
        yield delay
        dst = self.cluster.node(msg.dst_node)
        if not dst.alive:
            return
        dst.nic.recv_queue.try_put(msg)

    # -- control / observability ----------------------------------------------
    def heal(self) -> None:
        """Restore every node and clear partitions; stop injecting.

        Restart hooks (write replay) still fire for nodes that were down.
        """
        self.active = False
        self._group.clear()
        for node in self.cluster.nodes:
            if not node.alive:
                self.restarts.add(1)
                node.recover()

    def injected_total(self) -> int:
        return int(
            self.drops.value + self.dups.value + self.delays.value
            + self.crashes.value + self.partition_drops.value
        )

    def counters(self) -> Dict[str, int]:
        return {
            "drops": int(self.drops.value),
            "dups": int(self.dups.value),
            "delays": int(self.delays.value),
            "crashes": int(self.crashes.value),
            "restarts": int(self.restarts.value),
            "partition_drops": int(self.partition_drops.value),
        }


# -- canned plans (the CI fault matrix) ---------------------------------------

PLAN_NAMES = ("drop-heavy", "crash-heavy", "partition", "mixed", "calm")


def make_plan(name: str, nodes: int, horizon: float = 2e-3) -> FaultPlan:
    """Build one of the named chaos plans scaled to ``nodes`` and a sim-time
    ``horizon`` (seconds).  All windows close before ``0.8 * horizon`` so a
    workload that outlives the horizon always gets a clean tail to finish
    and verify in."""
    if nodes < 2:
        raise ValueError("chaos plans need at least 2 nodes")
    end = 0.8 * horizon
    if name == "drop-heavy":
        return FaultPlan(
            name=name,
            default=LinkFaults(drop=0.12, dup=0.02, delay=0.10),
            window=(0.0, end),
        )
    if name == "crash-heavy":
        crashes = []
        # Stagger one crash/restart window per node, never overlapping so
        # a replica (the next partition) is always reachable.
        slot = end / (2 * nodes)
        for i in range(nodes):
            t_down = (2 * i) * slot
            t_up = t_down + slot
            crashes.append((i, t_down if i else slot * 0.5, t_up))
        return FaultPlan(
            name=name,
            default=LinkFaults(drop=0.02),
            window=(0.0, end),
            crashes=crashes,
        )
    if name == "partition":
        half = list(range(nodes // 2))
        rest = list(range(nodes // 2, nodes))
        return FaultPlan(
            name=name,
            default=LinkFaults(delay=0.05),
            window=(0.0, end),
            partitions=[
                (0.1 * horizon, 0.35 * horizon, [half, rest]),
                (0.5 * horizon, 0.7 * horizon, [half, rest]),
            ],
        )
    if name == "mixed":
        return FaultPlan(
            name=name,
            default=LinkFaults(drop=0.06, dup=0.03, delay=0.06),
            window=(0.0, end),
            crashes=[(nodes - 1, 0.2 * horizon, 0.4 * horizon)],
            partitions=[(0.55 * horizon, 0.7 * horizon,
                         [[0], list(range(1, nodes))])],
        )
    if name == "calm":  # a no-op plan: chaos machinery armed, zero faults
        return FaultPlan(name=name, default=LinkFaults())
    raise ValueError(f"unknown fault plan {name!r}; choose from {PLAN_NAMES}")
