"""Cluster topology: the collection of simulated nodes plus shared services.

A :class:`Cluster` owns the simulator, the nodes, the switch and
aggregate observability.  Process placement follows the MPI convention used
in the paper's experiments: ranks are laid out block-wise,
``rank -> node = rank // procs_per_node``.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from repro.config import ClusterSpec
from repro.simnet.core import Simulator
from repro.simnet.core import Process

from repro.fabric.node import Node
from repro.fabric.provider import Provider, get_provider
from repro.fabric.verbs import QueuePair

__all__ = ["Cluster"]


class Cluster:
    """A simulated cluster, ready to run rank processes."""

    def __init__(self, spec: ClusterSpec, provider: str = "roce",
                 oversubscription: float = 1.0):
        from repro.fabric.switch import Switch

        self.provider: Provider = get_provider(provider)
        cost = self.provider.apply(spec.cost)
        self.spec = spec.scaled(cost=cost)
        self.sim = Simulator()
        self.nodes: List[Node] = [
            Node(self.sim, i, self.spec) for i in range(self.spec.nodes)
        ]
        self.switch = Switch(self.sim, cost, self.spec.nodes,
                             oversubscription=oversubscription)
        self._qps: Dict[int, QueuePair] = {}
        #: active fault injector, or None — the only thing that drops a
        #: message or takes a node down; the RPC client arms its completion
        #: timer only while one is installed
        self.faults = None

    # -- fault injection ------------------------------------------------------
    def install_faults(self, plan):
        """Install a :class:`~repro.fabric.faults.FaultPlan`; returns the
        live :class:`~repro.fabric.faults.FaultInjector`."""
        from repro.fabric.faults import FaultInjector

        if self.faults is not None:
            raise RuntimeError("a fault plan is already installed")
        self.faults = FaultInjector(self, plan)
        return self.faults

    # -- structure -------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_procs(self) -> int:
        return self.spec.total_procs

    def node_of_rank(self, rank: int) -> int:
        """Block placement of MPI-style ranks onto nodes."""
        if not 0 <= rank < self.total_procs:
            raise IndexError(f"rank {rank} out of range [0, {self.total_procs})")
        return rank // self.spec.procs_per_node

    def qp(self, node_id: int) -> QueuePair:
        """The (shared, reusable) queue pair originating at ``node_id``."""
        qp = self._qps.get(node_id)
        if qp is None:
            qp = QueuePair(self, node_id)
            self._qps[node_id] = qp
        return qp

    # -- process management ---------------------------------------------------
    def spawn(self, gen: Generator, name: Optional[str] = None) -> Process:
        return self.sim.process(gen, name=name)

    def spawn_ranks(
        self,
        body: Callable[[int], Generator],
        ranks: Optional[range] = None,
    ) -> List[Process]:
        """Spawn ``body(rank)`` for every rank (or a subset)."""
        ranks = ranks if ranks is not None else range(self.total_procs)
        return [self.spawn(body(r), name=f"rank-{r}") for r in ranks]

    def run(self, until: Optional[float] = None) -> float:
        """Drive the simulation; returns final sim time (seconds)."""
        self.sim.run(until=until)
        return self.sim.now

    def run_ranks(
        self,
        body: Callable[[int], Generator],
        ranks: Optional[range] = None,
        until: Optional[float] = None,
    ) -> List[Process]:
        """Spawn ``body(rank)`` for all ranks, run the sim, return processes.

        Raises if any rank failed; the processes' ``result`` carries each
        rank's return value.
        """
        procs = self.spawn_ranks(body, ranks=ranks)
        self.run(until=until)
        for proc in procs:
            if proc.done and not proc.ok:
                raise proc.value
        return procs

    # -- observability --------------------------------------------------------------
    def total_packets(self) -> float:
        return sum(n.egress.packets_total.value for n in self.nodes)

    def packets_probe(self) -> Callable[[], float]:
        """Windowed cluster-wide packets-per-second probe."""
        state = {"pk": 0.0, "t": self.sim.now}

        def probe() -> float:
            now = self.sim.now
            pk = self.total_packets()
            span = now - state["t"]
            rate = (pk - state["pk"]) / span if span > 0 else 0.0
            state["pk"] = pk
            state["t"] = now
            return rate

        return probe
