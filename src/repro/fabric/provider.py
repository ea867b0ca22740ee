"""OFI-like fabric providers.

HCL uses the Open Fabric Interface to stay portable across transports
(Section I: "IB, TCP, CC, etc.").  We reproduce that portability layer as
named parameter presets that rewrite the :class:`~repro.config.CostModel`:
the same verbs API runs over any provider; only constants change.

* ``roce``  — the paper's testbed: 40GbE RoCE, ~4.5 GB/s, microsecond verbs.
* ``verbs`` — native InfiniBand EDR-class: more bandwidth, lower latency.
* ``tcp``   — sockets provider: no NIC offload (atomics emulated on host,
  much higher per-op latency), the fallback OFI always has.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping

from repro.config import CostModel, GB

__all__ = ["Provider", "PROVIDERS", "get_provider"]


@dataclass(frozen=True)
class Provider:
    """A named transport personality for the simulated fabric."""

    name: str
    supports_rdma_atomics: bool
    #: the :class:`CostModel` fields this provider sets; none keeps the
    #: base model itself
    overrides: Mapping[str, float] = field(default_factory=dict)

    def apply(self, base: CostModel) -> CostModel:
        """Return a CostModel adjusted for this provider."""
        return replace(base, **self.overrides) if self.overrides else base


PROVIDERS: Dict[str, Provider] = {
    "roce": Provider("roce", True),
    "verbs": Provider("verbs", True, dict(
        link_bandwidth=11.0 * GB,
        link_latency=1.2e-6,
        nic_verb_service=0.9e-6,
        nic_atomic_service=1.2e-6,
    )),
    "tcp": Provider("tcp", False, dict(
        link_bandwidth=1.1 * GB,
        link_latency=18.0e-6,
        per_packet_overhead=1.2e-6,
        nic_verb_service=6.0e-6,  # host kernel path, no offload
        nic_atomic_service=9.0e-6,  # emulated atomics round-trip
        nic_rpc_dispatch=8.0e-6,
    )),
}


def get_provider(name: str) -> Provider:
    try:
        return PROVIDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown provider {name!r}; choose from {sorted(PROVIDERS)}"
        ) from None
